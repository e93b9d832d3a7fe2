package hybridtier_test

// A guard against code that nothing outside tests uses. It type-checks the
// module, with the bench module loaded as one more user (like cmd/ and
// examples/), and finds for every package-level func, type, var and const,
// every method and every field of a named struct type the files that use
// it. A declaration of a non-test file must be used by some non-test file;
// one that only tests reach stays only if keptExports lists it with the
// reason. A declaration of a test file must be used by something.
//
// A use that only stores is no use: the target of =, op=, ++ and --, a
// key of a struct literal, and the field or var a write passes through
// when it goes through a struct value or an array element (a.st.n++
// stores to st too). Taking an address, passing a value and a method
// value all read. The fields of a struct type that keys a map or is
// compared with == or != count as read. A blank assertion (var _ I = T{})
// uses nothing.
//
// Three kinds of use are invisible to the type-checker, so these count as
// used: a method through which a type implements an interface of the
// program (the standard library's included: fmt calls String, errors.Is
// calls Unwrap), an embedded field, and a field with a struct tag
// (encoding/json reads it). Fields of anonymous struct types are not
// checked: two identical literals declare distinct field objects.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// keptExports lists the declarations of non-test files that only tests
// use, keyed as the guard prints them, with the reason each one stays:
// each is a seam a test drives, a reference a test compares against, or
// an observer of state no Result shows.
var keptExports = map[string]string{
	"repro/internal/cbf.blocked.slot":                    "the reference probe TestBlockedSingleCacheLine holds the hoisted probe loops to",
	"repro/internal/errfs.Inject":                        "the disk-fault seam of the errfs, jobs, corpus, fabric and service suites",
	"repro/internal/errfs.Injector.Count":                "TestJournalSkipFailureSemantics counts the journal's writes through it",
	"repro/internal/fabric.NewChaos":                     "the seeded faulty transport of TestChaosStormStaysByteIdentical",
	"repro/internal/fabric.Chaos.Faults":                 "TestChaosStormStaysByteIdentical proves with it that the storm injected faults",
	"repro/internal/mem.Memory.CheckInvariants":          "the mem, baselines and sim reference suites check page-state consistency with it",
	"repro/internal/registry/registrytest.WithWorkloads": "the stream-sharing tests of the root package and the fabric engine tests register extra workloads with it",
	"repro/internal/service.Runner":                      "the reference runner TestCellRunnerMatchesRunnerAndPopulatesCache holds the cell engine to",
	"repro/internal/tier.NopEnv":                         "the cost-free Env the tier, core and baselines suites drive single policies through",
	"repro/internal/tier.NopEnv.Charged":                 "the tier and baselines suites read from it the tiering-thread time a policy charged",
	"repro/internal/trace.NewScanSource":                 "the sequential fixture source of the trace and sim suites",
	"repro/internal/workloads/xgboost.Trainer.round":     "TestRoundsAdvance counts boosting rounds with it; no emitted access marks a round boundary",
}

// reach says which kind of file uses a declaration; a higher reach hides
// a lower one.
type reach int

const (
	unreached reach = iota
	byTests
	byBench
	byProgram
)

var (
	programOnce sync.Once
	program     *loader
	programErr  error
)

// loadProgram type-checks this module and the bench module once for every
// guard of the package.
func loadProgram(t *testing.T) *loader {
	programOnce.Do(func() {
		program, programErr = loadModules(module{".", "repro"}, module{"bench", "repro/bench"})
	})
	if programErr != nil {
		t.Fatal(programErr)
	}
	return program
}

func TestDeclarationsHaveUsers(t *testing.T) {
	l := loadProgram(t)
	found := l.reaches()
	var benchOnly, failures []string
	flagged := make(map[string]bool)
	for _, d := range l.decls {
		r := found[d.obj]
		switch {
		case d.test && r == unreached:
			failures = append(failures, fmt.Sprintf("%s: test code that nothing uses; delete it", d.pos))
		case d.test || r == byProgram:
		case r == byBench:
			benchOnly = append(benchOnly, d.key)
		default:
			flagged[d.key] = true
			if reason, ok := keptExports[d.key]; ok {
				t.Logf("kept %s: %s", d.key, reason)
				continue
			}
			what := "nothing uses it"
			if r == byTests {
				what = "only tests use it"
			}
			failures = append(failures, fmt.Sprintf("%s: %s: %s; delete it, or add it to keptExports with the reason it stays", d.pos, d.key, what))
		}
	}
	for key := range keptExports {
		if !flagged[key] {
			failures = append(failures, fmt.Sprintf("keptExports lists %s, which is gone or has a non-test user now; remove the entry", key))
		}
	}
	sort.Strings(benchOnly)
	for _, key := range benchOnly {
		t.Logf("only bench/ uses %s", key)
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// decl is one checked declaration.
type decl struct {
	obj  types.Object
	key  string // import path, then receiver or struct type, then name
	pos  token.Position
	test bool // declared in a _test.go file
}

// loader type-checks the packages of a set of modules from source, and
// the standard library from the export data the go command built.
type loader struct {
	fset    *token.FileSet
	dirs    map[string]*build.Package // module import path -> its files
	gc      types.Importer
	pkgs    map[string]*types.Package
	info    *types.Info
	files   []*ast.File
	kinds   map[*token.File]reach // which kind of file each one is
	decls   []decl
	ifaces  map[string][]*types.Interface // method name -> interfaces declaring it
	within  map[types.Object]ast.Node     // a declaration's own extent
	skipIDs map[*ast.Ident]bool           // receiver types, stores and blank assertions: no use
}

// module is a module's directory and path.
type module struct{ dir, path string }

// loadModules loads every package of mods with its test files.
func loadModules(mods ...module) (*loader, error) {
	l := &loader{
		fset:    token.NewFileSet(),
		dirs:    make(map[string]*build.Package),
		pkgs:    make(map[string]*types.Package),
		kinds:   make(map[*token.File]reach),
		ifaces:  make(map[string][]*types.Interface),
		within:  make(map[types.Object]ast.Node),
		skipIDs: make(map[*ast.Ident]bool),
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	for _, m := range mods {
		if err := l.findPackages(m); err != nil {
			return nil, err
		}
	}
	exports, err := l.listExports()
	if err != nil {
		return nil, err
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	// External test packages import the rest, so nothing imports them.
	for _, p := range paths {
		if bp := l.dirs[p]; len(bp.XTestGoFiles) > 0 {
			pkg, err := l.check(p+"_test", bp.Dir, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			l.pkgs[p+"_test"] = pkg
		}
	}
	l.collectIfaces()
	return l, nil
}

// findPackages records every package directory of m, skipping what the go
// command skips (testdata, directories starting with "." or "_", and
// nested modules).
func (l *loader) findPackages(m module) error {
	return filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != m.dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(m.dir, p)
		if err != nil {
			return err
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			l.dirs[path.Join(m.path, filepath.ToSlash(rel))] = bp
		}
		return nil
	})
}

// listExports returns the export data files of every package outside the
// modules that their files import, and of those packages' dependencies,
// building what the build cache lacks.
func (l *loader) listExports() (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-json=ImportPath,Export"}
	seen := make(map[string]bool)
	for _, bp := range l.dirs {
		for _, imps := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			for _, p := range imps {
				if l.dirs[p] == nil && !seen[p] {
					seen[p] = true
					args = append(args, p)
				}
			}
		}
	}
	if len(seen) == 0 {
		return nil, nil // go list with no package would list the current one
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
	}
	return exports, nil
}

// Import returns a module package checked from source together with its
// in-package test files, so one object stands for a declaration in every
// file that uses it; any other package comes from export data.
func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	bp, ok := l.dirs[p]
	if !ok {
		return l.gc.Import(p)
	}
	pkg, err := l.check(p, bp.Dir, append(bp.GoFiles, bp.TestGoFiles...))
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

// check parses the named files of dir and type-checks them as package p.
func (l *loader) check(p, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p, err)
	}
	l.files = append(l.files, files...)
	for _, f := range files {
		tf := l.fset.File(f.Package)
		switch {
		case strings.HasSuffix(tf.Name(), "_test.go"):
			l.kinds[tf] = byTests
		case strings.HasPrefix(p, "repro/bench"):
			l.kinds[tf] = byBench
			continue // bench/ is a user, not checked itself
		default:
			l.kinds[tf] = byProgram
		}
		l.declare(f, l.kinds[tf] == byTests)
	}
	return pkg, nil
}

// declare records the declarations of f the guard checks, each one's
// extent, and the receiver type names of its methods.
func (l *loader) declare(f *ast.File, test bool) {
	add := func(id *ast.Ident, scope string) {
		if id.Name == "_" {
			return
		}
		obj := l.info.Defs[id]
		key := obj.Pkg().Path() + "." + scope + id.Name
		l.decls = append(l.decls, decl{obj: obj, key: key, pos: l.fset.Position(id.Pos()), test: test})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := l.info.Defs[d.Name].(*types.Func)
			l.within[obj] = d
			recv := obj.Signature().Recv()
			if recv == nil {
				if !entryPoint(d.Name.Name, test) {
					add(d.Name, "")
				}
				continue
			}
			ast.Inspect(d.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					l.skipIDs[id] = true
				}
				return true
			})
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			add(d.Name, rt.(*types.Named).Obj().Name()+".")
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					l.within[l.info.Defs[s.Name]] = s
					add(s.Name, "")
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						if fld.Tag != nil {
							continue
						}
						for _, id := range fld.Names { // none for an embedded field
							add(id, s.Name.Name+".")
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, "")
					}
				}
			}
		}
	}
}

// entryPoint reports whether the go command or the runtime calls the
// package-level function name.
func entryPoint(name string, test bool) bool {
	if name == "main" || name == "init" {
		return true
	}
	if !test {
		return false
	}
	for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// collectIfaces records every interface of the program: the ones its
// packages and the packages they import declare, the ones it writes as
// literals, and error.
func (l *loader) collectIfaces() {
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			l.ifaces[name] = append(l.ifaces[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range l.pkgs {
		visit(pkg)
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					if len(m.Names) > 0 { // else an embedded interface
						add(l.info.Defs[m.Names[0]].(*types.Func).Signature().Recv().Type())
					}
				}
			}
			return true
		})
	}
}

// implemented marks as used by the program every method through which a
// named type of the modules implements an interface of the program. A
// generic type's methods count if any interface declares their name.
// errors.Is and errors.As call Unwrap, Is and As through interfaces local
// to their function bodies, which export data does not carry, so those
// names count on any type.
func (l *loader) implemented(found map[types.Object]reach) {
	for m := range l.ifaceMethods() {
		found[m] = byProgram
	}
}

// ifaceMethods returns the methods implemented describes.
func (l *loader) ifaceMethods() map[types.Object]bool {
	methods := make(map[types.Object]bool)
	for _, pkg := range l.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				ms := types.NewMethodSet(t)
				for i := 0; i < ms.Len(); i++ {
					m := ms.At(i).Obj().(*types.Func)
					switch m.Name() {
					case "Unwrap", "Is", "As":
						methods[m.Origin()] = true
						continue
					}
					for _, it := range l.ifaces[m.Name()] {
						if n.TypeParams().Len() > 0 || types.Implements(t, it) {
							methods[m.Origin()] = true
							break
						}
					}
				}
			}
		}
	}
	return methods
}

// reaches finds, for each checked declaration, the widest kind of file
// that uses it. A use inside the declaration itself does not count.
func (l *loader) reaches() map[types.Object]reach {
	found := make(map[types.Object]reach)
	use := func(pos token.Pos, obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if n, ok := l.within[obj]; ok && n.Pos() <= pos && pos < n.End() {
			return
		}
		if kind := l.kinds[l.fset.File(pos)]; kind > found[obj] {
			found[obj] = kind
		}
	}
	l.skipNonReads(use)
	for id, obj := range l.info.Uses {
		if !l.skipIDs[id] {
			use(id.Pos(), obj)
		}
	}
	for sel, s := range l.info.Selections {
		if !l.skipIDs[sel.Sel] {
			use(sel.Sel.Pos(), s.Obj())
		}
	}
	l.implemented(found)
	return found
}

// skipNonReads adds to skipIDs the identifiers that only store and those
// inside blank assertions, and reports through use the fields that a map
// key's hash or an == or != comparison reads.
func (l *loader) skipNonReads(use func(token.Pos, types.Object)) {
	var store func(ast.Expr)
	store = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			l.skipIDs[e] = true
		case *ast.SelectorExpr:
			l.skipIDs[e.Sel] = true
			if s := l.info.Selections[e]; s != nil && s.Kind() == types.FieldVal && !s.Indirect() {
				store(e.X) // a write into a struct value
			}
		case *ast.IndexExpr:
			if _, ok := l.info.Types[e.X].Type.Underlying().(*types.Array); ok {
				store(e.X) // a write into an array element
			}
		}
	}
	var compared func(pos token.Pos, t types.Type)
	compared = func(pos token.Pos, t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				use(pos, u.Field(i))
				compared(pos, u.Field(i).Type())
			}
		case *types.Array:
			compared(pos, u.Elem())
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					store(e)
				}
			case *ast.IncDecStmt:
				store(n.X)
			case *ast.CompositeLit:
				if _, ok := l.info.Types[n].Type.Underlying().(*types.Struct); ok {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							store(kv.Key)
						}
					}
				}
			case *ast.MapType:
				compared(n.Key.Pos(), l.info.Types[n.Key].Type)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					compared(n.Pos(), l.info.Types[n.X].Type)
				}
			case *ast.ValueSpec:
				if len(n.Names) == 1 && n.Names[0].Name == "_" {
					ast.Inspect(n, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							l.skipIDs[id] = true
						}
						return true
					})
					return false
				}
			}
			return true
		})
	}
}

// keptKnobs lists the knobs TestKnobsVary finds that stay settable, keyed as
// it prints them, with the test or ROADMAP item that needs each one.
var keptKnobs = map[string]string{
	"repro.ShiftingZipf(frac)":                                facadeWorkload,
	"repro.ShiftingZipf(n)":                                   facadeWorkload,
	"repro.ShiftingZipf(name)":                                facadeWorkload,
	"repro.ShiftingZipf(s)":                                   facadeWorkload,
	"repro.ShiftingZipf(shiftAfterOps)":                       facadeWorkload,
	"repro/internal/baselines.AgeConfig.IdleNs":               "item 13 derives this (Age's aging clock)",
	"repro/internal/baselines.AutoNUMAConfig.AgeNs":           "item 13 derives this",
	"repro/internal/baselines.AutoNUMAConfig.HintThresholdNs": "item 13 derives this",
	"repro/internal/baselines.MemtisConfig.CoolSamples":       "item 13 derives this",
	"repro/internal/core.Config.FreqCoolSamples":              "item 13 derives this",
	"repro/internal/core.Config.MomCoolSamples":               "item 13 derives this",
	"repro/internal/core.Config.PromoBatch":                   "item 13 derives this",
	"repro/internal/core.Config.SecondChanceNs":               "item 13 derives this",
	"repro/internal/fabric.Config.HeartbeatTTL":               "a seam: TestHeartbeatTTLExpiresAndRejoinRevives shortens it to 30 ms",
	"repro/internal/fabric.Config.MaxShardCells":              "a seam: newFleet's 2-cell shards give TestChaosStormStaysByteIdentical its failure windows",
	"repro/internal/fabric.Config.ShardTimeout":               "a seam: TestStragglerCellIsStolenAndLateCommitDropped shortens it to 250 ms",
	"repro/internal/fabric.Config.StealAfter":                 "a seam: TestStragglerCellIsStolenAndLateCommitDropped shortens it to 15 ms",
	"repro/internal/fabric.WorkerConfig.Interval":             "a seam: newFleet's 2 ms heartbeats revive the workers TestChaosStormStaysByteIdentical presumes dead",
	"repro/internal/jobs.Config.RetainJobs":                   "a seam: TestRetainJobsBoundsMemory and TestManagerReplayRespectsRetainJobs evict past 2 and 4 jobs",
	"repro/internal/pebs.Config.BufferSize":                   "a seam: TestTrackersConserveSamples and TestPEBSAdapter shrink the ring until it drops",
	"repro/internal/pebs.Config.Period":                       "item 13 derives this",
	"repro/internal/trace.NewZipfSource(writeFrac)":           "TestTrackersConserveSamples and the soft-dirty tracker tests need the stores it draws",
	"repro/internal/tracker.Config.BufferSize":                "a seam: TestTrackersConserveSamples and TestSoftDirtyWriteOnly shrink the ring until it drops",
	"repro/internal/tracker.Config.ScanNs":                    "item 13 derives this",
	"repro/internal/workloads/silo.Config.Mix":                "TestYCSBBMix and the sim integration suite's YCSB-B silo need the update mix",
}

// facadeWorkload is why ShiftingZipf keeps its parameters.
const facadeWorkload = "the facade's one workload constructor: ExampleNewExperiment_withWorkload and TestShiftingZipfFacade build it at other shapes"

// A knob guard. A knob is a parameter of an exported function or method, or
// an exported field of a named struct type, declared in a non-test file. The
// program (cmd/, examples/ and bench/ included, tests not) sets it through
// its calls and stores; a knob the program only ever sets to one constant is
// no knob, so the guard fails on it unless keptKnobs lists it. A knob whose
// constant bench/ also passes is logged instead: bench/ is changed only
// with the benchmark.
func TestKnobsVary(t *testing.T) {
	var failures []string
	flagged := make(map[string]bool)
	for _, k := range loadProgram(t).knobs() {
		if k.bench {
			t.Logf("bench/ holds %s at %s", k.key, k.val)
			continue
		}
		flagged[k.key] = true
		if reason, ok := keptKnobs[k.key]; ok {
			t.Logf("kept %s: %s", k.key, reason)
			continue
		}
		failures = append(failures, fmt.Sprintf("%s: %s: the program only ever sets it to %s; inline the constant, or add it to keptKnobs with the test or item that needs it", k.pos, k.key, k.val))
	}
	for key := range keptKnobs {
		if !flagged[key] {
			failures = append(failures, fmt.Sprintf("keptKnobs lists %s, which is gone or varies now; remove the entry", key))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// TestKnobGuardFlagsFixture runs the knob analysis over testdata/knobs,
// loaded as a module of its own, and expects exactly its two knobs: an
// always-"" parameter and a config field set once and varied only in a
// test. A parameter given two constants and a tagged field pass.
func TestKnobGuardFlagsFixture(t *testing.T) {
	l, err := loadModules(module{filepath.Join("testdata", "knobs"), "knobs"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, k := range l.knobs() {
		got = append(got, k.key+" = "+k.val)
	}
	want := []string{"knobs.Config.Level = 3", `knobs.NewThing(name) = ""`}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("knobs found:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// knob is a knob the program sets to one constant.
type knob struct {
	key   string
	pos   token.Position
	val   string // the constant
	bench bool   // bench/ sets it too
}

// setting collects what the program sets one knob to.
type setting struct {
	key    string
	pos    token.Position
	vals   map[string]string // exact value -> as Go writes it
	set    bool              // some call or store names it
	varies bool              // some call or store is not constant
	bench  bool
}

// give records that a call or store of a file of kind sets s to tv.
func (s *setting) give(tv types.TypeAndValue, kind reach) {
	switch {
	case tv.Value != nil:
		s.vals[tv.Value.ExactString()] = tv.Value.String()
	case tv.IsNil():
		s.vals["nil"] = "nil"
	default:
		s.varies = true
	}
	s.set = true
	s.bench = s.bench || kind == byBench
}

// zero records that a struct literal leaves s unset, so at the zero value
// of t. A literal of bench/ that leaves a field out does not hold it.
func (s *setting) zero(t types.Type) {
	v := "the zero value"
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			v = "false"
		case u.Info()&types.IsString != 0:
			v = `""`
		case u.Info()&types.IsNumeric != 0:
			v = "0"
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		v = "nil"
	}
	s.vals[v] = v
}

// knobs returns the knobs of the checked files that the program sets to
// one constant, sorted by key. A parameter counts only if every program
// use of its function calls it directly: a function value or a method
// called through an interface hides its arguments. A variadic parameter
// is not checked. A field counts the values of its assignments and struct
// literals, a keyed literal that leaves it out setting it to zero; an
// increment or an address taken varies it.
func (l *loader) knobs() []knob {
	inIface := l.ifaceMethods()
	settings := make(map[types.Object]*setting)
	params := make(map[*types.Func][]*setting) // nil entries for unchecked ones
	for _, d := range l.decls {
		if d.test || !d.obj.Exported() {
			continue
		}
		switch obj := d.obj.(type) {
		case *types.Func:
			if inIface[obj] {
				continue
			}
			params[obj] = l.paramSettings(d.key, obj, settings)
		case *types.Var:
			settings[obj] = &setting{key: d.key, pos: d.pos, vals: make(map[string]string)}
		case *types.TypeName:
			it, ok := obj.Type().Underlying().(*types.Interface)
			for i := 0; ok && i < it.NumExplicitMethods(); i++ {
				m := it.ExplicitMethod(i)
				params[m] = l.paramSettings(d.key+"."+m.Name(), m, settings)
			}
		}
	}
	defaulted := make(map[*setting]bool)
	field := func(e ast.Expr) *setting {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return settings[s.Obj().(*types.Var).Origin()]
			}
		}
		return nil
	}
	vary := func(s *setting) {
		if s != nil {
			s.set, s.varies = true, true
		}
	}
	funcs := make(map[*ast.Ident]*types.Func) // every use of a function or method
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			funcs[id] = fn.Origin()
		}
	}
	for sel, s := range l.info.Selections {
		if fn, ok := s.Obj().(*types.Func); ok {
			funcs[sel.Sel] = fn.Origin()
		}
	}
	called := make(map[*ast.Ident]bool)
	for _, f := range l.files {
		kind := l.kinds[l.fset.File(f.Package)]
		if kind == byTests {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				id := calleeIdent(n.Fun)
				if id == nil {
					return true
				}
				called[id] = true
				ps := params[funcs[id]]
				tuple := len(n.Args) == 1 && len(ps) > 1
				for i, s := range ps {
					switch {
					case s == nil:
					case tuple:
						vary(s)
					default:
						s.give(l.info.Types[n.Args[i]], kind)
					}
				}
			case *ast.CompositeLit:
				st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				given := make(map[*types.Var]bool)
				for i, elt := range n.Elts {
					fv := st.Field(i)
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						fv, elt = l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
					}
					given[fv] = true
					if s := settings[fv.Origin()]; s != nil {
						s.give(l.info.Types[elt], kind)
					}
				}
				for i := 0; i < st.NumFields(); i++ {
					if fv := st.Field(i); !given[fv] && settings[fv.Origin()] != nil {
						settings[fv.Origin()].zero(fv.Type())
					}
				}
			case *ast.AssignStmt:
				for i, e := range n.Lhs {
					s := field(e)
					switch {
					case s == nil:
					case n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs):
						s.give(l.info.Types[n.Rhs[i]], kind)
					default:
						vary(s)
					}
				}
			case *ast.IfStmt:
				// if c.F <= 0 { c.F = d } makes d F's zero value.
				cond, ok := n.Cond.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				below := cond.Op == token.EQL || cond.Op == token.LEQ || cond.Op == token.LSS
				if s := field(cond.X); s != nil && below && isZero(l.info.Types[cond.Y]) {
					for _, st := range n.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && field(as.Lhs[0]) == s {
							defaulted[s] = true
						}
					}
				}
			case *ast.IncDecStmt:
				vary(field(n.X))
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					vary(field(n.X))
				}
			case *ast.RangeStmt:
				vary(field(n.Key))
				if n.Value != nil {
					vary(field(n.Value))
				}
			}
			return true
		})
	}
	// A function the program uses other than by calling it may be called
	// with anything.
	for id, fn := range funcs {
		if !called[id] && l.kinds[l.fset.File(id.Pos())] != byTests {
			for _, s := range params[fn] {
				vary(s)
			}
		}
	}
	var found []knob
	for _, s := range settings {
		if defaulted[s] {
			delete(s.vals, "0")
		}
		if !s.set || s.varies || len(s.vals) != 1 {
			continue
		}
		for _, v := range s.vals {
			found = append(found, knob{key: s.key, pos: s.pos, val: v, bench: s.bench})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	return found
}

// paramSettings returns a setting for each checked parameter of fn, nil
// for the others, and records them in settings. A variadic or unnamed
// parameter is not checked.
func (l *loader) paramSettings(key string, fn *types.Func, settings map[types.Object]*setting) []*setting {
	sig := fn.Signature()
	ps := make([]*setting, sig.Params().Len())
	for i := range ps {
		p := sig.Params().At(i)
		if p.Name() == "" || p.Name() == "_" || (sig.Variadic() && i == len(ps)-1) {
			continue
		}
		ps[i] = &setting{key: fmt.Sprintf("%s(%s)", key, p.Name()), pos: l.fset.Position(p.Pos()), vals: make(map[string]string)}
		settings[p] = ps[i]
	}
	return ps
}

// isZero reports whether tv is the constant 0.
func isZero(tv types.TypeAndValue) bool {
	return tv.Value != nil && tv.Value.ExactString() == "0"
}

// calleeIdent returns the identifier naming the function a call's fun
// expression denotes, or nil.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.IndexExpr:
		return calleeIdent(f.X)
	case *ast.IndexListExpr:
		return calleeIdent(f.X)
	}
	return nil
}
