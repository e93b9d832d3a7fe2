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

func TestDeclarationsHaveUsers(t *testing.T) {
	l, err := loadModules(module{".", "repro"}, module{"bench", "repro/bench"})
	if err != nil {
		t.Fatal(err)
	}
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
						found[m.Origin()] = byProgram
						continue
					}
					for _, it := range l.ifaces[m.Name()] {
						if n.TypeParams().Len() > 0 || types.Implements(t, it) {
							found[m.Origin()] = byProgram
							break
						}
					}
				}
			}
		}
	}
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
