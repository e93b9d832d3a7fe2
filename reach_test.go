package hybridtier_test

// A guard against exported API that nothing uses. Every exported
// package-level function of the module must be named by some other
// non-test file (cmd/ and examples/ count as callers), or be listed in
// keptExports with the reason it stays. The check is by name only, with
// no type-checker: a dead function that shares its name with a live one
// slips through, but a live function is never flagged.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports lists the exported functions whose name no other non-test
// file of the module mentions, keyed by import path and name, with the
// reason each one stays.
var keptExports = map[string]string{
	// bench/ is a module of its own and compiles against these.
	"repro.WithWorkload":                   "bench/traced.go builds its experiments from Workload values; tests do too",
	"repro/internal/jobs.NewCache":         "bench/daemon.go and bench/drives.go build their caches with it; NewDaemon calls NewCacheFS; tests call it",
	"repro/internal/service.CellRunner":    "bench/daemon.go builds its coordinator's local executor with it",
	"repro/internal/service.NewHandler":    "bench/daemon.go and bench/drives.go serve their own managers through it; NewDaemon calls newHandler",
	"repro/internal/stats.Percentile":      "bench/ reports its timing percentiles with it",
	"repro/internal/tracefile.OpenV2":      "bench/drives.go decodes v2 traces with it; the v2 tests open files with it",
	"repro/internal/trace.NewReplaySource": "bench/traced.go packs its shared stream with it, synchronously; the trace and sim tests do too",
	"repro/internal/tracker.Kinds":         "KnownKinds calls it in the same file; bench/drives.go walks the kinds with it",

	// Test seams.
	"repro/internal/errfs.Inject":                        "the disk-fault injector the corpus, jobs, fabric and service tests drive",
	"repro/internal/fabric.NewChaos":                     "the seeded faulty transport of the fabric chaos tests",
	"repro/internal/registry/registrytest.WithWorkloads": "test-helper package: swaps in extra workloads until the test ends",
	"repro/internal/trace.NewScanSource":                 "the sequential fixture source of the trace and sim tests",

	// Called in their own file.
	"repro/internal/registry.NewPolicyRegistry":  "builds the Policies registry in the same file",
	"repro/internal/tracefile.NewWriter":         "Create calls it; tests write v1 traces into buffers with it",
	"repro/internal/tracefile.NewWriterV2":       "CreateV2 calls it; tests write v2 traces into buffers with it",
	"repro/internal/workloads/gap.BuildCSR":      "Kronecker and UniformRandom call it; the graph tests build small graphs with it",
	"repro/internal/workloads/gap.Kronecker":     "GraphKind.Build calls it",
	"repro/internal/workloads/gap.UniformRandom": "GraphKind.Build calls it",
}

// moduleFile is one parsed non-test source file.
type moduleFile struct {
	pkg    string              // import path of its package
	funcs  []string            // exported package-level functions it declares
	idents map[string]struct{} // every identifier it names
}

func TestExportedFuncsHaveCallers(t *testing.T) {
	files, err := parseModule(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	// uses counts, per name, the files that mention it.
	uses := make(map[string]int)
	for _, f := range files {
		for id := range f.idents {
			uses[id]++
		}
	}
	uncalled := make(map[string]bool)
	for _, f := range files {
		for _, fn := range f.funcs {
			// The declaring file names fn itself, so one use is its own.
			if uses[fn] <= 1 {
				uncalled[f.pkg+"."+fn] = true
			}
		}
	}
	var missing, stale []string
	for key := range uncalled {
		if _, ok := keptExports[key]; !ok {
			missing = append(missing, key)
		}
	}
	for key := range keptExports {
		if !uncalled[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, key := range missing {
		t.Errorf("%s: exported, but no other non-test file names it; delete it, or add it to keptExports with the reason it stays", key)
	}
	for _, key := range stale {
		t.Errorf("keptExports lists %s, which is gone or has a caller now; remove the entry", key)
	}
}

// parseModule parses every non-test Go file under root that belongs to the
// module modPath, skipping what the go command skips (testdata and
// directories starting with "." or "_") and nested modules.
func parseModule(root, modPath string) ([]moduleFile, error) {
	fset := token.NewFileSet()
	var files []moduleFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := moduleFile{pkg: path.Join(modPath, filepath.ToSlash(filepath.Dir(p))), idents: make(map[string]struct{})}
		for _, decl := range af.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				f.funcs = append(f.funcs, fn.Name.Name)
			}
		}
		ast.Inspect(af, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				f.idents[id.Name] = struct{}{}
			}
			return true
		})
		files = append(files, f)
		return nil
	})
	return files, err
}
