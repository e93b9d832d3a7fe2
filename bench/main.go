// Command bench is the repository's end-to-end and per-layer benchmark: six
// closed-loop workloads over the in-process sweep engine and real htiersimd
// daemons, result verification against golden hashes and in-process
// reference runs, and a separate traced run that splits each workload's time
// by layer. README.md in this directory is the manual; BENCHMARK.json at the
// repository root is the contract the numbers are judged by.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                     every workload, then its traced run
//	bash bench/run.sh -sets 2 -runs 10    repeatability self-check
//	bash bench/run.sh --workload local_shared --seed 7 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:])) }

type options struct {
	root, workload, daemon string
	out                    string // directory for trace files
	seed                   uint64
	seconds                float64
	trace                  int
	sets, runs             int
	smoke                  bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (default: all, human-readable)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "offsets every cell seed and seeds the request sequence; golden hashes are checked at the default only")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	fs.IntVar(&o.sets, "sets", 0, "repeatability self-check: run this many sets of -runs runs per workload and compare their medians")
	fs.IntVar(&o.runs, "runs", 10, "runs per set (each with another seed)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny cells and in-process daemons: exercises every code path, measures nothing")
	fs.StringVar(&o.out, "out", "", "directory for trace files (default: bench/out)")
	fs.StringVar(&o.daemon, "daemon", "", "htiersimd binary to test (default: built from ./cmd/htiersimd into .bench_build/)")
	printJSON := fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as the metric tables define it and exit")
	update := fs.Bool("update-golden", false, "recompute bench/golden.json in process and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printJSON {
		data, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(data)
		return 0
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return fail(err)
	}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module repro\n") {
		return fail(fmt.Errorf("%s is not the repository root (no go.mod of module repro); run from the root or pass -root", root))
	}
	o.root = root
	if o.out == "" {
		o.out = filepath.Join(root, "bench", "out")
	}

	// Every exit path stops the daemons: normal return, a signal, and (via
	// Pdeathsig on the children) even a SIGKILL of this process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAllChildren()

	switch {
	case *update:
		return withWorkDir(o, func(dir string) int {
			if err := updateGolden(ctx, root, dir); err != nil {
				return fail(err)
			}
			return 0
		})
	case o.workload == "" || o.sets > 0:
		return orchestrate(ctx, o)
	}
	return withWorkDir(o, func(dir string) int { return single(ctx, o, dir) })
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// withWorkDir runs fn with a scratch directory inside the checkout (the
// benchmark writes nowhere else) and removes it afterwards.
func withWorkDir(o options, fn func(dir string) int) int {
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(build, "run-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	return fn(dir)
}

// buildDaemon builds the daemon under test the way a user would — a plain
// go build, which applies cmd/htiersimd/default.pgo when it exists — before
// any clock starts.
func buildDaemon(ctx context.Context, root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "htiersimd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/htiersimd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/htiersimd: %w\n%s", err, msg)
	}
	return out, nil
}

// single runs one workload once and prints the result line.
func single(ctx context.Context, o options, workDir string) int {
	rep, problems, err := runOnce(ctx, o, workDir)
	if err != nil {
		return fail(err)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runOnce is one run of one workload: untraced for the end-to-end metrics,
// or the traced run for the per-layer ones. problems describes each failed
// operation or check.
func runOnce(ctx context.Context, o options, workDir string) (rep report, problems []string, err error) {
	w := findWorkload(o.workload)
	if w == nil {
		return rep, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rc := &runCtx{
		ctx: ctx, root: o.root, workDir: workDir, z: sizing{smoke: o.smoke},
		seed: o.seed, seconds: o.seconds, launch: inprocLauncher{},
	}
	daemon := ""
	if !o.smoke {
		if w.kind != kindLocal {
			if daemon = o.daemon; daemon == "" {
				if daemon, err = buildDaemon(ctx, o.root); err != nil {
					return rep, nil, err
				}
			}
			rc.launch = procLauncher{bin: daemon, tmp: workDir}
		}
		if o.seed == defaultSeed {
			if rc.golden, err = loadGolden(o.root); err != nil {
				return rep, nil, err
			}
		}
	}
	env := environment(o.root, daemon)
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%g trace=%d  %s\n", w.name, o.seed, o.seconds, o.trace, envLine(env))

	if o.trace == 0 {
		var m *measured
		switch w.kind {
		case kindLocal:
			m, err = rc.runLocal(w)
		case kindCold:
			m, err = rc.runCold(w)
		case kindWarm:
			m, err = rc.runWarm(w)
		}
		if err != nil {
			return rep, nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: set-up %.4g s, iterations %.4g s\n", seconds(m.setup), seconds(m.iters))
		return endToEndReport(m), m.problems, nil
	}

	m := &measured{}
	rec := newRecorder()
	var ly layers
	switch w.kind {
	case kindLocal:
		ly, err = rc.traceLocal(w, rec, m)
	case kindCold:
		ly, err = rc.traceCold(w, rec, m)
	case kindWarm:
		ly, err = rc.traceWarm(w, rec, m)
	}
	if err != nil {
		return rep, nil, err
	}
	ly["bench.spans"] = float64(rec.len())
	if rep, err = perLayerReport(m, ly); err != nil {
		return rep, nil, err
	}
	path := filepath.Join(o.out, "trace-"+w.name+".json")
	if err := rec.write(path, traceFile{Workload: w.name, Seed: o.seed, Environment: env, Layers: ly}); err != nil {
		return rep, nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", rec.len(), path)
	return rep, m.problems, nil
}
