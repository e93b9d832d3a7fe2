// Command htiersim runs tiering simulations from the command line. A single
// policy/ratio/seed runs one simulation and prints its metrics (the
// counterpart of the artifact's run_{workload}.sh scripts); comma-separated
// -policy, -ratio, or -seed values run the full cross product concurrently
// through the facade's Sweep.
//
// Usage:
//
//	htiersim [-workload cdn] [-policy HybridTier,Memtis] [-ratio 8,16]
//	         [-seed 1,2,3] [-ops 1000000] [-huge] [-cache] [-tracker idlepage]
//	         [-scale tiny|quick|full] [-workers N]
//	         [-json] [-series] [-list] [-record run.htrc] [-replay run.htrc]
//	         [-trace-info run.htrc] [-submit http://host:8080]
//	         [-experiment fig9,tab3]
//
// Workloads and policies are resolved through the public registries, so
// -list can never drift from what actually runs. -tracker forces one
// access tracker (pebs, idlepage, softdirty) on every cell; a
// "Policy@tracker" spelling in -policy pins it per policy, and with
// neither, each policy runs under its registered default tracker. -workload also accepts
// the composition grammar (docs/COMPOSITION.md): "mix:0.7*cdn,0.3*silo"
// interleaves two tenants on disjoint page ranges, "phases:cdn@500000,silo"
// switches generators after a fixed op count, and repeat:/offset:/scale:
// loop and transform address spaces; a malformed spec is rejected before
// anything runs. Ctrl-C cancels promptly.
//
// Trace capture and replay (docs/TRACE_FORMAT.md): -record captures a
// single run's op stream to a trace file (".gz" compresses it), -replay
// drives the sweep from a recorded file instead of a generator — replaying
// under the recorded policy/ratio/seed reproduces the live run's -json
// output byte for byte, composed workloads included — and -trace-info
// inspects a file without running anything. A trace also resolves anywhere
// a workload name is accepted as "trace:<path>".
//
// With -submit the sweep is not simulated locally: the spec is posted to
// a running htiersimd daemon (docs/SERVICE.md), progress streams back as
// the cells complete, and the result is fetched from the daemon's
// content-addressed cache — byte-identical to what the same flags print
// locally, and free when another client already ran the same experiment.
// -record and -replay name local files and therefore conflict with
// -submit; -workers is a local execution knob the daemon chooses for
// itself.
//
// -experiment regenerates the paper's evaluation tables and figures (the
// artifact's repro.sh analogue) instead of running a simulation: the named
// experiments of internal/experiments (-list shows the ids; "all" runs
// every one) run at -scale and print as aligned text tables, with notes
// recording the paper's expected shape next to the measured values.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	hybridtier "repro"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/tracefile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the CLI is testable
// in-process: it parses args, executes, writes to stdout/stderr, and
// returns the process exit code (0 ok, 1 run failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("htiersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "cdn", "workload name or composition spec (see -list)")
	policy := fs.String("policy", "HybridTier", "tiering policy, or comma-separated list")
	ratio := fs.String("ratio", "8", "fast:slow ratio 1:N, or comma-separated list")
	seed := fs.String("seed", "1", "deterministic seed, or comma-separated list")
	ops := fs.Int64("ops", 1_000_000, "operations to simulate")
	huge := fs.Bool("huge", false, "2MB huge-page granularity")
	cache := fs.Bool("cache", false, "enable the full CPU-cache model")
	trackerFlag := fs.String("tracker", "", "access tracker for every cell: pebs, idlepage, or softdirty (default: each policy's own; Policy@tracker pins per policy)")
	scaleFlag := fs.String("scale", "quick", "workload scale: tiny, quick, or full")
	workers := fs.Int("workers", 0, "concurrent sweep cells (default: all cores)")
	jsonOut := fs.Bool("json", false, "emit results as JSON")
	series := fs.Bool("series", false, "print the latency time series (single run only)")
	list := fs.Bool("list", false, "list workloads, policies, composition syntax, and experiment ids")
	record := fs.String("record", "", "capture the run's op stream to this trace file (single run only)")
	replay := fs.String("replay", "", "replay this trace file as the workload")
	traceInfo := fs.String("trace-info", "", "print a trace file's header and counts, then exit")
	submit := fs.String("submit", "", "post the sweep to the htiersimd daemon at this URL instead of running locally")
	experiment := fs.String("experiment", "", "regenerate these paper tables/figures at -scale instead of simulating: comma-separated ids (see -list), or all")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help prints usage and is a success, not a usage error
		}
		return 2
	}
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "htiersim: "+format+"\n", args...)
		return code
	}
	flagWasSet := func(name string) bool {
		set := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == name {
				set = true
			}
		})
		return set
	}

	if *traceInfo != "" {
		return printTraceInfo(stdout, stderr, *traceInfo)
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:")
		for _, name := range hybridtier.DefaultWorkloads().Names() {
			e, _ := hybridtier.DefaultWorkloads().Lookup(name)
			fmt.Fprintf(stdout, "  %-14s %s\n", name, e.Doc)
		}
		fmt.Fprintln(stdout, "policies:")
		for _, name := range hybridtier.DefaultPolicies().Names() {
			e, _ := hybridtier.DefaultPolicies().Lookup(name)
			doc := e.Doc
			if e.Tracker != "" {
				doc += " [tracker: " + e.Tracker + "]"
			}
			fmt.Fprintf(stdout, "  %-20s %s\n", name, doc)
		}
		fmt.Fprintln(stdout, "trackers (access observation, docs/TRACKERS.md; -tracker forces one, Policy@tracker pins per policy):")
		for _, t := range hybridtier.TrackerList() {
			fmt.Fprintf(stdout, "  %-10s %s\n", t[0], t[1])
		}
		fmt.Fprintln(stdout, "composition (combine workloads into one -workload spec, docs/COMPOSITION.md):")
		for _, line := range hybridtier.WorkloadSpecSyntax() {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
		fmt.Fprintln(stdout, "experiments (paper tables and figures; -experiment runs them at -scale):")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "tiny":
		scale = experiments.Tiny
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fail(2, "unknown scale %q (want tiny, quick, or full)", *scaleFlag)
	}

	if *experiment != "" {
		return runExperiments(stdout, stderr, *experiment, scale)
	}

	if err := hybridtier.ValidateTracker(*trackerFlag); err != nil {
		return fail(2, "%v", err)
	}

	policies := splitPolicies(*policy)
	ratios, err := splitInts(*ratio)
	if err != nil {
		return fail(2, "bad -ratio: %v", err)
	}
	seeds, err := splitSeeds(*seed)
	if err != nil {
		return fail(2, "bad -seed: %v", err)
	}

	if *submit != "" {
		if *record != "" || *replay != "" {
			return fail(2, "-record and -replay name local files; they conflict with -submit")
		}
		params := scale.Params(0) // the seed field is per-cell; canonicalization zeroes it
		spec := hybridtier.SweepSpec{
			Workload: *workload,
			Params:   &params,
			Policies: policies,
			Ratios:   ratios,
			Seeds:    seeds,
			Ops:      *ops,
			Huge:     *huge,
			Cache:    *cache,
			Tracker:  *trackerFlag,
		}
		// A local trace:<path> cannot run on the daemon (the path means
		// nothing there, and paths are not content-addressable) — but its
		// BYTES are. Upload the file into the daemon's corpus and submit
		// the spec as corpus:<hash>, which caches soundly.
		if path, ok := strings.CutPrefix(*workload, registry.TraceScheme); ok {
			hash, recordedOps, code := uploadTrace(*submit, path, stderr)
			if code != 0 {
				return code
			}
			spec.Workload = registry.CorpusScheme + hash
			spec.Params = nil // a replay is literal; params size only generators
			if !flagWasSet("ops") {
				// Match the local replay default: the recorded length, not
				// the generator default the flag carries.
				spec.Ops = recordedOps
			}
		}
		return submitToDaemon(*submit, spec, *jsonOut, *series, *ratio, *huge, *cache, stdout, stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	single := len(policies) == 1 && len(ratios) == 1 && len(seeds) == 1
	// -replay and the "trace:<path>" workload-name form are the same
	// thing; normalize so both get the replay defaults.
	tracePath := *replay
	if tracePath == "" {
		if p, ok := strings.CutPrefix(*workload, registry.TraceScheme); ok {
			tracePath = p
		}
	} else if flagWasSet("workload") {
		return fail(2, "-workload and -replay conflict: the trace file is the workload")
	}
	workloadOpt := hybridtier.WithWorkloadName(*workload)
	if tracePath != "" {
		workloadOpt = hybridtier.WithTraceFile(tracePath)
	} else if err := hybridtier.ValidateWorkload(*workload); err != nil {
		// A bad name or malformed composition spec fails here, before any
		// simulation starts, with the parser's diagnosis.
		return fail(2, "%v", err)
	}

	base := []hybridtier.Option{
		workloadOpt,
		hybridtier.WithWorkloadParams(scale.Params(seeds[0])),
		hybridtier.WithHugePages(*huge),
		hybridtier.WithCacheModel(*cache),
		hybridtier.WithTracker(*trackerFlag),
	}
	// For a trace the library defaults to the recorded length (a longer
	// replay would wrap around to the trace's start), so the flag default
	// must not override it; pass -ops only when the user chose a length.
	if tracePath == "" || flagWasSet("ops") {
		base = append(base, hybridtier.WithOps(*ops))
	}

	sw := &hybridtier.Sweep{
		Policies: policies,
		Ratios:   ratios,
		Seeds:    seeds,
		Workers:  *workers,
		Base:     base,
	}
	if *record != "" {
		if !single {
			return fail(2, "-record needs a single policy/ratio/seed cell, not a sweep")
		}
		sw.Base = append(sw.Base, hybridtier.WithRecordTo(*record))
	}
	if !single && !*jsonOut {
		sw.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\rhtiersim: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	cells, err := sw.Run(ctx)
	if err != nil && len(cells) == 0 {
		return fail(1, "%v", err)
	}
	failed := 0
	for _, c := range cells {
		if c.Err != "" {
			failed++
			fmt.Fprintf(stderr, "htiersim: %s 1:%d seed %d: %s\n", c.Policy, c.Ratio, c.Seed, c.Err)
		}
	}

	// Completed cells are always emitted, even when some failed: JSON
	// carries per-cell errors in its "error" field, the table prints the
	// successful rows.
	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cells); err != nil {
			return fail(1, "%v", err)
		}
	case single:
		if failed == 0 {
			printSingle(stdout, cells[0], *ratio, *huge, *cache, *series)
		}
	default:
		printSweep(stdout, cells)
	}
	if err != nil {
		return fail(1, "%v", err)
	}
	if failed > 0 {
		return fail(1, "%d of %d cells failed", failed, len(cells))
	}
	return 0
}

// runExperiments regenerates the named paper tables and figures ("all":
// every registered one) at the given scale, one aligned text table each.
// Ctrl-C cancels the in-flight experiment.
func runExperiments(stdout, stderr io.Writer, ids string, scale experiments.Scale) int {
	var todo []experiments.Experiment
	if ids == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(ids, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "htiersim: unknown experiment %q (use -list)\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(stdout, "HybridTier reproduction — scale %s, %d experiment(s)\n\n", scale.Name, len(todo))
	start := time.Now()
	for _, e := range todo {
		t0 := time.Now()
		tbl, err := e.Run(ctx, scale)
		if err != nil {
			fmt.Fprintf(stderr, "htiersim: %s failed: %v\n", e.ID, err)
			return 1
		}
		tbl.Fprint(stdout)
		fmt.Fprintf(stdout, "  (%s in %.1fs)\n\n", e.ID, time.Since(t0).Seconds())
	}
	fmt.Fprintf(stdout, "total: %.1fs\n", time.Since(start).Seconds())
	return 0
}

// printSingle renders one run in the traditional htiersim format.
func printSingle(w io.Writer, c hybridtier.CellResult, ratio string, huge, cache, series bool) {
	res := c.Result
	numPages := int(res.Mem.FastAllocs + res.Mem.SlowAllocs)
	fmt.Fprintf(w, "workload      %s\n", res.Workload)
	fmt.Fprintf(w, "policy        %s\n", res.Policy)
	fmt.Fprintf(w, "fast tier     1:%s split (huge pages: %v)\n", ratio, huge)
	fmt.Fprintf(w, "ops           %d in %.1f virtual ms\n", res.Ops, float64(res.ElapsedNs)/1e6)
	fmt.Fprintf(w, "latency       p50 %d ns   mean %.0f ns   p99 %d ns\n",
		res.MedianLatNs, res.MeanLatNs, res.P99LatNs)
	fmt.Fprintf(w, "throughput    %.2f Mop/s\n", res.ThroughputMops)
	fmt.Fprintf(w, "migrations    %d promoted, %d demoted (%d failed promos)\n",
		res.Mem.Promotions, res.Mem.Demotions, res.Mem.FailedPromos)
	trk := res.Tracker
	if trk == "" {
		trk = "pebs"
	}
	fmt.Fprintf(w, "sampling      %d samples of %d accesses (%d dropped) via %s\n",
		res.Pebs.Sampled, res.Pebs.Accesses, res.Pebs.Dropped, trk)
	fmt.Fprintf(w, "faults        %d hint faults\n", res.Faults)
	if numPages > 0 {
		fmt.Fprintf(w, "metadata      %.1f KB (%.4f%% of touched footprint)\n",
			float64(res.MetadataBytes)/1024,
			100*float64(res.MetadataBytes)/(float64(numPages)*float64(mem.RegularPageBytes)))
	} else {
		fmt.Fprintf(w, "metadata      %.1f KB\n", float64(res.MetadataBytes)/1024)
	}
	fmt.Fprintf(w, "tiering busy  %.2f virtual ms\n", res.TieringBusyNs/1e6)
	if cache {
		fmt.Fprintf(w, "cache         tiering share of misses: L1 %.1f%%  LLC %.1f%%\n",
			100*res.L1.TieringMissFraction(), 100*res.LLC.TieringMissFraction())
	}
	if series {
		fmt.Fprintln(w, "\ntime(ms)  p50(ns)  mean(ns)  slow-share")
		for i, pt := range res.Series {
			slow := ""
			if i < len(res.SlowSeries) {
				slow = fmt.Sprintf("%.1f%%", res.SlowSeries[i].Mean/10)
			}
			fmt.Fprintf(w, "%8.0f  %7d  %8.0f  %s\n",
				float64(pt.Time)/1e6, pt.Median, pt.Mean, slow)
		}
	}
}

// printSweep renders a sweep as one aligned row per completed cell.
func printSweep(w io.Writer, cells []hybridtier.CellResult) {
	fmt.Fprintf(w, "%-20s %-6s %-6s %9s %10s %8s %10s %10s\n",
		"policy", "ratio", "seed", "p50(ns)", "mean(ns)", "Mop/s", "promoted", "demoted")
	for _, c := range cells {
		if c.Result == nil {
			continue // failure already reported on stderr
		}
		r := c.Result
		fmt.Fprintf(w, "%-20s 1:%-4d %-6d %9d %10.0f %8.2f %10d %10d\n",
			c.Policy, c.Ratio, c.Seed, r.MedianLatNs, r.MeanLatNs,
			r.ThroughputMops, r.Mem.Promotions, r.Mem.Demotions)
	}
}

func splitPolicies(s string) []hybridtier.PolicyName {
	var out []hybridtier.PolicyName
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, hybridtier.PolicyName(p))
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			v, err := strconv.Atoi(p)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func splitSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			v, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// printTraceInfo renders a trace file's header and stream summary. A
// truncated or corrupt body still prints what was decodable, then exits
// nonzero with the error.
func printTraceInfo(stdout, stderr io.Writer, path string) int {
	info, err := tracefile.Stat(path)
	// The format requires numPages >= 1, so a zero value means the header
	// never parsed and there is nothing to print.
	if err != nil && info.NumPages == 0 {
		fmt.Fprintf(stderr, "htiersim: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "file           %s\n", path)
	fmt.Fprintf(stdout, "workload       %s\n", info.Name)
	fmt.Fprintf(stdout, "pages          %d (%.1f MB at 4 KB)\n",
		info.NumPages, float64(info.NumPages)*float64(mem.RegularPageBytes)/(1<<20))
	fmt.Fprintf(stdout, "seed           %d\n", info.Seed)
	fmt.Fprintf(stdout, "format         v%d\n", info.Version)
	fmt.Fprintf(stdout, "compressed     %v\n", info.Compressed)
	fmt.Fprintf(stdout, "shift-capable  %v\n", info.Shift)
	fmt.Fprintf(stdout, "ops            %d (%d page accesses)\n", info.Ops, info.Accesses)
	if info.EndNs >= 0 {
		fmt.Fprintf(stdout, "virtual end    %.1f ms\n", float64(info.EndNs)/1e6)
	}
	if info.Shifts > 0 {
		fmt.Fprintf(stdout, "shifts         %d (last at %.1f virtual ms)\n",
			info.Shifts, float64(info.ShiftNs)/1e6)
	}
	fmt.Fprintf(stdout, "clean end      %v\n", info.Clean)
	if err != nil {
		fmt.Fprintf(stderr, "htiersim: %v\n", err)
		return 1
	}
	return 0
}
