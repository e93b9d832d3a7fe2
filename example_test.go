package hybridtier_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	hybridtier "repro"
)

// ExampleNewExperiment runs one registry-resolved workload under one
// policy at a 1:8 fast:slow split — the smallest complete use of the
// public API.
func ExampleNewExperiment() {
	res, err := hybridtier.NewExperiment(
		hybridtier.WithWorkloadName("zipf"),
		hybridtier.WithWorkloadParams(hybridtier.WorkloadParams{Pages: 1 << 13}),
		hybridtier.WithPolicy(hybridtier.PolicyHybridTier),
		hybridtier.WithRatio(8),
		hybridtier.WithOps(50_000),
		hybridtier.WithSeed(7),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Policy, res.Ops, res.Mem.Promotions > 0)
	// Output: HybridTier 50000 true
}

// ExampleNewExperiment_withTraceFile captures a run's op stream to a trace
// file (docs/TRACE_FORMAT.md), then replays the file as the workload. The
// replayed run reproduces the live one exactly — same workload label, same
// latencies — because the trace replays the identical access stream.
func ExampleNewExperiment_withTraceFile() {
	dir, err := os.MkdirTemp("", "htrc")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.htrc")

	opts := func(extra ...hybridtier.Option) []hybridtier.Option {
		return append([]hybridtier.Option{
			hybridtier.WithWorkloadName("zipf"),
			hybridtier.WithWorkloadParams(hybridtier.WorkloadParams{Pages: 1 << 13}),
			hybridtier.WithOps(50_000),
			hybridtier.WithSeed(7),
		}, extra...)
	}
	live, err := hybridtier.NewExperiment(opts(hybridtier.WithRecordTo(path))...).
		Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	replay, err := hybridtier.NewExperiment(opts(hybridtier.WithTraceFile(path))...).
		Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(replay.Workload == live.Workload &&
		replay.MedianLatNs == live.MedianLatNs &&
		replay.ElapsedNs == live.ElapsedNs)
	// Output: true
}

// ExampleSweep runs a policy comparison as one concurrent sweep; per-cell
// seeding keeps the results identical regardless of the worker count.
func ExampleSweep() {
	cells, err := (&hybridtier.Sweep{
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, hybridtier.PolicyFirstTouch},
		Ratios:   []int{8},
		Seeds:    []uint64{3},
		Base: []hybridtier.Option{
			hybridtier.WithWorkloadName("zipf"),
			hybridtier.WithWorkloadParams(hybridtier.WorkloadParams{Pages: 1 << 13}),
			hybridtier.WithOps(50_000),
		},
	}).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cells {
		fmt.Println(c.Policy, c.Err == "" && c.Result.Ops == 50_000)
	}
	// Output:
	// HybridTier true
	// FirstTouch true
}

// ExampleDefaultWorkloads shows registry listing: every name accepted by
// WithWorkloadName (and htiersim -workload) comes from these tables, and
// external packages can Register their own entries.
func ExampleDefaultWorkloads() {
	workloads := hybridtier.DefaultWorkloads()
	for _, name := range []string{"cdn", "bfs-kron", "zipf"} {
		_, ok := workloads.Lookup(name)
		fmt.Println(name, ok)
	}
	_, ok := hybridtier.DefaultPolicies().Lookup(string(hybridtier.PolicyHybridTier))
	fmt.Println("HybridTier", ok)
	// Output:
	// cdn true
	// bfs-kron true
	// zipf true
	// HybridTier true
}

// ExampleNewExperiment_withWorkload runs HybridTier over a caller-built
// skewed workload that rotates half its hot set halfway through, at a 1:8
// fast:slow capacity split, and checks that hot pages were promoted into the
// fast tier.
func ExampleNewExperiment_withWorkload() {
	res, err := hybridtier.NewExperiment(
		hybridtier.WithWorkload(hybridtier.ShiftingZipf("example", 1<<14, 1.0, 7, 50_000, 0.5)),
		hybridtier.WithPolicy(hybridtier.PolicyHybridTier),
		hybridtier.WithRatio(8),
		hybridtier.WithOps(100_000),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Policy, res.Mem.Promotions > 0)
	// Output: HybridTier true
}
