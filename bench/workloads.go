package main

import (
	"fmt"

	hybridtier "repro"
)

type policyName = hybridtier.PolicyName

// sizing scales the benchmark down for the smoke pass (bench tests): the
// same code paths, cells too small to mean anything. The real benchmark
// always runs with the zero value; job sizes are never tuned to fit a time
// budget, only iteration counts are.
type sizing struct{ smoke bool }

// params are the quick-scale workload parameters, spelled out so a change
// to a scale preset elsewhere in the repository cannot move the benchmark.
func (z sizing) params() *hybridtier.WorkloadParams {
	p := hybridtier.WorkloadParams{
		CacheObjects: 4_000, GraphScale: 13, GraphDegree: 8, Cells: 1 << 16,
		Records: 1 << 15, Rows: 1 << 17, Features: 32, Pages: 1 << 16,
	}
	if z.smoke {
		p = hybridtier.WorkloadParams{
			CacheObjects: 500, GraphScale: 9, GraphDegree: 4, Cells: 1 << 10,
			Records: 1 << 10, Rows: 1 << 10, Features: 8, Pages: 1 << 10,
		}
	}
	return &p
}

func (z sizing) ops(n int64) int64 {
	if z.smoke {
		return 10_000
	}
	return n
}

// warmSpecs is how many results daemon_warm pre-populates; blockRequests is
// the length of one iteration of its request sequence.
func (z sizing) warmSpecs() int {
	if z.smoke {
		return 6
	}
	return 64
}

func (z sizing) blockRequests() int {
	if z.smoke {
		return 60
	}
	return 2000
}

// job is one unit a user submits and waits for: a sweep spec, or (in-process
// only) a sweep over a recorded trace file.
type job struct {
	// name keys the job in golden.json and tags its spans.
	name string
	spec hybridtier.SweepSpec
	// replay, when set, makes this a trace-file replay: spec then carries
	// only Policies/Ratios/Seeds, and the path is filled in by set-up.
	replay bool
	path   string
}

func (j job) sweep() (*hybridtier.Sweep, error) {
	if !j.replay {
		return j.spec.Sweep()
	}
	return &hybridtier.Sweep{
		Policies: j.spec.Policies, Ratios: j.spec.Ratios, Seeds: j.spec.Seeds,
		Base: []hybridtier.Option{hybridtier.WithTraceFile(j.path), hybridtier.WithOps(j.spec.Ops)},
	}, nil
}

func (j job) cells() int {
	return len(j.spec.Policies) * max(len(j.spec.Ratios), 1) * max(len(j.spec.Seeds), 1)
}

func (j job) ops() int64 { return int64(j.cells()) * j.spec.Ops }

type kind int

const (
	kindLocal kind = iota // in-process Sweep.Run
	kindCold              // daemon(s), never-cached specs
	kindWarm              // daemon, cache hits only
)

type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	kind kind
	// fleet runs the jobs through a coordinator and two workers.
	fleet bool
	// setupReps is how many times set-up is repeated for its median: more
	// for cheap set-ups (a daemon exec is milliseconds and noisy), fewer for
	// daemon_warm's seconds of pre-population.
	setupReps int
	// recordsTrace: set-up records the trace the replay job reads.
	recordsTrace bool
	// jobs lists iteration iter's jobs at the given seed. Local and warm
	// workloads ignore iter.
	jobs func(z sizing, seed uint64, iter int) []job
}

// traceOps is the length of local_clocked's recorded trace.
func (z sizing) traceOps() int64 { return z.ops(500_000) }

func coldJobs(z sizing, seed uint64, iter int) []job {
	k := uint64(iter)
	a := hybridtier.SweepSpec{
		Workload: "cdn", Params: z.params(),
		Policies: []policyName{"HybridTier", "Memtis", "TPP"},
		Ratios:   []int{16, 8, 4, 2}, Seeds: []uint64{seed + 100 + k}, Ops: z.ops(1_000_000),
	}
	b := hybridtier.SweepSpec{
		Workload: "shifting-zipf", Params: z.params(),
		Policies: []policyName{"HybridTier", "Memtis", "TPP", "LRU"},
		Ratios:   []int{8, 4}, Seeds: []uint64{seed + 200 + k}, Ops: z.ops(1_000_000),
	}
	c := a
	c.Policies = []policyName{"HybridTier", "Memtis", "TPP", "ARC"}
	return []job{
		{name: fmt.Sprintf("cold/A/%d", iter), spec: a},
		{name: fmt.Sprintf("cold/B/%d", iter), spec: b},
		{name: fmt.Sprintf("cold/C/%d", iter), spec: c},
	}
}

var workloads = []*workload{
	{
		name: "local_shared", kind: kindLocal, setupReps: 3,
		why: "in-process sweeps of clock-free workloads at one seed: one generated stream, every cell replays packed views, so sim's packed loop and policy callbacks do nearly all the work",
		jobs: func(z sizing, seed uint64, _ int) []job {
			return []job{
				{name: "local_shared/silo", spec: hybridtier.SweepSpec{
					Workload: "silo", Params: z.params(),
					Policies: []policyName{"HybridTier", "HybridTier-onlyFreq", "Memtis", "ARC", "TwoQ", "FirstTouch"},
					Ratios:   []int{16, 8, 4, 2}, Seeds: []uint64{seed}, Ops: z.ops(1_000_000),
				}},
				{name: "local_shared/pr-kron", spec: hybridtier.SweepSpec{
					Workload: "pr-kron", Params: z.params(),
					Policies: []policyName{"HybridTier", "Memtis", "ARC", "FirstTouch"},
					Ratios:   []int{16, 8, 4}, Seeds: []uint64{seed}, Ops: z.ops(300_000),
				}},
			}
		},
	},
	{
		name: "local_clocked", kind: kindLocal, setupReps: 3, recordsTrace: true,
		why: "in-process sweeps nothing can share: per-cell regeneration, AdvanceTime, the unpacked fetch path, fault-driven and recency policies, scanning trackers, v2 trace-file decode",
		jobs: func(z sizing, seed uint64, _ int) []job {
			return []job{
				{name: "local_clocked/shifting-zipf", spec: hybridtier.SweepSpec{
					Workload: "shifting-zipf", Params: z.params(),
					Policies: []policyName{"HybridTier", "Memtis", "TPP", "AutoNUMA", "LRU", "Heat-Idle", "Heat-Dirty"},
					Ratios:   []int{8}, Seeds: []uint64{seed, seed + 1}, Ops: z.ops(1_000_000),
				}},
				{name: "local_clocked/phases", spec: hybridtier.SweepSpec{
					Workload: fmt.Sprintf("phases:social@%d,cdn", z.ops(500_000)/2), Params: z.params(),
					Policies: []policyName{"HybridTier", "TPP", "LRU@idlepage", "Age-Idle"},
					Ratios:   []int{8, 4}, Seeds: []uint64{seed, seed + 1}, Ops: z.ops(500_000),
				}},
				{name: "local_clocked/replay", replay: true, spec: hybridtier.SweepSpec{
					Policies: []policyName{"HybridTier", "Memtis", "TPP", "ARC"},
					Ratios:   []int{8}, Seeds: []uint64{seed}, Ops: z.traceOps(),
				}},
			}
		},
	},
	{
		name: "local_model", kind: kindLocal, setupReps: 3,
		why: "in-process sweeps with the CPU-cache model and with huge pages: cachesim and cbf dominate here and are almost absent elsewhere; huge pages shrink tracker and policy metadata 512x",
		jobs: func(z sizing, seed uint64, _ int) []job {
			return []job{
				{name: "local_model/cache", spec: hybridtier.SweepSpec{
					Workload: "silo", Params: z.params(), Cache: true,
					Policies: []policyName{"HybridTier", "HybridTier-CBF", "Memtis"},
					Ratios:   []int{8}, Seeds: []uint64{seed}, Ops: z.ops(1_000_000),
				}},
				{name: "local_model/huge", spec: hybridtier.SweepSpec{
					Workload: "pr-kron", Params: z.params(), Huge: true,
					Policies: []policyName{"HybridTier", "Memtis", "TPP"},
					Ratios:   []int{8, 4}, Seeds: []uint64{seed}, Ops: z.ops(300_000),
				}},
			}
		},
	},
	{
		name: "daemon_cold", kind: kindCold, setupReps: 15, jobs: coldJobs,
		why: "a real htiersimd, one client, never-cached specs: service decode, jobs queue/journal/write-through, facade marshal/merge and HTTP on top of local_*-like cells; job C resumes a partly cached sweep",
	},
	{
		name: "daemon_warm", kind: kindWarm, setupReps: 2,
		why: "a real htiersimd serving only cache hits (20% POST, 40% GET, 40% conditional GET, Zipf over 64 results, 1 MB memory tier): no simulation runs, so a sim-core change must not move it",
		jobs: func(z sizing, seed uint64, _ int) []job {
			out := make([]job, z.warmSpecs())
			for i := range out {
				out[i] = job{name: fmt.Sprintf("warm/%02d", i), spec: hybridtier.SweepSpec{
					Workload: "cdn", Params: z.params(),
					Policies: []policyName{"HybridTier", "Memtis", "TPP"},
					Ratios:   []int{16, 8, 4, 2}, Seeds: []uint64{seed + 300 + uint64(i)}, Ops: z.ops(100_000),
				}}
			}
			return out
		},
	},
	{
		name: "fleet_cold", kind: kindCold, fleet: true, setupReps: 11, jobs: coldJobs,
		why: "daemon_cold's job list on a coordinator plus two single-cell workers (the same two cores), so the difference is what fabric sharding, per-cell regeneration, commit and merge cost",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
