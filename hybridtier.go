// Package hybridtier is the public facade of this repository's Go
// reproduction of "HybridTier: an Adaptive and Lightweight CXL-Memory
// Tiering System" (ASPLOS 2025). It is built around two composable,
// registry-backed concepts:
//
//   - an Experiment: one workload × one policy × one capacity split,
//     configured with functional options and run under a context.Context,
//     and
//   - a Sweep: the cross product of policies × ratios × seeds, executed
//     concurrently across cores by a worker pool with deterministic
//     per-cell seeding, so results are identical regardless of the worker
//     count.
//
// Policies and workloads are resolved by name through the process-wide
// registries (DefaultPolicies, DefaultWorkloads). The built-in systems and
// the paper's twelve evaluation workloads self-register from their
// packages; external packages can register their own entries and every
// consumer — the experiment harness, the CLIs, sweeps — picks them up.
//
// Any run can be captured to a trace file and replayed as a first-class
// workload: WithRecordTo tees the op stream to disk without perturbing the
// run, WithTraceFile (or the "trace:<path>" workload name) replays a
// capture, and replaying under the recorded policy/ratio/seed reproduces
// the live run's sweep JSON byte for byte. The on-disk format is specified
// in docs/TRACE_FORMAT.md so traces can be produced by external tools.
//
// Quick start:
//
//	res, err := hybridtier.NewExperiment(
//	    hybridtier.WithWorkloadName("cdn"),
//	    hybridtier.WithPolicy(hybridtier.PolicyHybridTier),
//	    hybridtier.WithRatio(8), // fast:slow = 1:8
//	    hybridtier.WithOps(1_000_000),
//	).Run(context.Background())
//
// Sweeping the paper's comparison concurrently:
//
//	cells, err := (&hybridtier.Sweep{
//	    Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, hybridtier.PolicyMemtis},
//	    Ratios:   []int{16, 8, 4},
//	    Seeds:    []uint64{1, 2, 3},
//	    Base:     []hybridtier.Option{hybridtier.WithWorkloadName("cdn")},
//	}).Run(ctx)
//
// For full control construct core.Config / sim.Config directly; the types
// returned here are the same ones the internal packages define.
package hybridtier

import (
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/trace"

	"repro/internal/mem"
)

// PolicyName selects a tiering system by registry name.
type PolicyName string

// Named systems of the paper (§5.2); Policies lists every registered one,
// and any registered name converts to a PolicyName.
const (
	PolicyHybridTier PolicyName = "HybridTier"
	PolicyMemtis     PolicyName = "Memtis"
	PolicyAutoNUMA   PolicyName = "AutoNUMA"
	PolicyTPP        PolicyName = "TPP"
	PolicyFirstTouch PolicyName = "FirstTouch"
)

// Policies lists every registered policy name, sorted.
func Policies() []PolicyName {
	names := registry.Policies.Names()
	out := make([]PolicyName, len(names))
	for i, n := range names {
		out[i] = PolicyName(n)
	}
	return out
}

// Workload is the access-stream interface workloads implement
// (trace.Source re-exported).
type Workload = trace.Source

// Result is a simulation outcome (sim.Result re-exported). Its JSON shape
// is stable: snake_case keys, fields only appended.
type Result = sim.Result

// NewPolicy constructs the named policy through the policy registry for a
// page space of numPages with a fast tier of fastPages, returning the
// policy and the first-touch allocation mode the paper's methodology
// prescribes for it.
func NewPolicy(name PolicyName, numPages, fastPages int, huge bool) (tier.Policy, mem.AllocMode, error) {
	return registry.Policies.New(string(name), numPages, fastPages, huge)
}

// tierCapacity computes the policy-granularity page space and fast-tier
// capacity for a 1:ratio fast:slow split over a 4 KB-page footprint,
// shared by every path that sizes a simulation.
func tierCapacity(numPages, ratio int, huge bool) (polPages, polFast int) {
	fast := numPages / (ratio + 1)
	if fast < 16 {
		fast = 16
	}
	polPages, polFast = numPages, fast
	if huge {
		polPages = (numPages + 511) / 512
		polFast = fast / 512
		if polFast < 4 {
			polFast = 4
		}
	}
	return polPages, polFast
}

// ShiftingZipf returns a single-page-per-op workload with Zipf(s)
// popularity over n pages and a one-time rotation of frac of the hot set
// after shiftAfterOps operations (the §2.3.2 adaptation scenario).
func ShiftingZipf(name string, n int, s float64, seed uint64, shiftAfterOps int64, frac float64) Workload {
	return trace.NewShiftingZipfSource(name, n, s, seed, shiftAfterOps, frac)
}
