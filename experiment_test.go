package hybridtier

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestExperimentDefaults(t *testing.T) {
	e := NewExperiment(WithWorkload(trace.NewZipfSource("t", 4096, 1.0, 0, 1)))
	if e.policy != PolicyHybridTier || e.ratio != 8 || e.ops != 1_000_000 || e.seed != 1 {
		t.Errorf("defaults = %+v", e)
	}
	// Zero-valued options fall back to the same defaults.
	e = NewExperiment(WithRatio(0), WithOps(0), WithSeed(0), WithPolicy(""))
	if e.policy != PolicyHybridTier || e.ratio != 8 || e.ops != 1_000_000 || e.seed != 1 {
		t.Errorf("zero-valued options must normalize, got %+v", e)
	}
}

func TestExperimentRequiresWorkload(t *testing.T) {
	_, err := NewExperiment().Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "workload") {
		t.Errorf("missing workload must fail usefully, got %v", err)
	}
}

func TestExperimentUnknownNames(t *testing.T) {
	_, err := NewExperiment(
		WithWorkloadName("no-such-workload"), WithOps(100),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Errorf("unknown workload must fail with its name, got %v", err)
	}
	_, err = NewExperiment(
		WithWorkload(trace.NewZipfSource("t", 1024, 1.0, 0, 1)),
		WithPolicy("no-such-policy"), WithOps(100),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Errorf("unknown policy must fail with its name, got %v", err)
	}
}

func TestExperimentRegistryWorkload(t *testing.T) {
	res, err := NewExperiment(
		WithWorkloadName("zipf"),
		WithWorkloadParams(WorkloadParams{Pages: 4096}),
		WithOps(50_000),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "HybridTier" || res.Ops != 50_000 {
		t.Errorf("bad result: policy=%q ops=%d", res.Policy, res.Ops)
	}
}

// TestExperimentCancellation cancels mid-run from the workload's fetch and
// expects a prompt partial-result error.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const ops = 2_000_000
	_, err := NewExperiment(
		WithWorkload(&fetchCapSource{
			BatchSource: trace.AsBatchSource(trace.NewZipfSource("t", 1<<14, 1.0, 0, 1)),
			limit:       math.MaxInt,
			cancelAt:    1 << 16,
			cancel:      cancel,
		}),
		WithOps(ops),
	).Run(ctx)
	if err == nil {
		t.Fatal("canceled run must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error must wrap context.Canceled: %v", err)
	}
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error must be a *sim.CanceledError: %v", err)
	}
	if ce.OpsDone <= 0 || ce.OpsDone >= ops {
		t.Errorf("cancellation should land mid-run, OpsDone = %d of %d", ce.OpsDone, ops)
	}
}

func TestPoliciesListsRegistry(t *testing.T) {
	names := Policies()
	if len(names) < 11 {
		t.Fatalf("expected at least the paper's 11 policies, got %d: %v", len(names), names)
	}
	seen := map[PolicyName]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []PolicyName{
		PolicyHybridTier, "HybridTier-CBF", "HybridTier-onlyFreq",
		PolicyMemtis, PolicyAutoNUMA, PolicyTPP, "ARC", "TwoQ",
		"LRU", PolicyFirstTouch, "AllFast",
	} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestWorkloadRegistryListsPaperWorkloads(t *testing.T) {
	names := DefaultWorkloads().Names()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{
		"cdn", "social", "bfs-kron", "bfs-urand", "cc-kron", "cc-urand",
		"pr-kron", "pr-urand", "bwaves", "roms", "silo", "xgboost",
		"zipf", "shifting-zipf",
	} {
		if !seen[want] {
			t.Errorf("workload registry missing %q (have %v)", want, names)
		}
	}
}

func TestWithMixRunsAndRemapsTenants(t *testing.T) {
	res, err := NewExperiment(
		WithWorkloadName("mix:0.7*zipf,0.3*zipf"),
		WithWorkloadParams(WorkloadParams{Pages: 1 << 10, Skew: 1.0}),
		WithOps(5_000),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Two 1024-page tenants allocate out of a combined 2048-page space.
	if total := res.Mem.FastAllocs + res.Mem.SlowAllocs; total > 2048 || total <= 1024 {
		t.Errorf("composed footprint touched %d pages, want within (1024, 2048]", total)
	}
	if !strings.HasPrefix(res.Workload, "mix(") {
		t.Errorf("result workload %q does not carry the composed name", res.Workload)
	}
}

func TestWithPhasesRuns(t *testing.T) {
	res, err := NewExperiment(
		WithWorkloadName("phases:zipf@2000,zipf"),
		WithWorkloadParams(WorkloadParams{Pages: 1 << 10, Skew: 1.0}),
		WithOps(5_000),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Workload, "phases(") {
		t.Errorf("result workload %q does not carry the composed name", res.Workload)
	}
}

func TestWithPhasesBadFinalStageFailsAtRun(t *testing.T) {
	_, err := NewExperiment(
		WithWorkloadName("phases:zipf@2000,zipf@10"),
		WithOps(1_000),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "final phase") {
		t.Errorf("final stage with an op count must fail usefully, got %v", err)
	}
}

func TestValidateWorkload(t *testing.T) {
	if err := ValidateWorkload("mix:0.7*cdn,0.3*silo"); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := ValidateWorkload("mix:0.7*cdn,0.3*nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("invalid spec must name the unknown tenant, got %v", err)
	}
}
