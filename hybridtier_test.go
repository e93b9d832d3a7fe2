package hybridtier

import (
	"context"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func TestSimulateDefaults(t *testing.T) {
	w := trace.NewZipfSource("t", 4096, 1.0, 0, 1)
	res, err := NewExperiment(WithWorkload(w), WithOps(50_000)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "HybridTier" {
		t.Errorf("default policy = %q", res.Policy)
	}
	if res.Ops != 50_000 || res.MedianLatNs <= 0 {
		t.Errorf("bad result: %+v", res)
	}
}

func TestSimulateRequiresWorkload(t *testing.T) {
	if _, err := NewExperiment().Run(context.Background()); err == nil {
		t.Error("missing workload must fail")
	}
}

func TestSimulateUnknownPolicy(t *testing.T) {
	w := trace.NewZipfSource("t", 1024, 1.0, 0, 1)
	if _, err := NewExperiment(WithWorkload(w), WithPolicy("nope"), WithOps(100)).Run(context.Background()); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestEveryPolicySimulates(t *testing.T) {
	for _, name := range Policies() {
		w := trace.NewZipfSource("t", 4096, 1.0, 0, 1)
		res, err := NewExperiment(WithWorkload(w), WithPolicy(name), WithOps(30_000)).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ElapsedNs <= 0 {
			t.Errorf("%s: zero elapsed time", name)
		}
	}
}

func TestSimulateHugePages(t *testing.T) {
	w := trace.NewZipfSource("t", 1<<15, 1.0, 0, 1)
	res, err := NewExperiment(WithWorkload(w), WithHugePages(true), WithOps(30_000)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// At 2 MB granularity the page space shrinks 512×, so the fast tier is
	// tiny but the run must still work and migrate.
	if res.FastFinal > 1<<15/512+16 {
		t.Errorf("huge-page fast tier too large: %d", res.FastFinal)
	}
}

func TestShiftingZipfFacade(t *testing.T) {
	w := ShiftingZipf("t", 4096, 1.0, 1, 20_000, 0.5)
	res, err := NewExperiment(WithWorkload(w), WithOps(60_000)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ShiftNs < 0 {
		t.Error("shift should have fired and been recorded")
	}
}

func TestNewPolicyAllocModes(t *testing.T) {
	// §5.2: ARC and TwoQ start with everything in the slow tier.
	for _, name := range []PolicyName{"ARC", "TwoQ", "LRU"} {
		_, alloc, err := NewPolicy(name, 1024, 128, false)
		if err != nil {
			t.Fatal(err)
		}
		if alloc != mem.AllocSlow {
			t.Errorf("%s: alloc = %v, want AllocSlow", name, alloc)
		}
	}
	_, alloc, err := NewPolicy("AllFast", 1024, 128, false)
	if err != nil {
		t.Fatal(err)
	}
	if alloc != mem.AllocFast {
		t.Error("AllFast must use AllocFast")
	}
}
