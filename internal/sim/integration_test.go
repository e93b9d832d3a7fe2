package sim

import (
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/workloads/cachelib"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/silo"
	"repro/internal/workloads/speccpu"
	"repro/internal/workloads/xgboost"
)

// miniWorkloads builds small instances of every workload family.
func miniWorkloads(t *testing.T) []trace.Source {
	t.Helper()
	cdn := cachelib.CDN(1)
	cdn.Objects = 1000
	cl, err := cachelib.New(cdn)
	if err != nil {
		t.Fatal(err)
	}
	db, err := silo.New(silo.Config{Records: 1 << 13, Mix: silo.YCSBB, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bw := speccpu.Bwaves(1)
	bw.Cells = 1 << 13
	xgb := xgboost.Default(1)
	xgb.Rows = 1 << 14
	xgb.Features = 8
	tr, err := xgboost.New(xgb)
	if err != nil {
		t.Fatal(err)
	}
	return []trace.Source{
		cl,
		gap.NewSourceFromGraph(gap.BFS, gap.Kronecker(10, 6, 1), "bfs", 1),
		gap.NewSourceFromGraph(gap.PR, gap.UniformRandom(10, 6, 1), "pr", 1),
		speccpu.New(bw),
		db,
		tr,
	}
}

// policyFactories builds every policy family for a given layout.
func policyFactories(numPages, fast int) map[string]func() tier.Policy {
	return map[string]func() tier.Policy{
		"HybridTier": func() tier.Policy { return hybridFor(fast) },
		"Memtis": func() tier.Policy {
			return baselines.NewMemtis(baselines.DefaultMemtisConfig(numPages, fast))
		},
		"AutoNUMA": func() tier.Policy {
			return baselines.NewAutoNUMA(baselines.DefaultAutoNUMAConfig(numPages))
		},
		"TPP":  func() tier.Policy { return baselines.NewTPP(numPages) },
		"ARC":  func() tier.Policy { return baselines.NewARC(numPages, fast) },
		"TwoQ": func() tier.Policy { return baselines.NewTwoQ(numPages, fast) },
	}
}

// TestEveryWorkloadEveryPolicy is the cross-product integration sweep: each
// workload family through each policy family, asserting the run completes,
// capacity is respected, and basic accounting is self-consistent.
func TestEveryWorkloadEveryPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	for _, w := range miniWorkloads(t) {
		numPages := w.NumPages()
		fast := numPages / 9
		if fast < 16 {
			fast = 16
		}
		for name, mk := range policyFactories(numPages, fast) {
			t.Run(fmt.Sprintf("%s/%s", family(w), name), func(t *testing.T) {
				cfg := DefaultConfig(freshClone(t, w), mk(), fast)
				cfg.Ops = 30_000
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.FastFinal > fast {
					t.Errorf("fast tier over capacity: %d > %d", res.FastFinal, fast)
				}
				if res.ElapsedNs <= 0 || res.MeanLatNs <= 0 {
					t.Error("degenerate timing")
				}
				if res.Mem.Demotions > 0 && res.Mem.Promotions == 0 &&
					res.Mem.FastAllocs == 0 {
					t.Error("demotions without anything ever in the fast tier")
				}
			})
		}
	}
}

// family names a mini workload's family: its Name, but "silo" for the
// silo DB, whose Name reports its YCSB mix.
func family(w trace.Source) string {
	if _, ok := w.(*silo.DB); ok {
		return "silo"
	}
	return w.Name()
}

// freshClone rebuilds a workload of the same family so each policy sees an
// identical, unconsumed stream.
func freshClone(t *testing.T, w trace.Source) trace.Source {
	t.Helper()
	switch family(w) {
	case "cachelib-cdn":
		cdn := cachelib.CDN(1)
		cdn.Objects = 1000
		c, err := cachelib.New(cdn)
		if err != nil {
			t.Fatal(err)
		}
		return c
	case "bfs":
		return gap.NewSourceFromGraph(gap.BFS, gap.Kronecker(10, 6, 1), "bfs", 1)
	case "pr":
		return gap.NewSourceFromGraph(gap.PR, gap.UniformRandom(10, 6, 1), "pr", 1)
	case "spec-bwaves":
		bw := speccpu.Bwaves(1)
		bw.Cells = 1 << 13
		return speccpu.New(bw)
	case "silo":
		db, err := silo.New(silo.Config{Records: 1 << 13, Mix: silo.YCSBB, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return db
	case "xgboost":
		xgb := xgboost.Default(1)
		xgb.Rows = 1 << 14
		xgb.Features = 8
		tr, err := xgboost.New(xgb)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	default:
		t.Fatalf("unknown workload %q", w.Name())
		return nil
	}
}

// TestHugePageGranularity runs the 2 MB mode end to end on a real workload.
func TestHugePageGranularity(t *testing.T) {
	cdn := cachelib.CDN(1)
	cdn.Objects = 4000
	w, err := cachelib.New(cdn)
	if err != nil {
		t.Fatal(err)
	}
	hugePages := (w.NumPages() + 511) / 512
	fast := hugePages / 9
	if fast < 4 {
		fast = 4
	}
	ccfg := core.DefaultConfig(fast)
	ccfg.CounterBits = 16 // §4.4
	p := newHybridTier(ccfg)
	cfg := DefaultConfig(w, p, fast)
	cfg.PageBytes = 2 << 20
	cfg.Ops = 60_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastFinal > fast {
		t.Errorf("huge-page fast tier over capacity: %d > %d", res.FastFinal, fast)
	}
	if res.Pebs.Sampled == 0 {
		t.Error("huge-page sampling inactive")
	}
}
