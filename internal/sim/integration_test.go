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

// miniWorkloads names a builder of a small instance of every workload
// family; each call builds an identical, unconsumed stream.
var miniWorkloads = []struct {
	name  string
	build func() (trace.Source, error)
}{
	{"cachelib-cdn", func() (trace.Source, error) {
		cdn := cachelib.CDN(1)
		cdn.Objects = 1000
		return cachelib.New(cdn)
	}},
	{"bfs", func() (trace.Source, error) {
		return gap.NewSourceFromGraph(gap.BFS, gap.Kronecker(10, 6, 1), "bfs", 1), nil
	}},
	{"pr", func() (trace.Source, error) {
		return gap.NewSourceFromGraph(gap.PR, gap.UniformRandom(10, 6, 1), "pr", 1), nil
	}},
	{"spec-bwaves", func() (trace.Source, error) {
		bw := speccpu.Bwaves(1)
		bw.Cells = 1 << 13
		return speccpu.New(bw), nil
	}},
	{"silo", func() (trace.Source, error) { return silo.New(silo.Config{Records: 1 << 13, Seed: 1}) }},
	{"xgboost", func() (trace.Source, error) {
		xgb := xgboost.Default(1)
		xgb.Rows = 1 << 14
		xgb.Features = 8
		return xgboost.New(xgb)
	}},
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
	for _, mw := range miniWorkloads {
		w, err := mw.build()
		if err != nil {
			t.Fatal(err)
		}
		numPages := w.NumPages()
		fast := numPages / 9
		if fast < 16 {
			fast = 16
		}
		for name, mk := range policyFactories(numPages, fast) {
			t.Run(fmt.Sprintf("%s/%s", mw.name, name), func(t *testing.T) {
				w, err := mw.build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(w, mk(), fast)
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
