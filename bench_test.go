// Benchmarks regenerating every measurement table and figure of the
// HybridTier paper (DESIGN.md §3 maps each target to its artifact), plus
// ablation benches for the design choices DESIGN.md §5 calls out.
//
// Each figure/table bench executes its experiment end to end at the Tiny
// scale per iteration, so `go test -bench=.` doubles as a smoke-run of the
// whole harness; htiersim -experiment runs the same experiments at
// quick/full scale.
package hybridtier_test

import (
	"context"
	"testing"

	hybridtier "repro"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(context.Background(), experiments.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// Motivation figures (§2).

func BenchmarkFig02HotnessDecay(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig03aEMALag(b *testing.B)          { benchExperiment(b, "fig3a") }
func BenchmarkFig03bCoolingAccuracy(b *testing.B) { benchExperiment(b, "fig3b") }
func BenchmarkFig04AdaptTimeline(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig05MemtisCacheMiss(b *testing.B)  { benchExperiment(b, "fig5") }

// Evaluation figures (§6).

func BenchmarkFig09CacheLib(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10RelativePerf(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11VsAllFast(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12HugePage(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13HybridCacheMiss(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14CBFBreakdown(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15FreqOnly(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16HotnessCDF(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17MomentumSens(b *testing.B)    { benchExperiment(b, "fig17") }

// Evaluation tables (§6).

func BenchmarkTab3AdaptTime(b *testing.B)        { benchExperiment(b, "tab3") }
func BenchmarkTab4MetadataOverhead(b *testing.B) { benchExperiment(b, "tab4") }
func BenchmarkTab5CBFAccuracy(b *testing.B)      { benchExperiment(b, "tab5") }

// benchSim runs one simulation per iteration with a HybridTier variant.
func benchSim(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	const pages = 1 << 14
	for i := 0; i < b.N; i++ {
		w := trace.NewZipfSource("bench", pages, 1.0, 0.1, 7)
		fast := pages / 9
		ccfg := core.DefaultConfig(fast)
		if mutate != nil {
			mutate(&ccfg)
		}
		p, err := core.New(ccfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultConfig(w, p, fast)
		cfg.Ops = 100_000
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for DESIGN.md §5 design choices.

func BenchmarkAblationBatchSize64(b *testing.B) {
	benchSim(b, func(c *core.Config) { c.PromoBatch = 64 })
}

func BenchmarkAblationBatchSize512(b *testing.B) {
	benchSim(b, func(c *core.Config) { c.PromoBatch = 512 })
}

func BenchmarkAblationBatchSize4096(b *testing.B) {
	benchSim(b, func(c *core.Config) { c.PromoBatch = 4096 })
}

func BenchmarkAblationSecondChanceOn(b *testing.B) {
	benchSim(b, nil)
}

func BenchmarkAblationSecondChanceOff(b *testing.B) {
	benchSim(b, func(c *core.Config) { c.DisableSecondChance = true })
}

func BenchmarkAblationUnblockedCBF(b *testing.B) {
	benchSim(b, func(c *core.Config) { c.Blocked = false })
}

func BenchmarkAblationMomentumOff(b *testing.B) {
	benchSim(b, func(c *core.Config) { c.DisableMomentum = true })
}

// End-to-end facade benches: simulator throughput per policy.

func benchPolicy(b *testing.B, name hybridtier.PolicyName) {
	b.Helper()
	const pages = 1 << 14
	for i := 0; i < b.N; i++ {
		res, err := hybridtier.NewExperiment(
			hybridtier.WithWorkload(trace.NewZipfSource("bench", pages, 1.0, 0, 7)),
			hybridtier.WithPolicy(name),
			hybridtier.WithRatio(8),
			hybridtier.WithOps(100_000),
		).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ThroughputMops, "virtualMop/s")
	}
}

func BenchmarkPolicyHybridTier(b *testing.B) { benchPolicy(b, hybridtier.PolicyHybridTier) }
func BenchmarkPolicyMemtis(b *testing.B)     { benchPolicy(b, hybridtier.PolicyMemtis) }
func BenchmarkPolicyAutoNUMA(b *testing.B)   { benchPolicy(b, hybridtier.PolicyAutoNUMA) }
func BenchmarkPolicyTPP(b *testing.B)        { benchPolicy(b, hybridtier.PolicyTPP) }
func BenchmarkPolicyARC(b *testing.B)        { benchPolicy(b, "ARC") }
func BenchmarkPolicyTwoQ(b *testing.B)       { benchPolicy(b, "TwoQ") }

// Huge-page mode end to end.
func BenchmarkHugePageMode(b *testing.B) {
	const pages = 1 << 16
	for i := 0; i < b.N; i++ {
		if _, err := hybridtier.NewExperiment(
			hybridtier.WithWorkload(trace.NewZipfSource("bench-huge", pages, 1.0, 0, 7)),
			hybridtier.WithHugePages(true),
			hybridtier.WithRatio(8),
			hybridtier.WithOps(100_000),
		).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	_ = mem.HugePageBytes
}
