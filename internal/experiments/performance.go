package experiments

import (
	"context"
	"fmt"

	hybridtier "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{ID: "fig9", Title: "CacheLib latency & throughput across systems and ratios", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "Relative performance vs TPP (GAP, SPEC, Silo, XGBoost)", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "HybridTier vs all-fast-tier upper bound", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "Huge-page performance vs Memtis", Run: runFig12})
	register(Experiment{ID: "fig15", Title: "Ablation: frequency-only vs dual-metric tracking", Run: runFig15})
	register(Experiment{ID: "fig17", Title: "Momentum threshold sensitivity", Run: runFig17})
}

// runFig9 reproduces Figure 9: CacheLib CDN and social-graph median latency
// and throughput for all six systems across fast:slow ratios. The
// policy × ratio grid of each workload runs as one concurrent sweep.
func runFig9(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "CacheLib P50 latency (µs) / throughput (Mop/s)",
		Columns: []string{"workload", "ratio", "system", "P50(µs)", "Mop/s"},
		Notes: []string{
			"paper: HybridTier best in all but two cells; beats Memtis by 18% P50, 23% ops geomean",
		},
	}
	type key struct{ wl, pol string }
	lat := map[key][]float64{}
	for _, wl := range []string{"cdn", "social"} {
		grid, err := sweep(ctx, s, wl, PolicyNames(), s.Ratios, s.Ops, 33)
		if err != nil {
			return nil, err
		}
		for _, ratio := range s.Ratios {
			for _, pol := range PolicyNames() {
				res := grid[pol][ratio]
				t.AddRow(wl, fmt.Sprintf("1:%d", ratio), pol,
					fmtUs(float64(res.MedianLatNs)), fmt.Sprintf("%.2f", res.ThroughputMops))
				lat[key{wl, pol}] = append(lat[key{wl, pol}], float64(res.MedianLatNs))
			}
		}
	}
	for _, wl := range []string{"cdn", "social"} {
		ht := stats.Geomean(lat[key{wl, "HybridTier"}])
		mt := stats.Geomean(lat[key{wl, "Memtis"}])
		if ht > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: HybridTier vs Memtis geomean P50 improvement %.0f%%", wl, (mt/ht-1)*100))
		}
	}
	return t, nil
}

// fig10Workloads are the non-CacheLib workloads of Figure 10.
func fig10Workloads() []string {
	return []string{"bfs-kron", "bfs-urand", "cc-kron", "cc-urand",
		"pr-kron", "pr-urand", "bwaves", "roms", "silo", "xgboost"}
}

// runFig10 reproduces Figure 10: runtime-relative performance normalized
// against TPP (higher is better). Relative performance is the inverse ratio
// of virtual completion times for the same operation count. Each
// workload's policy × ratio grid runs as one concurrent sweep.
func runFig10(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Relative performance vs TPP (higher is better)",
		Columns: append([]string{"workload", "ratio"}, PolicyNames()...),
		Notes: []string{
			"paper geomeans: HybridTier outperforms TPP 32%, AutoNUMA 11%, Memtis 29%, ARC 50%, TwoQ 40%",
		},
	}
	rel := map[string][]float64{}
	for _, wl := range fig10Workloads() {
		grid, err := sweep(ctx, s, wl, PolicyNames(), s.Ratios, s.Ops, 33)
		if err != nil {
			return nil, err
		}
		for _, ratio := range s.Ratios {
			row := []string{wl, fmt.Sprintf("1:%d", ratio)}
			tpp := float64(grid["TPP"][ratio].ElapsedNs)
			for _, pol := range PolicyNames() {
				v := tpp / float64(grid[pol][ratio].ElapsedNs)
				row = append(row, fmtRel(v))
				rel[pol] = append(rel[pol], v)
			}
			t.AddRow(row...)
		}
	}
	geo := []string{"geomean", ""}
	for _, pol := range PolicyNames() {
		geo = append(geo, fmtRel(stats.Geomean(rel[pol])))
	}
	t.AddRow(geo...)
	return t, nil
}

// runFig11 reproduces Figure 11: HybridTier normalized against a run with
// every page in the fast tier — the tiering upper bound.
func runFig11(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "HybridTier relative to all-fast-tier (1.0 = upper bound)",
		Columns: append([]string{"workload"}, ratioCols(s)...),
		Notes: []string{
			"paper: 14%, 9%, 6% average slowdown at 1:16, 1:8, 1:4",
		},
	}
	perRatio := map[int][]float64{}
	workloads := append([]string{"cdn", "social"}, fig10Workloads()...)
	for _, wl := range workloads {
		allFast, err := sweep(ctx, s, wl, []string{"AllFast"}, []int{4} /*ignored*/, s.Ops, 33)
		if err != nil {
			return nil, err
		}
		base := allFast["AllFast"][4]
		grid, err := sweep(ctx, s, wl, []string{"HybridTier"}, s.Ratios, s.Ops, 33)
		if err != nil {
			return nil, err
		}
		row := []string{wl}
		for _, ratio := range s.Ratios {
			v := float64(base.ElapsedNs) / float64(grid["HybridTier"][ratio].ElapsedNs)
			perRatio[ratio] = append(perRatio[ratio], v)
			row = append(row, fmtRel(v))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, ratio := range s.Ratios {
		row = append(row, fmtRel(stats.Geomean(perRatio[ratio])))
	}
	t.AddRow(row...)
	return t, nil
}

func ratioCols(s Scale) []string {
	out := make([]string, len(s.Ratios))
	for i, r := range s.Ratios {
		out[i] = fmt.Sprintf("1:%d", r)
	}
	return out
}

// runFig12 reproduces Figure 12: 2 MB huge-page granularity, HybridTier
// speedup over Memtis (§4.4: 16-bit counters, 512× fewer tracked pages).
// Both systems' ratio grids run as one concurrent sweep per workload.
func runFig12(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Huge-page (2MB) relative speedup of HybridTier over Memtis",
		Columns: append([]string{"workload"}, ratioCols(s)...),
		Notes: []string{
			"paper: on par at 1:16; +9% at 1:8; +11% at 1:4 on average",
		},
	}
	perRatio := map[int][]float64{}
	workloads := append([]string{"cdn", "social"}, fig10Workloads()...)
	for _, wl := range workloads {
		grid, err := sweep(ctx, s, wl, []string{"HybridTier", "Memtis"}, s.Ratios, s.Ops, 33,
			hybridtier.WithHugePages(true))
		if err != nil {
			return nil, err
		}
		row := []string{wl}
		for _, ratio := range s.Ratios {
			v := float64(grid["Memtis"][ratio].ElapsedNs) / float64(grid["HybridTier"][ratio].ElapsedNs)
			perRatio[ratio] = append(perRatio[ratio], v)
			row = append(row, fmtRel(v))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, ratio := range s.Ratios {
		row = append(row, fmtRel(stats.Geomean(perRatio[ratio])))
	}
	t.AddRow(row...)
	return t, nil
}

// runFig15 reproduces Figure 15: HybridTier with the momentum tracker
// disabled (frequency-only), normalized against full HybridTier at 1:8.
func runFig15(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig15",
		Title:   "Frequency-only ablation relative to full HybridTier (1:8)",
		Columns: []string{"workload", "onlyFreq relative perf"},
		Notes: []string{
			"paper: CacheLib and XGBoost lose ~8.5%; GAP kernels (small hot sets) unaffected",
		},
	}
	workloads := append([]string{"cdn", "social"}, "bfs-kron", "cc-kron", "pr-kron", "xgboost")
	for _, wl := range workloads {
		grid, err := sweep(ctx, s, wl, []string{"HybridTier", "HybridTier-onlyFreq"}, []int{8}, s.Ops, 33)
		if err != nil {
			return nil, err
		}
		full := grid["HybridTier"][8]
		only := grid["HybridTier-onlyFreq"][8]
		t.AddRow(wl, fmtRel(float64(full.ElapsedNs)/float64(only.ElapsedNs)))
	}
	return t, nil
}

// runFig17 reproduces Figure 17: CacheLib performance as the momentum
// threshold sweeps 1..6, normalized to the default threshold 3.
func runFig17(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig17",
		Title:   "Momentum threshold sensitivity (normalized to threshold 3, 1:8)",
		Columns: []string{"threshold", "cdn P50", "cdn ops", "social P50", "social ops"},
		Notes: []string{
			"paper: thresholds below 3 hurt (cold pages mistakenly promoted); above 3 flat",
		},
	}
	type metric struct{ p50, tput float64 }
	results := map[string]map[uint32]metric{}
	for _, wl := range []string{"cdn", "social"} {
		results[wl] = map[uint32]metric{}
		for th := uint32(1); th <= 6; th++ {
			res, err := runMomentum(ctx, s, wl, th)
			if err != nil {
				return nil, err
			}
			results[wl][th] = metric{float64(res.MedianLatNs), res.ThroughputMops}
		}
	}
	for th := uint32(1); th <= 6; th++ {
		cdnBase, socBase := results["cdn"][3], results["social"][3]
		cdn, soc := results["cdn"][th], results["social"][th]
		t.AddRow(fmt.Sprintf("%d", th),
			// Latency normalized inversely: >1 means better (lower) latency.
			fmtRel(cdnBase.p50/cdn.p50), fmtRel(cdn.tput/cdnBase.tput),
			fmtRel(socBase.p50/soc.p50), fmtRel(soc.tput/socBase.tput))
	}
	return t, nil
}

func runMomentum(ctx context.Context, s Scale, wl string, threshold uint32) (*sim.Result, error) {
	w, err := s.Workload(wl, 33)
	if err != nil {
		return nil, err
	}
	fast := fastPagesFor(w.NumPages(), 8)
	hcfg := core.DefaultConfig(fast)
	hcfg.MomentumThreshold = threshold
	p, err := core.New(hcfg)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(w, p, fast)
	cfg.Ops = s.Ops
	cfg.Ctx = ctx
	return sim.Run(cfg)
}
