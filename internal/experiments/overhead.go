package experiments

import (
	"context"
	"fmt"

	hybridtier "repro"
	"repro/internal/cachesim"
	"repro/internal/sim"
)

func init() {
	register(Experiment{ID: "fig5", Title: "Memtis tiering cache misses (4KB and 2MB pages)", Run: runFig5})
	register(Experiment{ID: "fig13", Title: "HybridTier tiering cache misses (4KB and 2MB pages)", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "Cache-miss reduction breakdown: Memtis → CBF → blocked CBF", Run: runFig14})
}

// cacheRun executes one app+tiering cache-modeled run and returns the
// tiering actor's share of L1 and LLC misses plus absolute tiering misses.
// The workload footprint is floored so that per-page metadata exceeds the
// modeled LLC — the regime §2.3.3 analyzes; below it every scheme trivially
// fits in cache and the comparison degenerates.
func cacheRun(ctx context.Context, s Scale, policy string, huge bool) (*sim.Result, error) {
	if s.CacheLibObjects < 24_000 {
		s.CacheLibObjects = 24_000
	}
	if s.Ops < 400_000 {
		s.Ops = 400_000
	}
	grid, err := sweep(ctx, s, "cdn", []string{policy}, []int{4}, s.Ops, 41,
		hybridtier.WithCacheModel(true), hybridtier.WithHugePages(huge))
	if err != nil {
		return nil, err
	}
	return grid[policy][4], nil
}

func missRow(res *sim.Result) (l1Frac, llcFrac float64, l1Abs, llcAbs uint64) {
	return res.L1.TieringMissFraction(), res.LLC.TieringMissFraction(),
		res.L1.Misses[cachesim.Tiering], res.LLC.Misses[cachesim.Tiering]
}

// runFig5 reproduces Figure 5: the fraction of all cache misses caused by
// Memtis' tiering activity under regular and huge pages (CacheLib, 1:4).
func runFig5(ctx context.Context, s Scale) (*Table, error) {
	return cacheMissFigure(ctx, s, "fig5", "Memtis",
		"paper: Memtis consumes ~9% of L1 and ~18% of LLC misses (4KB); 13%/18% (2MB)")
}

// runFig13 reproduces Figure 13: the same measurement for HybridTier.
func runFig13(ctx context.Context, s Scale) (*Table, error) {
	return cacheMissFigure(ctx, s, "fig13", "HybridTier",
		"paper: HybridTier averages 5% (4KB) and 4% (2MB) of total misses")
}

func cacheMissFigure(ctx context.Context, s Scale, id, policy, note string) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s tiering activity share of total cache misses (CacheLib 1:4)", policy),
		Columns: []string{"page size", "L1 miss share", "LLC miss share"},
		Notes:   []string{note},
	}
	for _, huge := range []bool{false, true} {
		res, err := cacheRun(ctx, s, policy, huge)
		if err != nil {
			return nil, err
		}
		l1, llc, _, _ := missRow(res)
		label := "4KB"
		if huge {
			label = "2MB"
		}
		t.AddRow(label, fmtPct(l1), fmtPct(llc))
	}
	return t, nil
}

// runFig14 reproduces Figure 14: total cache-miss reduction moving from
// Memtis to a standard-CBF HybridTier to the blocked-CBF HybridTier,
// normalized to Memtis (higher reduction = fewer misses).
func runFig14(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Tiering cache-miss reduction vs Memtis (CacheLib 1:4, 4KB pages)",
		Columns: []string{"system", "L1 misses (rel)", "LLC misses (rel)", "L1 reduction", "LLC reduction"},
		Notes: []string{
			"paper: standard CBF cuts misses 12-36%; blocked CBF a further 31-72%",
		},
	}
	type rec struct{ l1, llc uint64 }
	recs := map[string]rec{}
	for _, pol := range []string{"Memtis", "HybridTier-CBF", "HybridTier"} {
		res, err := cacheRun(ctx, s, pol, false)
		if err != nil {
			return nil, err
		}
		_, _, l1, llc := missRow(res)
		recs[pol] = rec{l1, llc}
	}
	base := recs["Memtis"]
	for _, pol := range []string{"Memtis", "HybridTier-CBF", "HybridTier"} {
		r := recs[pol]
		t.AddRow(pol,
			fmtRel(float64(r.l1)/float64(base.l1)), fmtRel(float64(r.llc)/float64(base.llc)),
			fmt.Sprintf("%.1f×", float64(base.l1)/float64(r.l1)),
			fmt.Sprintf("%.1f×", float64(base.llc)/float64(r.llc)))
	}
	return t, nil
}
