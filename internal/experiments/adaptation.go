package experiments

import (
	"context"
	"fmt"

	hybridtier "repro"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{ID: "fig4", Title: "Adaptation timeline after distribution change (CacheLib)", Run: runFig4})
	register(Experiment{ID: "tab3", Title: "Time to adapt to new access distribution", Run: runTab3})
}

// shiftRunner executes one workload's adaptation runs, policies × ratios,
// and returns the results by policy and ratio.
type shiftRunner func(ctx context.Context, s Scale, workload string, policies []string, ratios []int) (map[string]map[int]*sim.Result, error)

// shiftSeed is the one seed the adaptation experiments run at.
const shiftSeed = 21

// shiftOptions configures an adaptation run: a CacheLib workload whose
// popularity rotates by 2/3 one third of the way in. The workload needs
// shift configuration beyond the registry's sizing params, so it goes
// through the facade's workload-factory option (which takes precedence
// over a workload name). Adaptation timelines need finer windows than
// throughput runs to resolve the re-convergence point.
func shiftOptions(s Scale, workload string) []hybridtier.Option {
	return []hybridtier.Option{
		hybridtier.WithWorkloadFunc(func(seed uint64) (hybridtier.Workload, error) {
			return s.ShiftingCacheLib(workload, seed, s.AdaptOps/3)
		}),
		hybridtier.WithWindowNs(5_000_000),
	}
}

// sweepShift runs a workload's cells as one Sweep, so the shifted stream —
// the same in every cell — is generated once and replayed.
func sweepShift(ctx context.Context, s Scale, workload string, policies []string, ratios []int) (map[string]map[int]*sim.Result, error) {
	return sweep(ctx, s, workload, policies, ratios, s.AdaptOps, shiftSeed, shiftOptions(s, workload)...)
}

func runFig4(ctx context.Context, s Scale) (*Table, error) { return fig4(ctx, s, sweepShift) }
func runTab3(ctx context.Context, s Scale) (*Table, error) { return tab3(ctx, s, sweepShift) }

// fig4 reproduces Figure 4: median cache latency over time for
// AutoNUMA, Memtis, and HybridTier around the distribution change.
func fig4(ctx context.Context, s Scale, run shiftRunner) (*Table, error) {
	policies := []string{"AutoNUMA", "Memtis", "HybridTier"}
	results, err := run(ctx, s, "cdn", policies, []int{8})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig4",
		Title:   "Mean latency (ns) over time, CacheLib CDN 1:8, shift at 1/3 of run",
		Columns: append([]string{"time(ms)"}, policies...),
		Notes: []string{
			"paper: HybridTier re-converges fastest (~250 s); Memtis ~1400 s; AutoNUMA slowest",
		},
	}
	series := make(map[string][]stats.SeriesPoint)
	var shiftNs int64
	for _, pol := range policies {
		res := results[pol][8]
		series[pol] = res.Series
		if res.ShiftNs > 0 {
			shiftNs = res.ShiftNs
		}
		if adapt, ok := res.AdaptationNs(); ok {
			t.Notes = append(t.Notes,
				fmt.Sprintf("%s adapted %.1f ms after the shift", pol, float64(adapt)/1e6))
		} else {
			t.Notes = append(t.Notes, fmt.Sprintf("%s did not re-converge within the run", pol))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("distribution change at %.1f ms", float64(shiftNs)/1e6))

	// Align windows across policies by index (windows share WindowNs).
	maxLen := 0
	for _, pts := range series {
		if len(pts) > maxLen {
			maxLen = len(pts)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(policies)+1)
		timeMs := ""
		for _, pol := range policies {
			if i < len(series[pol]) {
				if timeMs == "" {
					timeMs = fmt.Sprintf("%.0f", float64(series[pol][i].Time)/1e6)
				}
			}
		}
		row = append(row, timeMs)
		for _, pol := range policies {
			if i < len(series[pol]) {
				row = append(row, fmt.Sprintf("%.0f", series[pol][i].Mean))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// tab3 reproduces Table 3: time (virtual) to come within 1% of the
// steady-state median latency after the shift, Memtis vs HybridTier over
// both CacheLib workloads and the configured ratios.
func tab3(ctx context.Context, s Scale, run shiftRunner) (*Table, error) {
	t := &Table{
		ID:      "tab3",
		Title:   "Time to adapt to new distribution (virtual ms; lower is better)",
		Columns: []string{"workload", "ratio", "Memtis", "HybridTier", "reduction"},
		Notes: []string{
			"paper: HybridTier adapts 1.7-5.9× faster (3.2× average); '>run' = never re-converged",
		},
	}
	var reductions []float64
	policies := []string{"Memtis", "HybridTier"}
	for _, wl := range []string{"cdn", "social"} {
		results, err := run(ctx, s, wl, policies, s.Ratios)
		if err != nil {
			return nil, err
		}
		for _, ratio := range s.Ratios {
			vals := map[string]string{}
			var memtisNs, hybridNs float64
			for _, pol := range policies {
				res := results[pol][ratio]
				if adapt, ok := res.AdaptationNs(); ok {
					vals[pol] = fmt.Sprintf("%.1f", float64(adapt)/1e6)
					if pol == "Memtis" {
						memtisNs = float64(adapt)
					} else {
						hybridNs = float64(adapt)
					}
				} else {
					vals[pol] = ">run"
					if pol == "Memtis" {
						memtisNs = float64(res.ElapsedNs - res.ShiftNs)
					} else {
						hybridNs = float64(res.ElapsedNs - res.ShiftNs)
					}
				}
			}
			red := "n/a"
			if hybridNs > 0 {
				r := memtisNs / hybridNs
				reductions = append(reductions, r)
				red = fmt.Sprintf("%.1f×", r)
			}
			t.AddRow(wl, fmt.Sprintf("1:%d", ratio), vals["Memtis"], vals["HybridTier"], red)
		}
	}
	if len(reductions) > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("measured average reduction: %.1f×", stats.Mean(reductions)))
	}
	return t, nil
}
