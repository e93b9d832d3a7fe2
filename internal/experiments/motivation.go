package experiments

import (
	"context"
	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register(Experiment{ID: "fig2", Title: "Hotness retention decay (PageRank, XGBoost)", Run: runFig2})
	register(Experiment{ID: "fig3a", Title: "EMA score lags a page turning cold", Run: runFig3a})
	register(Experiment{ID: "fig3b", Title: "Hotness classification vs cooling period", Run: runFig3b})
}

// runFig2 reproduces Figure 2: take the hot set of the first time interval
// and measure what fraction of it is still hot in each later interval. The
// paper's intervals are minutes of wall time; ours are equal slices of the
// operation stream.
func runFig2(_ context.Context, s Scale) (*Table, error) {
	const intervals = 8
	t := &Table{
		ID:      "fig2",
		Title:   "Fraction of initially-hot pages still hot after k intervals",
		Columns: []string{"interval", "pr-kron", "xgboost"},
		Notes: []string{
			"paper: PR <10% and XGBoost ~50% of pages still hot after 5 minutes",
			"intervals are equal slices of the op stream (paper: minutes)",
		},
	}
	retention := map[string][]float64{}
	for _, name := range []string{"pr-kron", "xgboost"} {
		w, err := s.Workload(name, 5)
		if err != nil {
			return nil, err
		}
		retention[name] = hotnessRetention(w, s.Ops/2, intervals)
	}
	for k := 0; k < intervals; k++ {
		t.AddRow(fmt.Sprintf("%d", k),
			fmtPct(retention["pr-kron"][k]), fmtPct(retention["xgboost"][k]))
	}
	return t, nil
}

// hotnessRetention splits ops into intervals, computes the top decile of
// touched pages per interval, and reports |hot(0) ∩ hot(k)| / |hot(0)|.
func hotnessRetention(w trace.Source, totalOps int64, intervals int) []float64 {
	per := totalOps / int64(intervals)
	hotSets := make([]map[mem.PageID]bool, intervals)
	var buf []trace.Access
	for k := 0; k < intervals; k++ {
		counts := map[mem.PageID]int{}
		for i := int64(0); i < per; i++ {
			buf = w.NextOp(buf[:0])
			for _, a := range buf {
				counts[a.Page]++
			}
		}
		hotSets[k] = topDecile(counts)
	}
	out := make([]float64, intervals)
	base := hotSets[0]
	if len(base) == 0 {
		return out
	}
	for k := 0; k < intervals; k++ {
		n := 0
		for p := range base {
			if hotSets[k][p] {
				n++
			}
		}
		out[k] = float64(n) / float64(len(base))
	}
	return out
}

// topDecile returns the top-10% most accessed pages of one interval.
func topDecile(counts map[mem.PageID]int) map[mem.PageID]bool {
	if len(counts) == 0 {
		return map[mem.PageID]bool{}
	}
	vals := make([]int, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, c)
	}
	// nth-element via counting: find the count threshold of the 90th pct.
	max := 0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	hist := make([]int, max+1)
	for _, v := range vals {
		hist[v]++
	}
	budget := len(vals) / 10
	if budget < 1 {
		budget = 1
	}
	thresh := max
	cum := 0
	for c := max; c >= 1; c-- {
		cum += hist[c]
		thresh = c
		if cum >= budget {
			break
		}
	}
	hot := map[mem.PageID]bool{}
	for p, c := range counts {
		if c >= thresh {
			hot[p] = true
		}
	}
	return hot
}

// runFig3a reproduces Figure 3a exactly: a page accessed 50 times per
// minute for 10 minutes, EMA with decay 2 cooled every 2 minutes; the
// score must lag the raw access rate for ~9 minutes after the page cools.
func runFig3a(context.Context, Scale) (*Table, error) {
	const minute = int64(60_000_000_000)
	var e stats.EMA // halves every 2 minutes
	t := &Table{
		ID:      "fig3a",
		Title:   "EMA score of a page that turns cold at minute 10",
		Columns: []string{"minute", "accesses/min", "EMA score"},
		Notes:   []string{"paper: score drops below 10 only at minute ~19 (9-minute lag)"},
	}
	below10 := -1
	for m := int64(0); m <= 24; m++ {
		acc := 0
		if m < 10 {
			acc = 50
			for i := 0; i < 50; i++ {
				e.Add(m * minute)
			}
		}
		score := e.Score(m * minute)
		if below10 < 0 && m >= 10 && score < 10 {
			below10 = int(m)
		}
		t.AddRow(fmt.Sprintf("%d", m), fmt.Sprintf("%d", acc), fmt.Sprintf("%.1f", score))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured: score < 10 at minute %d", below10))
	return t, nil
}

// runFig3b reproduces Figure 3b: classify CacheLib pages as hot/warm/cold
// from counters cooled at different periods; shorter periods misclassify
// hot and warm pages as cold because counts never accumulate.
func runFig3b(_ context.Context, s Scale) (*Table, error) {
	periods := []struct {
		label   string
		samples int // 0 = Inf (never cool)
	}{
		{"Inf", 0},
		{"25M", int(s.Ops / 4)},
		{"10M", int(s.Ops / 10)},
		{"5M", int(s.Ops / 20)},
		{"2M", int(s.Ops / 50)},
	}
	t := &Table{
		ID:      "fig3b",
		Title:   "Hot/warm/cold classification vs cooling period (CacheLib CDN)",
		Columns: []string{"cooling period", "hot", "warm", "cold"},
		Notes: []string{
			"labels use the paper's sample-count scale; values are scaled to sim rates",
			"paper: lower periods shrink the hot+warm fractions (less accurate capture)",
		},
	}
	for _, per := range periods {
		w, err := s.Workload("cdn", 9)
		if err != nil {
			return nil, err
		}
		counts := make([]uint16, w.NumPages())
		var buf []trace.Access
		seen := 0
		for i := int64(0); i < s.Ops; i++ {
			buf = w.NextOp(buf[:0])
			for _, a := range buf {
				if counts[a.Page] < 1<<15 {
					counts[a.Page]++
				}
				seen++
				if per.samples > 0 && seen%per.samples == 0 {
					for j := range counts {
						counts[j] >>= 1
					}
				}
			}
		}
		var hot, warm, cold int
		for _, c := range counts {
			switch {
			case c >= 16:
				hot++
			case c >= 4:
				warm++
			default:
				cold++
			}
		}
		total := float64(len(counts))
		t.AddRow(per.label, fmtPct(float64(hot)/total), fmtPct(float64(warm)/total),
			fmtPct(float64(cold)/total))
	}
	return t, nil
}
