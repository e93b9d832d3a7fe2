package experiments

import (
	"context"
	"fmt"

	"repro/internal/cbf"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register(Experiment{ID: "tab4", Title: "Metadata size relative to total memory", Run: runTab4})
	register(Experiment{ID: "tab5", Title: "CBF migration-decision accuracy vs filter size", Run: runTab5})
	register(Experiment{ID: "fig16", Title: "Access-frequency CDFs of all workloads", Run: runFig16})
}

// runTab4 reproduces Table 4: tiering-metadata bytes as a fraction of total
// memory for Memtis (16 B per page, scales with capacity) vs HybridTier
// (CBFs sized by the fast tier).
func runTab4(_ context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "tab4",
		Title:   "Metadata size relative to total memory capacity",
		Columns: []string{"ratio", "Memtis", "HybridTier", "reduction"},
		Notes: []string{
			"paper: Memtis constant 0.39%; HybridTier 0.050%/0.097%/0.192% → 7.8×/4.0×/2.0×",
		},
	}
	// Table 4 is capacity accounting, independent of any particular
	// workload footprint; use the social-graph footprint as "total memory".
	w, err := s.Workload("social", 3)
	if err != nil {
		return nil, err
	}
	totalPages := w.NumPages()
	totalBytes := float64(totalPages) * mem.RegularPageBytes
	for _, ratio := range s.Ratios {
		fast := fastPagesFor(totalPages, ratio)
		mt, _, err := Policy("Memtis", totalPages, fast)
		if err != nil {
			return nil, err
		}
		ht, _, err := Policy("HybridTier", totalPages, fast)
		if err != nil {
			return nil, err
		}
		mFrac := float64(mt.MetadataBytes()) / totalBytes
		hFrac := float64(ht.MetadataBytes()) / totalBytes
		t.AddRow(fmt.Sprintf("1:%d", ratio), fmtPct(mFrac), fmtPct(hFrac),
			fmt.Sprintf("%.1f×", mFrac/hFrac))
	}
	return t, nil
}

// runTab5 reproduces Table 5: agreement between CBF-based and exact-table
// migration decisions as the CBF shrinks. A decision is "would this page be
// classified hot at the current threshold"; ground truth uses an exact
// (saturating) counter per page, the methodology of §6.4.2.
func runTab5(_ context.Context, s Scale) (*Table, error) {
	t := &Table{
		ID:      "tab5",
		Title:   "CBF hot/cold decision accuracy vs exact table (CacheLib 1:16)",
		Columns: []string{"CBF size (rel)", "counters", "size", "accuracy"},
		Notes: []string{
			"paper: 256→32MB filters stay above 99.4%; an 8MB filter drops to 96.9%",
		},
	}
	w, err := s.Workload("cdn", 17)
	if err != nil {
		return nil, err
	}
	fast := fastPagesFor(w.NumPages(), 16)
	baseCounters := cbf.SizeForError(2*fast, 0.001, 4)
	const threshold = 4

	// Shared access stream: replay the same ops into every filter size.
	var accesses []mem.PageID
	var buf []trace.Access
	for i := int64(0); i < s.Ops/2; i++ {
		buf = w.NextOp(buf[:0])
		for _, a := range buf {
			accesses = append(accesses, a.Page)
		}
	}

	for _, rel := range []struct {
		label  string
		factor float64
	}{
		{"32×", 32}, {"16×", 16}, {"8×", 8}, {"4×", 4}, {"1×", 1},
	} {
		counters := int(float64(baseCounters) * rel.factor / 32)
		if counters < 64 {
			counters = 64
		}
		f := cbf.MustNew(cbf.Params{K: 4, CounterBits: 4, Counters: counters, Blocked: true, Seed: 5})
		exact := make(map[mem.PageID]uint8, len(accesses)/4)
		agree, total := 0, 0
		for _, p := range accesses {
			est := f.Increment(uint64(p))
			if exact[p] < 15 {
				exact[p]++
			}
			cbfHot := est >= threshold
			exactHot := exact[p] >= threshold
			if cbfHot == exactHot {
				agree++
			}
			total++
		}
		t.AddRow(rel.label, fmt.Sprintf("%d", counters),
			fmt.Sprintf("%dKB", f.SizeBytes()/1024),
			fmt.Sprintf("%.2f%%", 100*float64(agree)/float64(total)))
	}
	return t, nil
}

// runFig16 reproduces Figure 16: cumulative distribution of 4-bit access
// frequency counts across all twelve workloads, the data behind the 4-bit
// counter-width justification (§6.4.2).
func runFig16(_ context.Context, s Scale) (*Table, error) {
	labels := stats.CDFLabels()
	cols := append([]string{"workload"}, labels[:]...)
	t := &Table{
		ID:      "fig16",
		Title:   "Cumulative access-frequency distribution (4-bit saturating counts)",
		Columns: cols,
		Notes: []string{
			"paper: all workloads except social-graph have <3% of pages at count 15;",
			"GAP-kron leaves ~94% of pages untouched",
		},
	}
	for _, wl := range WorkloadNames() {
		w, err := s.Workload(wl, 29)
		if err != nil {
			return nil, err
		}
		counts := make([]uint8, w.NumPages())
		var buf []trace.Access
		samplePeriod, sampled := 0, 0
		for i := int64(0); i < s.Ops; i++ {
			buf = w.NextOp(buf[:0])
			for _, a := range buf {
				samplePeriod++
				if samplePeriod%13 != 0 { // PEBS-rate sampling, as tracked
					continue
				}
				if counts[a.Page] < 15 {
					counts[a.Page]++
				}
				// Cool at the tracker's period so the distribution is the
				// one the frequency tracker actually holds.
				sampled++
				if sampled%20_000 == 0 {
					for j := range counts {
						counts[j] >>= 1
					}
				}
			}
		}
		cdf := stats.CDFBuckets(counts)
		row := []string{wl}
		for _, v := range cdf {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	return t, nil
}
