package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	hybridtier "repro"
	"repro/internal/registry"
	"repro/internal/sim"
)

func TestAllWorkloadsConstruct(t *testing.T) {
	for _, name := range WorkloadNames() {
		w, err := Tiny.Workload(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.NumPages() <= 0 {
			t.Errorf("%s: empty page space", name)
		}
		buf := w.NextOp(nil)
		if len(buf) == 0 {
			t.Errorf("%s: empty first op", name)
		}
	}
	if _, err := Tiny.Workload("nope", 1); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestAllPoliciesConstruct(t *testing.T) {
	names := append(PolicyNames(),
		"HybridTier-CBF", "HybridTier-onlyFreq", "LRU", "FirstTouch", "AllFast")
	for _, name := range names {
		p, _, err := Policy(name, 10_000, 1_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() == "" {
			t.Errorf("%s: empty display name", name)
		}
	}
	if _, _, err := Policy("nope", 10, 5); err == nil {
		t.Error("unknown policy must fail")
	}
}

// TestPlotOrderNamesRegistered pins the curated figure orderings to the
// registries: every plot-order name must resolve, so the lists can never
// drift from what is actually constructible.
func TestPlotOrderNamesRegistered(t *testing.T) {
	for _, name := range PolicyNames() {
		if _, ok := registry.Policies.Lookup(name); !ok {
			t.Errorf("PolicyNames entry %q not in the policy registry", name)
		}
	}
	for _, name := range WorkloadNames() {
		if _, ok := registry.Workloads.Lookup(name); !ok {
			t.Errorf("WorkloadNames entry %q not in the workload registry", name)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3a", "fig3b", "fig4", "fig5",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"mt",
		"tab3", "tab4", "tab5",
		"trackers",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

// TestEveryExperimentRuns executes the entire registry at Tiny scale and
// checks table shape. This is the closest thing to the paper's repro.sh.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(context.Background(), Tiny)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, r := range tbl.Rows {
				if len(r) != len(tbl.Columns) {
					t.Fatalf("row width %d != %d columns: %v", len(r), len(tbl.Columns), r)
				}
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("rendered table missing its id")
			}
		})
	}
}

// TestCacheOverheadShape pins what fig5/fig13/fig14 are in the paper to
// show, at Tiny scale on 4 KB pages: replacing Memtis' per-page tables with
// a counting Bloom filter, and then blocking the filter, takes tiering
// metadata out of the CPU caches. Today fig14 prints LLC misses relative to
// Memtis of 0.98 (standard CBF) and 0.45 (blocked), L1 misses of 0.78
// (blocked), and fig13/fig5 LLC miss shares of 5.9 % against 12.1 %.
// Known departure, deliberately not asserted: standard-CBF HybridTier's
// tiering L1 misses exceed Memtis' at this scale (2.78×; k scattered
// counter lines per sample against a 48 KB L1), where the paper has
// standard CBF already 12-36 % ahead.
func TestCacheOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("three cache-modeled runs skipped in -short mode")
	}
	run := func(policy string) (l1, llc uint64, llcShare float64) {
		res, err := cacheRun(context.Background(), Tiny, policy, false)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		_, llcShare, l1, llc = missRow(res)
		return l1, llc, llcShare
	}
	memtisL1, memtisLLC, memtisShare := run("Memtis")
	_, cbfLLC, _ := run("HybridTier-CBF")
	htL1, htLLC, htShare := run("HybridTier")

	if htLLC >= cbfLLC {
		t.Errorf("fig14: blocked-CBF tiering LLC misses %d not below standard-CBF's %d", htLLC, cbfLLC)
	}
	if float64(htLLC) > 0.6*float64(memtisLLC) {
		t.Errorf("fig14: HybridTier tiering LLC misses %d above 0.6× Memtis' %d", htLLC, memtisLLC)
	}
	if htL1 >= memtisL1 {
		t.Errorf("fig14: HybridTier tiering L1 misses %d not below Memtis' %d", htL1, memtisL1)
	}
	if htShare >= memtisShare {
		t.Errorf("fig13 4KB LLC miss share %.3f not below fig5's %.3f", htShare, memtisShare)
	}
}

func TestFastPagesFor(t *testing.T) {
	if got := fastPagesFor(1700, 16); got != 100 {
		t.Errorf("fastPagesFor(1700, 16) = %d, want 100", got)
	}
	if got := fastPagesFor(10, 16); got != 16 {
		t.Errorf("tiny footprints clamp to 16, got %d", got)
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a  bb", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShiftingCacheLib(t *testing.T) {
	w, err := Tiny.ShiftingCacheLib("cdn", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w.ShiftTime() != -1 {
		t.Error("shift should not have fired yet")
	}
	if _, err := Tiny.ShiftingCacheLib("bfs-kron", 1, 100); err == nil {
		t.Error("non-cachelib shifting workload must fail")
	}
}

// perCellShift is the adaptation experiments' reference runner: every cell
// an Experiment of its own that builds and generates its shifted workload,
// which is how fig4 and tab3 ran before their cells became sweeps.
func perCellShift(ctx context.Context, s Scale, workload string, policies []string, ratios []int) (map[string]map[int]*sim.Result, error) {
	out := map[string]map[int]*sim.Result{}
	for _, pol := range policies {
		out[pol] = map[int]*sim.Result{}
		for _, ratio := range ratios {
			res, err := hybridtier.NewExperiment(append(shiftOptions(s, workload),
				hybridtier.WithPolicy(hybridtier.PolicyName(pol)),
				hybridtier.WithRatio(ratio),
				hybridtier.WithOps(s.AdaptOps),
				hybridtier.WithSeed(shiftSeed),
			)...).Run(ctx)
			if err != nil {
				return nil, err
			}
			out[pol][ratio] = res
		}
	}
	return out, nil
}

// TestAdaptationSweepsPrintThePerCellTables: running each workload's
// adaptation cells as one sweep over a shared, shift-marked stream prints
// fig4 and tab3 byte for byte as per-cell generation does — shift times and
// adaptation times included.
func TestAdaptationSweepsPrintThePerCellTables(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptation sweeps skipped in -short mode")
	}
	for _, tc := range []struct {
		id    string
		table func(context.Context, Scale, shiftRunner) (*Table, error)
	}{{"fig4", fig4}, {"tab3", tab3}} {
		var printed [2]bytes.Buffer
		for i, run := range []shiftRunner{sweepShift, perCellShift} {
			tbl, err := tc.table(context.Background(), Tiny, run)
			if err != nil {
				t.Fatalf("%s: %v", tc.id, err)
			}
			tbl.Fprint(&printed[i])
		}
		if !bytes.Equal(printed[0].Bytes(), printed[1].Bytes()) {
			t.Errorf("%s printed from sweeps differs from per-cell runs:\n%s\nwant:\n%s", tc.id, &printed[0], &printed[1])
		}
	}
}
