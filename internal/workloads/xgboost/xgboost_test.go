package xgboost

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func smallCfg() Config {
	return Config{Rows: 1 << 16, Features: 16, Seed: 1}
}

func newTrainer(tb testing.TB, cfg Config) *Trainer {
	tb.Helper()
	tr, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Rows = 0 },
		func(c *Config) { c.Features = 0 },
	}
	for i, mutate := range bad {
		c := smallCfg()
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestLayout(t *testing.T) {
	tr := newTrainer(t, smallCfg())
	// 64Ki rows → 16 pages per column × 16 features = 256 feature pages;
	// gradients 64Ki × 8 B = 128 pages; 16 histogram pages.
	if tr.colPages != 16 {
		t.Errorf("colPages = %d, want 16", tr.colPages)
	}
	if tr.gradBase != 256 {
		t.Errorf("gradBase = %d, want 256", tr.gradBase)
	}
	if tr.histBase != 256+128 {
		t.Errorf("histBase = %d, want 384", tr.histBase)
	}
	if tr.NumPages() != 384+16 {
		t.Errorf("NumPages = %d, want 400", tr.NumPages())
	}
}

func TestOpsStayInBounds(t *testing.T) {
	tr := newTrainer(t, smallCfg())
	var buf []trace.Access
	for i := 0; i < 20_000; i++ {
		buf = tr.NextOp(buf[:0])
		if len(buf) < 3 {
			t.Fatalf("op has %d accesses, want ≥ 3 (feature, gradient, histogram)", len(buf))
		}
		for _, a := range buf {
			if int(a.Page) >= tr.NumPages() {
				t.Fatalf("access out of bounds: %d >= %d", a.Page, tr.NumPages())
			}
		}
		// The histogram write is always present and last.
		last := buf[len(buf)-1]
		if !last.Write || int(last.Page) < tr.histBase {
			t.Fatalf("last access should be a histogram write, got %+v", last)
		}
	}
}

func TestRoundsAdvance(t *testing.T) {
	tr := newTrainer(t, smallCfg())
	var buf []trace.Access
	start := tr.round
	// One round = nodesPerRound × activeCols × (rowSpan/blockRows) ops
	// = 15 × 6 × 103 ≈ 9300 ops.
	for i := 0; i < 30_000; i++ {
		buf = tr.NextOp(buf[:0])
	}
	if tr.round < start+2 {
		t.Errorf("rounds did not advance: %d → %d", start, tr.round)
	}
}

func TestFeatureSubsetShifts(t *testing.T) {
	tr := newTrainer(t, smallCfg())
	var buf []trace.Access
	prev := append([]int(nil), tr.activeCols...)
	changed := false
	for round := 0; round < 5 && !changed; round++ {
		for i := 0; i < 6000; i++ {
			buf = tr.NextOp(buf[:0])
		}
		cur := tr.activeCols
		if !sameSet(prev, cur) {
			changed = true
		}
		prev = append(prev[:0], cur...)
	}
	if !changed {
		t.Error("active feature subset never changed across rounds")
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func TestHotPagesFollowActiveColumns(t *testing.T) {
	tr := newTrainer(t, smallCfg())
	var buf []trace.Access
	touched := map[int]bool{} // feature id of touched feature pages
	for i := 0; i < 3000; i++ {
		buf = tr.NextOp(buf[:0])
		for _, a := range buf {
			if int(a.Page) < tr.gradBase {
				touched[int(a.Page)/tr.colPages] = true
			}
		}
	}
	active := map[int]bool{}
	for _, f := range tr.activeCols {
		active[f] = true
	}
	for f := range touched {
		if !active[f] {
			// A round boundary may have passed; allow features from at
			// most two subsets. Strict check: touched set is not all
			// features.
			continue
		}
	}
	if len(touched) > tr.cfg.Features*3/4 {
		t.Errorf("touched %d/%d feature columns in a short window; expected only the sampled subset",
			len(touched), tr.cfg.Features)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := Default(1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Rows = 1 << 16 // shrink for test
	tr := newTrainer(t, cfg)
	var buf []trace.Access
	buf = tr.NextOp(buf[:0])
	if len(buf) == 0 {
		t.Fatal("empty op")
	}
	_ = mem.PageID(0)
}

func TestDeterminism(t *testing.T) {
	a, b := newTrainer(t, smallCfg()), newTrainer(t, smallCfg())
	var ba, bb []trace.Access
	for i := 0; i < 3000; i++ {
		ba = a.NextOp(ba[:0])
		bb = b.NextOp(bb[:0])
		if len(ba) != len(bb) {
			t.Fatal("same seed diverged")
		}
		for j := range ba {
			if ba[j] != bb[j] {
				t.Fatal("same seed diverged")
			}
		}
	}
}

func BenchmarkNextOp(b *testing.B) {
	tr := newTrainer(b, smallCfg())
	var buf []trace.Access
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.NextOp(buf[:0])
	}
}
