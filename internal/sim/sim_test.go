package sim

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// newHybridTier is core.New for a configuration known to be valid.
func newHybridTier(cfg core.Config) *core.HybridTier {
	h, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

func hybridFor(fast int) *core.HybridTier {
	return newHybridTier(core.DefaultConfig(fast))
}

func TestRunHybridTierBasic(t *testing.T) {
	const pages = 8192
	w := trace.NewZipfSource("zipf-test", pages, 1.0, 0.1, 7)
	fast := pages / 9
	cfg := DefaultConfig(w, hybridFor(fast), fast)
	cfg.Ops = 150_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 150_000 || res.ElapsedNs <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.MedianLatNs <= 0 || res.ThroughputMops <= 0 {
		t.Error("latency/throughput must be positive")
	}
	if res.Mem.Promotions == 0 {
		t.Error("a skewed workload must trigger promotions")
	}
	if res.FastFinal == 0 || res.FastFinal > fast {
		t.Errorf("FastFinal = %d, want in (0, %d]", res.FastFinal, fast)
	}
	if res.Pebs.Sampled == 0 {
		t.Error("sampling never fired")
	}
	if res.MetadataBytes == 0 {
		t.Error("metadata accounting missing")
	}
	if len(res.Series) == 0 {
		t.Error("latency series empty")
	}
}

func TestTieringBeatsStaticSlow(t *testing.T) {
	// With a skewed workload, tiering must beat a static all-slow
	// placement: the most basic sanity property of the whole system.
	const pages = 8192
	fast := pages / 17
	run := func(p tier.Policy) *Result {
		w := trace.NewZipfSource("zipf", pages, 1.1, 0, 7)
		cfg := DefaultConfig(w, p, fast)
		cfg.Alloc = mem.AllocSlow
		cfg.Ops = 300_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ht := run(hybridFor(fast))
	st := run(baselines.NewStatic("AllSlow"))
	if ht.MeanLatNs >= 0.9*st.MeanLatNs {
		t.Errorf("HybridTier mean %.0f ns should clearly beat all-slow %.0f ns",
			ht.MeanLatNs, st.MeanLatNs)
	}
}

func TestAllFastIsUpperBound(t *testing.T) {
	const pages = 4096
	mk := func() trace.Source { return trace.NewZipfSource("zipf", pages, 1.0, 0, 3) }

	allFast := DefaultConfig(mk(), baselines.NewStatic("AllFast"), pages)
	allFast.Alloc = mem.AllocFast
	allFast.Ops = 100_000
	rf, err := Run(allFast)
	if err != nil {
		t.Fatal(err)
	}

	tiered := DefaultConfig(mk(), hybridFor(pages/9), pages/9)
	tiered.Ops = 100_000
	rt, err := Run(tiered)
	if err != nil {
		t.Fatal(err)
	}
	if rf.MeanLatNs > rt.MeanLatNs {
		t.Errorf("all-fast (%v ns) must lower-bound tiered (%v ns)",
			rf.MeanLatNs, rt.MeanLatNs)
	}
	// All-fast never migrates.
	if rf.Mem.Promotions != 0 || rf.Mem.Demotions != 0 {
		t.Error("all-fast must not migrate")
	}
}

func TestFaultDrivenPolicies(t *testing.T) {
	const pages = 4096
	policies := []tier.Policy{
		baselines.NewAutoNUMA(baselines.DefaultAutoNUMAConfig(pages)),
		baselines.NewTPP(pages),
	}
	for _, p := range policies {
		w := trace.NewZipfSource("zipf", pages, 1.1, 0, 3)
		cfg := DefaultConfig(w, p, pages/17)
		cfg.Ops = 600_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults == 0 {
			t.Errorf("%s: no hint faults delivered", res.Policy)
		}
		if res.Mem.Promotions == 0 {
			t.Errorf("%s: no promotions", res.Policy)
		}
	}
}

func TestShiftAdaptationMeasured(t *testing.T) {
	const pages = 8192
	w := trace.NewShiftingZipfSource("shift", pages, 1.1, 5, 100_000, 2.0/3.0)
	fast := pages / 9
	cfg := DefaultConfig(w, hybridFor(fast), fast)
	cfg.Ops = 400_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShiftNs < 0 {
		t.Fatal("shift never fired")
	}
	if res.ShiftNs >= res.ElapsedNs {
		t.Fatal("shift time out of range")
	}
	// Adaptation should be measurable (may or may not converge to 1%, but
	// the call must not panic and steady state must be positive).
	if ns, ok := res.AdaptationNs(); ok && ns < 0 {
		t.Errorf("negative adaptation time %d", ns)
	}
}

func TestAppCacheModel(t *testing.T) {
	const pages = 4096
	w := trace.NewZipfSource("zipf", pages, 1.0, 0, 3)
	fast := pages / 9
	cfg := DefaultConfig(w, hybridFor(fast), fast)
	cfg.Ops = 60_000
	cfg.AppCacheModel = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1.Accesses[0] == 0 { // App actor
		t.Error("app cache accesses missing")
	}
	if res.L1.Accesses[1] == 0 { // Tiering actor
		t.Error("tiering cache accesses missing")
	}
	// Tiering's share of misses must be a sane fraction.
	frac := res.LLC.TieringMissFraction()
	if frac < 0 || frac > 1 {
		t.Errorf("tiering miss fraction = %v", frac)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Workload = nil },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Ops = 0 },
		func(c *Config) { c.WindowNs = 0 },
	}
	for i, mutate := range bad {
		w := trace.NewZipfSource("z", 128, 1, 0, 1)
		cfg := DefaultConfig(w, baselines.NewStatic("x"), 16)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run should fail", i)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	mk := func() *Result {
		const pages = 4096
		w := trace.NewZipfSource("zipf", pages, 1.0, 0.2, 11)
		fast := pages / 9
		cfg := DefaultConfig(w, hybridFor(fast), fast)
		cfg.Ops = 80_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.ElapsedNs != b.ElapsedNs || a.MedianLatNs != b.MedianLatNs ||
		a.Mem.Promotions != b.Mem.Promotions {
		t.Error("identical configs must produce identical results")
	}
}

// TestTrackersConserveSamples is the end-of-run form of the sample
// buffer's invariant (sampled == dropped + drained + Pending), one cell
// per tracker kind: what Result.Pebs leaves unaccounted, sampled − dropped
// − drained, is what was still buffered when the run ended, so it lies in
// [0, BufferSize]. The buffer holds 512 entries — two drain batches, and
// well under what one scan of this footprint emits — so PEBS never drops
// and the scanning kinds do.
func TestTrackersConserveSamples(t *testing.T) {
	const pages, ops, buffer = 4096, 200_003, 512
	for _, kind := range tracker.Kinds() {
		w := trace.NewZipfSource("zipf", pages, 1.0, 0.3, 5)
		fast := pages / 9
		cfg := DefaultConfig(w, hybridFor(fast), fast)
		cfg.Ops = ops
		cfg.Tracker.Kind = kind
		cfg.Tracker.Pebs.BufferSize, cfg.Tracker.BufferSize = buffer, buffer
		cfg.Tracker.ScanNs = 2_000_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Pebs
		if st.Accesses != ops || st.Sampled == 0 || st.Drained == 0 {
			t.Errorf("%s: %+v; want %d accesses, samples taken and drained", kind, st, ops)
		}
		if scans := kind != tracker.KindPEBS; scans != (st.Dropped > 0) {
			t.Errorf("%s: dropped %d of %d samples through a %d-entry buffer", kind, st.Dropped, st.Sampled, buffer)
		}
		if left := int64(st.Sampled) - int64(st.Dropped) - int64(st.Drained); left < 0 || left > buffer {
			t.Errorf("%s: sampled − dropped − drained = %d, want within [0, %d]: %+v", kind, left, buffer, st)
		}
	}
}

// pageList replays a fixed page sequence, one access per op.
type pageList struct {
	pages []mem.PageID
	next  int
}

func (s *pageList) Name() string      { return "pages" }
func (s *pageList) NumPages() int     { return 64 }
func (s *pageList) AdvanceTime(int64) {}
func (s *pageList) NextOp(dst []trace.Access) []trace.Access {
	p := s.pages[s.next%len(s.pages)]
	s.next++
	return append(dst, trace.Access{Page: p})
}

// TestRunReportsTheFirstBadPage runs sources that name pages outside their
// page space, including ones too large for the 30-bit and the 64-bit packed
// encodings the op loop runs on: each run fails naming the first bad page
// in access order.
func TestRunReportsTheFirstBadPage(t *testing.T) {
	for _, c := range []struct {
		pages []mem.PageID
		want  string
	}{
		{[]mem.PageID{1, 2, 64, 3}, `sim: workload "pages" touched bad page 64: mem: page id out of range`},
		{[]mem.PageID{1, 70, 1 << 31}, `sim: workload "pages" touched bad page 70: mem: page id out of range`},
		{[]mem.PageID{1, 1 << 31, 70}, `sim: workload "pages" touched bad page 2147483648: mem: page id out of range`},
		{[]mem.PageID{5, 1 << 62, 70}, `sim: workload "pages" touched bad page 4611686018427387904: mem: page id out of range`},
		{[]mem.PageID{5, ^mem.PageID(0)}, `sim: workload "pages" touched bad page 18446744073709551615: mem: page id out of range`},
	} {
		cfg := DefaultConfig(&pageList{pages: c.pages}, baselines.NewStatic("FirstTouch"), 8)
		cfg.Ops = 10
		if _, err := Run(cfg); err == nil || err.Error() != c.want {
			t.Errorf("pages %v: err = %v, want %s", c.pages, err, c.want)
		}
	}
}
