package tracker

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pebs"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"", KindPEBS, true},
		{"pebs", KindPEBS, true},
		{"idlepage", KindIdlepage, true},
		{"softdirty", KindSoftDirty, true},
		{"damon", "", false},
		{"PEBS", "", false},
	}
	for _, c := range cases {
		got, err := Normalize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Normalize(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Normalize(%q) accepted; want error", c.in)
		}
	}
	wantMsg := `tracker: unknown kind "damon" (known: idlepage, pebs, softdirty)`
	if _, err := Normalize("damon"); err == nil || err.Error() != wantMsg {
		t.Errorf("Normalize error = %v; want %s", err, wantMsg)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Kind: "nope"},
		{Kind: KindPEBS, Pebs: pebs.Config{Period: 0, BufferSize: 1}},
		{Kind: KindIdlepage, ScanNs: 0, BufferSize: 8},
		{Kind: KindSoftDirty, ScanNs: 100, BufferSize: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v validated; want error", i, c)
		}
		if _, err := New(c, 64, nil); err == nil {
			t.Errorf("case %d: New(%+v) built a tracker; want error", i, c)
		}
	}
}

// TestPEBSAdapter checks the PEBS kind's side of the hoisted-countdown
// protocol: Observe accounts a full period and takes one sample,
// ObserveSkipped folds the remainder, Sync is free.
func TestPEBSAdapter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pebs = pebs.Config{Period: 5, BufferSize: 4}
	trk, err := New(cfg, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trk.Kind() != KindPEBS || trk.Period() != 5 {
		t.Fatalf("Kind/Period = %s/%d; want pebs/5", trk.Kind(), trk.Period())
	}
	if cost := trk.Sync(1e12); cost != 0 {
		t.Fatalf("pebs Sync cost = %g; want 0", cost)
	}
	for i := 0; i < 6; i++ {
		trk.Observe(mem.PageID(i), mem.Fast, int64(i), false)
	}
	trk.ObserveSkipped(3)
	st := trk.Stats()
	// 6 fires × period 5 + 3 skipped = 33 accesses; ring of 4 dropped 2.
	if st.Accesses != 33 || st.Sampled != 6 || st.Dropped != 2 {
		t.Fatalf("stats = %+v; want Accesses 33, Sampled 6, Dropped 2", st)
	}
	got := trk.Drain(nil, 0)
	if len(got) != 4 || trk.Pending() != 0 {
		t.Fatalf("drained %d pending %d; want 4, 0", len(got), trk.Pending())
	}
}

func TestIdlepageScan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindIdlepage
	cfg.ScanNs = 1000
	cfg.BufferSize = 16
	trk, err := New(cfg, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	// sim.Run's drain gate relies on a scanning tracker's period being 1
	// (see its mayDrain comment).
	if trk.Period() != 1 {
		t.Fatalf("Period = %d; want 1", trk.Period())
	}
	// Touch pages across word boundaries; repeats must not duplicate.
	trk.Observe(5, mem.Fast, 10, false)
	trk.Observe(5, mem.Fast, 11, true)
	trk.Observe(70, mem.Slow, 12, false)
	trk.Observe(130, mem.Fast, 13, false)
	// The page moved tiers between accesses: the scan reports the last.
	trk.Observe(130, mem.Slow, 14, false)

	if cost := trk.Sync(999); cost != 0 || trk.Pending() != 0 {
		t.Fatalf("scan fired before deadline: cost %g pending %d", cost, trk.Pending())
	}
	cost := trk.Sync(1000)
	if want := float64(200) * 0.5; cost != want {
		t.Fatalf("scan cost = %g; want %g", cost, want)
	}
	got := trk.Drain(nil, 0)
	want := []pebs.Sample{
		{Page: 5, Tier: mem.Fast, Time: 1000},
		{Page: 70, Tier: mem.Slow, Time: 1000},
		{Page: 130, Tier: mem.Slow, Time: 1000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan samples = %+v; want %+v", got, want)
	}
	// Bits cleared: an idle interval scans to nothing.
	if cost := trk.Sync(2000); cost == 0 {
		t.Fatal("second scan charged no cost")
	}
	if trk.Pending() != 0 {
		t.Fatalf("idle scan emitted %d samples", trk.Pending())
	}
	st := trk.Stats()
	if st.Accesses != 5 || st.Sampled != 3 || st.Drained != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestScanCatchUp: when virtual time leaps several scan periods, one scan
// runs (cumulative bits make immediate re-scans vacuous) and the schedule
// realigns past now.
func TestScanCatchUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindIdlepage
	cfg.ScanNs = 100
	cfg.BufferSize = 16
	trk, _ := New(cfg, 64, nil)
	trk.Observe(1, mem.Fast, 0, false)
	if cost := trk.Sync(1050); cost == 0 {
		t.Fatal("leap scan did not fire")
	}
	if n := trk.Pending(); n != 1 {
		t.Fatalf("leap scan emitted %d samples; want 1", n)
	}
	// Next deadline is past now: an immediate re-sync is a no-op.
	if cost := trk.Sync(1050); cost != 0 {
		t.Fatal("re-sync at same time fired again")
	}
	trk.Observe(2, mem.Fast, 1060, false)
	if cost := trk.Sync(1099); cost != 0 {
		t.Fatal("scan fired before the realigned deadline")
	}
	if cost := trk.Sync(1100); cost == 0 {
		t.Fatal("realigned scan did not fire")
	}
}

func TestSoftDirtyWriteOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Kind = KindSoftDirty
	cfg.ScanNs = 1000
	cfg.BufferSize = 16
	trk, err := New(cfg, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trk.Period() != 1 {
		t.Fatalf("Period = %d; want 1", trk.Period())
	}
	trk.Observe(3, mem.Slow, 1, false) // read: invisible
	trk.Observe(7, mem.Fast, 2, true)  // write: tracked
	trk.Sync(1000)
	got := trk.Drain(nil, 0)
	want := []pebs.Sample{{Page: 7, Tier: mem.Fast, Time: 1000}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %+v; want %+v", got, want)
	}
	st := trk.Stats()
	if st.Accesses != 2 || st.Sampled != 1 {
		t.Fatalf("stats = %+v; want Accesses 2, Sampled 1", st)
	}
}

// TestPEBSAccessesExact: for any period, number of fired Observes and
// unfired remainder, Stats().Accesses is exactly what the caller's
// countdown saw, one sample is taken per fire, and they drain in order.
func TestPEBSAccessesExact(t *testing.T) {
	f := func(p uint8, fires uint16, rem uint8) bool {
		period := int(p)%50 + 1
		remainder := int(rem) % period
		cfg := DefaultConfig()
		n := int(fires) % 2048
		cfg.Pebs = pebs.Config{Period: period, BufferSize: 2048}
		trk, err := New(cfg, 1, nil)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			trk.Observe(mem.PageID(i), mem.Fast, int64(i), false)
		}
		trk.ObserveSkipped(remainder)
		trk.ObserveSkipped(-1) // a countdown that just fired has nothing to fold
		want := pebs.Stats{Accesses: uint64(n*period + remainder), Sampled: uint64(n)}
		if trk.Stats() != want {
			return false
		}
		got := trk.Drain(nil, 0)
		for i, s := range got {
			if s.Time != int64(i) {
				return false
			}
		}
		return len(got) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ringHarness feeds one tracker kind batches of samples through its own
// front door — Observe for PEBS, Observe then a scan for the bitmap kinds
// — so the ring cases below read the same for all three. Scans emit in
// ascending page order, so every batch lists its pages ascending.
type ringHarness struct {
	t        *testing.T
	trk      Tracker
	kind     string
	now      int64
	recycled []pebs.Sample // what New was handed, dirty
}

// newRingHarness builds a kind over a size-entry ring, handing New a
// recycled slice of the given length (0: none) full of another run's
// samples.
func newRingHarness(t *testing.T, kind string, size, recycledLen int) *ringHarness {
	t.Helper()
	var recycled []pebs.Sample
	for i := 0; i < recycledLen; i++ {
		recycled = append(recycled, pebs.Sample{Page: 999, Tier: mem.Slow, Time: 42})
	}
	cfg := DefaultConfig()
	cfg.Kind = kind
	cfg.Pebs = pebs.Config{Period: 1, BufferSize: size}
	cfg.ScanNs, cfg.BufferSize = 1, size
	trk, err := New(cfg, 4096, recycled)
	if err != nil {
		t.Fatal(err)
	}
	return &ringHarness{t: t, trk: trk, kind: kind, recycled: recycled}
}

// emit makes the tracker produce one sample per page, all stamped h.now.
func (h *ringHarness) emit(pages ...mem.PageID) {
	h.now++
	for _, p := range pages {
		h.trk.Observe(p, mem.Slow, h.now, h.kind == KindSoftDirty)
	}
	h.trk.Sync(h.now)
}

// drain drains up to max samples and checks they are exactly the given
// pages, oldest first.
func (h *ringHarness) drain(max int, want ...mem.PageID) {
	h.t.Helper()
	got := h.trk.Drain(nil, max)
	pages := make([]mem.PageID, len(got))
	for i, s := range got {
		pages[i] = s.Page
	}
	if !reflect.DeepEqual(pages, append([]mem.PageID{}, want...)) {
		h.t.Fatalf("Drain(%d) pages = %v; want %v", max, pages, want)
	}
}

func (h *ringHarness) expect(pending int, sampled, dropped, drained uint64) {
	h.t.Helper()
	st := h.trk.Stats()
	if h.trk.Pending() != pending || st.Sampled != sampled || st.Dropped != dropped || st.Drained != drained {
		h.t.Fatalf("pending %d stats %+v; want pending %d sampled %d dropped %d drained %d",
			h.trk.Pending(), st, pending, sampled, dropped, drained)
	}
}

func seq(from, n int) []mem.PageID {
	pages := make([]mem.PageID, n)
	for i := range pages {
		pages[i] = mem.PageID(from + i)
	}
	return pages
}

// TestRingSemantics is the one table of buffer behaviour — drop on
// overflow, bounded and full drains, wrap-around, the scrubbed recycled
// ring — run through tracker.New for every kind: the buffer exists once
// (pebs.Buffer), and this is what every kind promises with it.
func TestRingSemantics(t *testing.T) {
	cases := []struct {
		name     string
		size     int
		recycled int
		run      func(h *ringHarness)
	}{
		{name: "drop_on_overflow", size: 4, run: func(h *ringHarness) {
			h.emit(seq(0, 10)...)
			h.expect(4, 10, 6, 0)
			// Drops happen at the producer: the oldest samples are kept.
			h.drain(0, 0, 1, 2, 3)
		}},
		{name: "drain_max", size: 100, run: func(h *ringHarness) {
			h.emit(seq(0, 50)...)
			h.drain(20, seq(0, 20)...)
			h.expect(30, 50, 0, 20)
			h.drain(0, seq(20, 30)...)
			h.expect(0, 50, 0, 50)
		}},
		{name: "wraparound", size: 4, run: func(h *ringHarness) {
			// Fill, drain, fill again so head and tail lap the ring.
			for round := 0; round < 5; round++ {
				h.emit(seq(round*10, 3)...)
				h.drain(0, seq(round*10, 3)...)
			}
			// A partial drain, then a refill that wraps: the full drain
			// crosses the seam in FIFO order.
			h.emit(seq(100, 6)...)
			h.expect(4, 21, 2, 15)
			h.drain(2, 100, 101)
			h.emit(140, 141)
			h.drain(0, 102, 103, 140, 141)
			h.expect(0, 23, 2, 21)
		}},
		// A pooled ring carries another sweep cell's samples: the kind
		// adopts the storage but not one stale entry of it.
		{name: "recycled_ring_scrubbed", size: 4, recycled: 8, run: func(h *ringHarness) {
			ring := h.trk.Ring()
			if len(ring) != 4 || &ring[0] != &h.recycled[0] {
				h.t.Fatalf("recycled storage not adopted at the configured size (len %d)", len(ring))
			}
			for i, s := range ring {
				if s != (pebs.Sample{}) {
					h.t.Fatalf("slot %d not scrubbed: %+v", i, s)
				}
			}
			h.emit(7)
			h.drain(0, 7)
			h.expect(0, 1, 0, 1)
		}},
		{name: "short_recycled_ring_replaced", size: 4, recycled: 2, run: func(h *ringHarness) {
			if ring := h.trk.Ring(); len(ring) != 4 || &ring[0] == &h.recycled[0] {
				h.t.Fatalf("short recycled buffer not replaced (len %d)", len(ring))
			}
			h.emit(seq(0, 5)...)
			h.expect(4, 5, 1, 0)
			h.drain(0, 0, 1, 2, 3)
		}},
	}
	for _, c := range cases {
		for _, kind := range Kinds() {
			t.Run(c.name+"/"+kind, func(t *testing.T) {
				c.run(newRingHarness(t, kind, c.size, c.recycled))
			})
		}
	}
}
