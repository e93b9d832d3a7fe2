package mem

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func testCfg() Config {
	return Config{NumPages: 100, FastPages: 10, PageBytes: RegularPageBytes, Alloc: AllocFastFirst}
}

func newMem(tb testing.TB, cfg Config) *Memory {
	tb.Helper()
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NumPages: 0, FastPages: 1, PageBytes: RegularPageBytes},
		{NumPages: 10, FastPages: -1, PageBytes: RegularPageBytes},
		{NumPages: 10, FastPages: 1, PageBytes: 1234},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New must propagate validation errors")
	}
}

func TestFirstTouchFastFirst(t *testing.T) {
	m := newMem(t, testCfg())
	// First 10 touches land fast, the rest slow.
	for i := 0; i < 20; i++ {
		tier, err := m.Touch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		want := Fast
		if i >= 10 {
			want = Slow
		}
		if tier != want {
			t.Errorf("page %d allocated to %v, want %v", i, tier, want)
		}
	}
	if m.FastUsed() != 10 || m.FastFree() != 0 {
		t.Errorf("FastUsed=%d FastFree=%d", m.FastUsed(), m.FastFree())
	}
	st := m.Stats()
	if st.FastAllocs != 10 || st.SlowAllocs != 10 {
		t.Errorf("alloc stats = %+v", st)
	}
}

func TestAllocSlow(t *testing.T) {
	cfg := testCfg()
	cfg.Alloc = AllocSlow
	m := newMem(t, cfg)
	tier, _ := m.Touch(3)
	if tier != Slow {
		t.Error("AllocSlow must place first touches in slow tier")
	}
	if m.FastUsed() != 0 {
		t.Error("fast tier should be empty")
	}
}

func TestAllocFastUnbounded(t *testing.T) {
	cfg := testCfg()
	cfg.Alloc = AllocFast
	cfg.FastPages = 1
	m := newMem(t, cfg)
	for i := 0; i < 50; i++ {
		tier, _ := m.Touch(PageID(i))
		if tier != Fast {
			t.Fatal("AllocFast must place everything fast")
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatTouchKeepsTier(t *testing.T) {
	m := newMem(t, testCfg())
	m.Touch(5)
	m.Demote(5)
	tier, _ := m.Touch(5)
	if tier != Slow {
		t.Error("repeat touch must not reallocate")
	}
	if m.allocs != 1 {
		t.Errorf("allocated pages = %d, want 1", m.allocs)
	}
}

func TestPromoteDemote(t *testing.T) {
	cfg := testCfg()
	cfg.Alloc = AllocSlow
	m := newMem(t, cfg)
	m.Touch(1)
	if err := m.Promote(1); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(1) != Fast || m.FastUsed() != 1 {
		t.Error("promotion did not move the page")
	}
	// Promote again: idempotent, not double-counted.
	if err := m.Promote(1); err != nil {
		t.Fatal(err)
	}
	if m.FastUsed() != 1 || m.Stats().Promotions != 1 {
		t.Error("re-promotion must be a no-op")
	}
	if err := m.Demote(1); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(1) != Slow || m.FastUsed() != 0 {
		t.Error("demotion did not move the page")
	}
	// Demote again: no-op.
	if err := m.Demote(1); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Demotions != 1 {
		t.Error("re-demotion must be a no-op")
	}
}

func TestPromoteFullFastTier(t *testing.T) {
	cfg := testCfg()
	cfg.Alloc = AllocSlow
	cfg.FastPages = 2
	m := newMem(t, cfg)
	for i := PageID(0); i < 3; i++ {
		m.Touch(i)
	}
	m.Promote(0)
	m.Promote(1)
	err := m.Promote(2)
	if !errors.Is(err, ErrFastFull) {
		t.Fatalf("promotion into full tier: err = %v, want ErrFastFull", err)
	}
	if m.Stats().FailedPromos != 1 {
		t.Error("failed promotion must be counted")
	}
	// Demote one, retry.
	m.Demote(0)
	if err := m.Promote(2); err != nil {
		t.Fatalf("promotion after demotion failed: %v", err)
	}
}

func TestPromoteAllocatesUntouched(t *testing.T) {
	m := newMem(t, testCfg())
	if err := m.Promote(42); err != nil {
		t.Fatal(err)
	}
	if m.state[42] == stateFree || m.TierOf(42) != Fast {
		t.Error("promoting an untouched page must allocate it fast")
	}
}

func TestBadPage(t *testing.T) {
	m := newMem(t, testCfg())
	if _, err := m.Touch(1000); !errors.Is(err, ErrBadPage) {
		t.Error("Touch out of range must fail")
	}
	if err := m.Promote(1000); !errors.Is(err, ErrBadPage) {
		t.Error("Promote out of range must fail")
	}
	if err := m.Demote(1000); !errors.Is(err, ErrBadPage) {
		t.Error("Demote out of range must fail")
	}
	if m.TierOf(1000) != Slow {
		t.Error("TierOf out of range should report Slow")
	}
}

// TestBadPageAboveInt covers page ids that a signed int cannot hold, such
// as page 0's predecessor: each call reports a bad page instead of
// indexing out of range.
func TestBadPageAboveInt(t *testing.T) {
	m := newMem(t, testCfg())
	m.Touch(3)
	for _, p := range []PageID{1 << 63, ^PageID(0)} {
		if _, err := m.Touch(p); !errors.Is(err, ErrBadPage) {
			t.Errorf("Touch(%d) = %v, want ErrBadPage", p, err)
		}
		if tier, ok := m.TouchTier(p); tier != Slow || ok {
			t.Errorf("TouchTier(%d) = %v, %v, want slow, false", p, tier, ok)
		}
		if m.TierOf(p) != Slow {
			t.Errorf("TierOf(%d) != Slow", p)
		}
		if err := m.Promote(p); !errors.Is(err, ErrBadPage) {
			t.Errorf("Promote(%d) = %v, want ErrBadPage", p, err)
		}
		if err := m.Demote(p); !errors.Is(err, ErrBadPage) {
			t.Errorf("Demote(%d) = %v, want ErrBadPage", p, err)
		}
		if n := m.ScanFastFrom(p, func(PageID) bool { return true }); n != 1 {
			t.Errorf("ScanFastFrom(%d) visited %d pages, want 1", p, n)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanFastOrder(t *testing.T) {
	cfg := testCfg()
	cfg.Alloc = AllocSlow
	m := newMem(t, cfg)
	for _, p := range []PageID{30, 10, 20} {
		m.Touch(p)
		m.Promote(p)
	}
	var got []PageID
	n := m.ScanFastFrom(0, func(p PageID) bool {
		got = append(got, p)
		return true
	})
	if n != 3 || len(got) != 3 {
		t.Fatalf("scan visited %d pages", n)
	}
	// Address order, as a pagemap walk would produce.
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("scan order = %v, want [10 20 30]", got)
	}
	// Early stop.
	n = m.ScanFastFrom(0, func(PageID) bool { return false })
	if n != 1 {
		t.Errorf("early-stopped scan visited %d, want 1", n)
	}
}

func TestTierString(t *testing.T) {
	if Fast.String() != "fast" || Slow.String() != "slow" {
		t.Error("Tier.String mismatch")
	}
}

// Property: after any operation sequence, internal invariants hold.
func TestRandomOpsInvariants(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		cfg := Config{NumPages: 64, FastPages: 8, PageBytes: RegularPageBytes, Alloc: AllocFastFirst}
		m := newMem(t, cfg)
		rng := xrand.New(seed)
		for _, op := range ops {
			p := PageID(op % 64)
			switch rng.Uint64n(3) {
			case 0:
				m.Touch(p)
			case 1:
				m.Promote(p) // may fail with ErrFastFull; fine
			case 2:
				m.Demote(p)
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLatencyModelOrdering(t *testing.T) {
	if AccessNs(Fast, 0) >= AccessNs(Slow, 0) {
		t.Error("slow tier must be slower at idle")
	}
	// Figure 1: CXL adds 50-100ns over local DRAM at idle.
	gap := AccessNs(Slow, 0) - AccessNs(Fast, 0)
	if gap < 30 || gap > 120 {
		t.Errorf("idle latency gap = %v ns, want within CXL envelope", gap)
	}
	// Contention raises latency monotonically.
	if AccessNs(Slow, 0.5) <= AccessNs(Slow, 0.1) {
		t.Error("higher utilization must raise latency")
	}
	// Saturation is capped.
	if AccessNs(Slow, 1.5) > slowNs*maxQueue+1 {
		t.Error("queueing multiplier must be capped")
	}
}

func TestLatencyBandwidth(t *testing.T) {
	if Bandwidth(Fast) <= Bandwidth(Slow) {
		t.Error("fast tier must have more bandwidth")
	}
	if Bandwidth(Slow) != 34 {
		t.Errorf("slow bandwidth = %v GB/s, want 34 (§5.1)", Bandwidth(Slow))
	}
}

func TestMigrationCost(t *testing.T) {
	zero := MigrationCostNs(0, RegularPageBytes)
	if zero != 0 {
		t.Errorf("zero-page batch cost = %v, want 0", zero)
	}
	one := MigrationCostNs(1, RegularPageBytes)
	ten := MigrationCostNs(10, RegularPageBytes)
	if one <= 0 || ten <= one {
		t.Error("cost must grow with batch size")
	}
	// Batching amortizes the fixed overhead: 10 pages in one batch cost
	// less than 10 single-page batches.
	if ten >= 10*one {
		t.Errorf("batching must amortize: batch10=%v single×10=%v", ten, 10*one)
	}
	// Huge pages cost more per page (more bytes to copy).
	huge := MigrationCostNs(1, HugePageBytes)
	if huge <= one {
		t.Error("2MB migration must cost more than 4KB")
	}
}

// scanFastBytes is ScanFastFrom as it was before the fast-tier bitmap: one
// state byte tested per page, read live as the walk reaches it.
func scanFastBytes(m *Memory, start PageID, fn func(PageID) bool) int {
	n := m.cfg.NumPages
	visited := 0
	for k := 0; k < n; k++ {
		i := PageID((int(start)%n + k) % n)
		if m.TierOf(i) != Fast {
			continue
		}
		visited++
		if !fn(i) {
			break
		}
	}
	return visited
}

// FuzzScanFastMatchesBytes holds the bitmap walk to the byte scan. Two
// memories replay one touch/promote/demote script; then, from every start
// page, each is walked by its own scan: first in full, reading only; then,
// from every start again, with a callback that stops after a drawn number
// of visits and moves pages as it goes (demoting the visited page,
// promoting one ahead of the walk), as a reclaim walk does. The visit
// sequences, visited counts and final states must agree, and the bitmap
// must agree with the tiers throughout (CheckInvariants).
func FuzzScanFastMatchesBytes(f *testing.F) {
	f.Add(uint16(100), uint8(10), uint8(0), []byte{0, 1, 2, 3, 64, 65, 99})
	f.Add(uint16(64), uint8(64), uint8(1), []byte{63, 0, 127, 200})
	f.Add(uint16(130), uint8(40), uint8(2), []byte{129, 128, 64, 63, 1, 255, 7, 9, 77})
	f.Fuzz(func(t *testing.T, pages uint16, fastCap, alloc uint8, script []byte) {
		cfg := Config{NumPages: 1 + int(pages%300), FastPages: int(fastCap), PageBytes: RegularPageBytes, Alloc: AllocMode(alloc % 3)}
		a, b := newMem(t, cfg), newMem(t, cfg)
		n := cfg.NumPages
		for i, x := range script {
			p := PageID((int(x) + i*61) % n)
			for _, m := range []*Memory{a, b} {
				switch x % 3 {
				case 0:
					m.Touch(p)
				case 1:
					m.Promote(p)
				default:
					m.Demote(p)
				}
			}
		}
		// Pass k < n reads only, in full; pass k >= n moves pages and stops.
		for k := 0; k < 2*n; k++ {
			start, stop := k%n, n+1
			if k >= n {
				stop = 1 + (start*7+len(script))%(n+1)
			}
			walk := func(m *Memory, scan func(*Memory, PageID, func(PageID) bool) int) ([]PageID, int) {
				var seen []PageID
				visited := scan(m, PageID(start), func(p PageID) bool {
					seen = append(seen, p)
					if stop > n {
						return true
					}
					switch (int(p) + start) % 4 {
					case 0:
						m.Demote(p)
					case 1:
						m.Promote(PageID((int(p) + 1 + start%5) % n))
					}
					return len(seen) < stop
				})
				return seen, visited
			}
			gotSeen, got := walk(a, (*Memory).ScanFastFrom)
			wantSeen, want := walk(b, scanFastBytes)
			if got != want || !slices.Equal(gotSeen, wantSeen) {
				t.Fatalf("start %d, stop %d: bitmap walk visited %d %v, byte scan %d %v", start, stop, got, gotSeen, want, wantSeen)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("start %d: %v", start, err)
			}
			if a.Stats() != b.Stats() || a.FastUsed() != b.FastUsed() {
				t.Fatalf("start %d: states diverged: %+v vs %+v", start, a.Stats(), b.Stats())
			}
		}
	})
}
