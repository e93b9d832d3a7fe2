package baselines

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/tier"
)

func newEnv(numPages, fastPages int) (*mem.Memory, *tier.NopEnv) {
	m, err := mem.New(mem.Config{
		NumPages: numPages, FastPages: fastPages,
		PageBytes: mem.RegularPageBytes, Alloc: mem.AllocSlow,
	})
	if err != nil {
		panic(err)
	}
	return m, &tier.NopEnv{M: m, Accesses: map[mem.PageID]int64{}}
}

func samples(ps ...mem.PageID) []tier.Sample {
	out := make([]tier.Sample, len(ps))
	for i, p := range ps {
		out[i] = tier.Sample{Page: p, Tier: mem.Slow}
	}
	return out
}

// --- pageLists ---

func TestPageListsBasics(t *testing.T) {
	l := newPageLists(10, 2)
	l.pushFront(1, 3)
	l.pushFront(1, 4)
	l.pushFront(2, 5)
	if l.size(1) != 2 || l.size(2) != 1 {
		t.Fatalf("sizes: %d %d", l.size(1), l.size(2))
	}
	if l.on(3) != 1 || l.on(5) != 2 || l.on(7) != 0 {
		t.Fatal("membership wrong")
	}
	if l.tail[1] != 3 {
		t.Fatalf("back = %d, want 3 (FIFO order)", l.tail[1])
	}
	l.moveFront(1, 3)
	if l.tail[1] != 4 {
		t.Fatal("moveFront did not rotate")
	}
	if got := l.popBack(1); got != 4 {
		t.Fatalf("popBack = %d, want 4", got)
	}
	l.remove(3)
	if l.size(1) != 0 || l.on(3) != 0 {
		t.Fatal("remove failed")
	}
	if l.popBack(1) != -1 {
		t.Fatal("popBack on empty must return -1")
	}
	l.remove(7) // not on a list: no-op
}

func TestPageListsDoublePushPanics(t *testing.T) {
	l := newPageLists(4, 1)
	l.pushFront(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("double push must panic")
		}
	}()
	l.pushFront(1, 0)
}

// Property: after arbitrary operations, sizes equal actual chain lengths.
func TestPageListsConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		l := newPageLists(32, 3)
		for _, op := range ops {
			p := int32(op % 32)
			list := uint8(op%3) + 1
			switch (op / 32) % 3 {
			case 0:
				if l.on(p) == 0 {
					l.pushFront(list, p)
				} else {
					l.moveFront(list, p)
				}
			case 1:
				l.remove(p)
			case 2:
				l.popBack(list)
			}
		}
		for id := uint8(1); id <= 3; id++ {
			n := 0
			for p := l.head[id]; p >= 0; p = l.next[p] {
				n++
				if n > 32 {
					return false // cycle
				}
			}
			if n != l.size(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- Memtis ---

func TestMemtisPromotesAtThreshold(t *testing.T) {
	m, env := newEnv(128, 8)
	mt := NewMemtis(MemtisConfig{NumPages: 128, FastPages: 8, CoolSamples: 1 << 20})
	mt.Attach(env)
	m.Touch(5)
	th := int(mt.thresh)
	for i := 0; i < th-1; i++ {
		mt.OnSamples(samples(5))
	}
	if m.TierOf(5) != mem.Slow {
		t.Fatal("promoted below threshold")
	}
	mt.OnSamples(samples(5))
	if m.TierOf(5) != mem.Fast {
		t.Fatal("not promoted at threshold")
	}
}

func TestMemtisCooling(t *testing.T) {
	m, env := newEnv(128, 8)
	mt := NewMemtis(MemtisConfig{NumPages: 128, FastPages: 8, CoolSamples: 10})
	mt.Attach(env)
	m.Touch(3)
	for i := 0; i < 9; i++ {
		mt.OnSamples(samples(3))
	}
	if mt.counts[3] != 9 {
		t.Fatalf("count = %d, want 9", mt.counts[3])
	}
	mt.OnSamples(samples(3)) // 10th sample triggers cooling after counting
	if got := mt.counts[3]; got != 5 {
		t.Fatalf("cooled count = %d, want 5 (10>>1)", got)
	}
	if env.Charged != 128*perPageMetaBytes/64 {
		t.Errorf("charged %v ns, want one cooling sweep", env.Charged)
	}
	// Histogram mass must be conserved.
	var sum int64
	for _, n := range mt.hist {
		sum += n
	}
	if sum != 128 {
		t.Errorf("histogram mass = %d, want NumPages", sum)
	}
}

func TestMemtisDemotesOnWatermark(t *testing.T) {
	m, env := newEnv(128, 50)
	mt := NewMemtis(MemtisConfig{NumPages: 128, FastPages: 50, CoolSamples: 1 << 20})
	mt.Attach(env)
	for p := mem.PageID(0); p < 50; p++ {
		m.Touch(p)
		m.Promote(p)
	}
	env.Clock = 10_000_000 // past the scan rate limiter
	mt.Tick()
	// A full tier is under the promotion watermark (0.02 × 50 = 1 page);
	// demotion frees up to the demotion watermark (0.08 × 50 = 4 pages).
	if m.FastFree() < 4 {
		t.Errorf("FastFree = %d after watermark demotion, want ≥ 4", m.FastFree())
	}
}

func TestMemtisMetadataScalesWithTotal(t *testing.T) {
	a := NewMemtis(MemtisConfig{NumPages: 1000, FastPages: 10})
	b := NewMemtis(MemtisConfig{NumPages: 2000, FastPages: 10})
	if b.MetadataBytes() != 2*a.MetadataBytes() {
		t.Error("Memtis metadata must scale with total pages (§2.3.3)")
	}
	if a.MetadataBytes() != 16_000 {
		t.Errorf("metadata = %d, want 16 B/page", a.MetadataBytes())
	}
}

// --- AutoNUMA ---

func TestAutoNUMAFaultPromotion(t *testing.T) {
	m, env := newEnv(1024, 16)
	cfg := DefaultAutoNUMAConfig(1024)
	cfg.ScanWindowPages = 256
	an := NewAutoNUMA(cfg)
	an.Attach(env)

	env.Clock = 1000
	an.Tick() // unmaps pages [0, 256)
	if !an.WantsFault(10) {
		t.Fatal("page 10 should be unmapped after the scan")
	}
	if an.WantsFault(300) {
		t.Fatal("page 300 is outside the scanned window")
	}
	m.Touch(10)
	env.Clock = 2000 // fault 1µs after unmap: well under the hint threshold
	an.OnFault(10, mem.Slow)
	if m.TierOf(10) != mem.Fast {
		t.Error("recent hint fault on a slow page must promote — even a cold page")
	}
	if an.WantsFault(10) {
		t.Error("fault must clear the unmap bit")
	}
}

func TestAutoNUMASlowFaultOnly(t *testing.T) {
	m, env := newEnv(1024, 16)
	cfg := DefaultAutoNUMAConfig(1024)
	cfg.ScanWindowPages = 256
	an := NewAutoNUMA(cfg)
	an.Attach(env)
	an.Tick()
	m.Touch(20)
	m.Promote(20)
	an.OnFault(20, mem.Fast)
	// Fast pages stay: nothing to promote.
	if m.Stats().Promotions != 1 { // only the setup promotion
		t.Error("fast-tier fault must not migrate")
	}
}

func TestAutoNUMAStaleFaultNotPromoted(t *testing.T) {
	m, env := newEnv(1024, 16)
	cfg := DefaultAutoNUMAConfig(1024)
	cfg.ScanWindowPages = 256
	cfg.HintThresholdNs = 1000
	an := NewAutoNUMA(cfg)
	an.Attach(env)
	env.Clock = 0
	an.Tick()
	m.Touch(10)
	env.Clock = 50_000 // fault long after unmap: page is not hot
	an.OnFault(10, mem.Slow)
	if m.TierOf(10) != mem.Slow {
		t.Error("stale hint fault must not promote")
	}
}

func TestAutoNUMADemotionByAge(t *testing.T) {
	m, env := newEnv(1024, 50)
	cfg := DefaultAutoNUMAConfig(1024)
	cfg.AgeNs = 1000
	an := NewAutoNUMA(cfg)
	an.Attach(env)
	for p := mem.PageID(0); p < 50; p++ {
		m.Touch(p)
		m.Promote(p)
		env.Accesses[p] = 100 // last touched long ago (clock far ahead)
	}
	env.Accesses[0] = 99_999_900 // page 0 accessed within AgeNs of now
	env.Clock = 100_000_000
	an.Tick()
	if m.TierOf(0) != mem.Fast {
		t.Error("recently used page should survive demotion")
	}
	if m.FastFree() < 4 { // the demotion watermark: 0.08 × 50 pages
		t.Errorf("FastFree = %d, want ≥ 4", m.FastFree())
	}
}

// --- TPP ---

func TestTPPSecondFaultPromotes(t *testing.T) {
	m, env := newEnv(512, 8)
	tp := NewTPP(512)
	tp.Attach(env)
	m.Touch(7)
	if !tp.WantsFault(7) {
		t.Fatal("all pages start armed")
	}
	env.Clock = 1000
	tp.OnFault(7, mem.Slow)
	if m.TierOf(7) != mem.Slow {
		t.Fatal("first fault must not promote (inactive page)")
	}
	tp.Tick() // re-arm
	if !tp.WantsFault(7) {
		t.Fatal("tick must re-arm")
	}
	env.Clock = 2000 // within the active window
	tp.OnFault(7, mem.Slow)
	if m.TierOf(7) != mem.Fast {
		t.Fatal("second fault within the window must promote")
	}
}

func TestTPPStaleSecondFault(t *testing.T) {
	m, env := newEnv(512, 8)
	tp := NewTPP(512)
	tp.Attach(env)
	m.Touch(7)
	env.Clock = 1000
	tp.OnFault(7, mem.Slow)
	tp.Tick()
	env.Clock = 1000 + 2*tppActiveWindowNs // far outside the window
	tp.OnFault(7, mem.Slow)
	if m.TierOf(7) != mem.Slow {
		t.Error("faults far apart must not promote")
	}
}

// --- ARC ---

func TestARCCapacityRespected(t *testing.T) {
	m, env := newEnv(256, 8)
	a := NewARC(256, 8)
	a.Attach(env)
	for p := mem.PageID(0); p < 256; p++ {
		m.Touch(p)
	}
	for round := 0; round < 3; round++ {
		for p := mem.PageID(0); p < 100; p++ {
			a.OnSamples(samples(p))
			if used := m.FastUsed(); used > 8 {
				t.Fatalf("ARC exceeded capacity: %d > 8", used)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestARCFrequencyWins(t *testing.T) {
	// Pages accessed twice should survive a one-time scan (T2 protection).
	m, env := newEnv(256, 4)
	a := NewARC(256, 4)
	a.Attach(env)
	for p := mem.PageID(0); p < 256; p++ {
		m.Touch(p)
	}
	// Make pages 0 and 1 frequent.
	for i := 0; i < 4; i++ {
		a.OnSamples(samples(0, 1))
	}
	// Scan through many one-time pages.
	for p := mem.PageID(10); p < 60; p++ {
		a.OnSamples(samples(p))
	}
	// Touch the frequent pages again — they should still be resident.
	before := m.Stats().Promotions
	a.OnSamples(samples(0, 1))
	if m.Stats().Promotions != before {
		t.Error("frequent pages were evicted by a scan; ARC should protect them in T2")
	}
}

func TestARCGhostHitAdapts(t *testing.T) {
	m, env := newEnv(256, 4)
	a := NewARC(256, 4)
	a.Attach(env)
	for p := mem.PageID(0); p < 256; p++ {
		m.Touch(p)
	}
	// Populate T2 so REPLACE (which feeds the B1 ghost) can run, then
	// stream misses until T1 evictions land in B1.
	a.OnSamples(samples(0, 1))
	a.OnSamples(samples(0, 1))
	for p := mem.PageID(10); p < 60; p++ {
		a.OnSamples(samples(p))
	}
	if a.lists.size(arcB1) == 0 {
		t.Fatal("setup: B1 ghost list should be populated after the miss stream")
	}
	p0 := a.p
	// Hit a ghost: target must grow.
	grew := false
	for p := mem.PageID(10); p < 60; p++ {
		if a.lists.on(int32(p)) == arcB1 {
			a.OnSamples(samples(p))
			if a.p > p0 {
				grew = true
			}
			break
		}
	}
	if !grew {
		t.Error("B1 ghost hit must grow the T1 target")
	}
}

// --- TwoQ ---

func TestTwoQLifecycle(t *testing.T) {
	m, env := newEnv(256, 8)
	q := NewTwoQ(256, 8)
	q.Attach(env)
	for p := mem.PageID(0); p < 256; p++ {
		m.Touch(p)
	}
	// Cold miss: into A1in and fast tier.
	q.OnSamples(samples(1))
	if q.lists.on(1) != twoqA1in || m.TierOf(1) != mem.Fast {
		t.Fatal("cold miss must insert into A1in and promote")
	}
	// Overflow A1in (Kin = 2): page 1 falls to the A1out ghost and is
	// demoted.
	for p := mem.PageID(2); p < 12; p++ {
		q.OnSamples(samples(p))
	}
	if q.lists.on(1) != twoqA1out {
		t.Fatalf("page 1 should be on A1out, is on %d", q.lists.on(1))
	}
	if m.TierOf(1) != mem.Slow {
		t.Fatal("A1out pages must be demoted")
	}
	// Re-reference from A1out: graduates to Am and promotes.
	q.OnSamples(samples(1))
	if q.lists.on(1) != twoqAm || m.TierOf(1) != mem.Fast {
		t.Fatal("A1out hit must graduate to Am and promote")
	}
}

func TestTwoQCapacity(t *testing.T) {
	m, env := newEnv(512, 8)
	q := NewTwoQ(512, 8)
	q.Attach(env)
	for p := mem.PageID(0); p < 512; p++ {
		m.Touch(p)
	}
	for round := 0; round < 2; round++ {
		for p := mem.PageID(0); p < 300; p++ {
			q.OnSamples(samples(p))
			if m.FastUsed() > 8 {
				t.Fatalf("TwoQ exceeded capacity: %d", m.FastUsed())
			}
		}
	}
}

// --- LRU ---

func TestLRUEvictionOrder(t *testing.T) {
	m, env := newEnv(64, 2)
	l := NewLRU(64, 2)
	l.Attach(env)
	for p := mem.PageID(0); p < 64; p++ {
		m.Touch(p)
	}
	l.OnSamples(samples(1, 2)) // fast = {1, 2}
	l.OnSamples(samples(1))    // refresh 1
	l.OnSamples(samples(3))    // evicts 2
	if m.TierOf(2) != mem.Slow || m.TierOf(1) != mem.Fast || m.TierOf(3) != mem.Fast {
		t.Errorf("LRU state wrong: t1=%v t2=%v t3=%v", m.TierOf(1), m.TierOf(2), m.TierOf(3))
	}
	// A miss on page 1 would have evicted and re-promoted it.
	if st := m.Stats(); st.Promotions != 3 || st.Demotions != 1 {
		t.Errorf("stats = %+v, want 3 promotions / 1 demotion (one hit)", st)
	}
}

// --- Static ---

func TestStaticNoops(t *testing.T) {
	m, env := newEnv(64, 4)
	s := NewStatic("FirstTouch")
	s.Attach(env)
	m.Touch(1)
	s.OnSamples(samples(1))
	s.Tick()
	if m.Stats().Promotions != 0 || m.Stats().Demotions != 0 {
		t.Error("static policy must not migrate")
	}
	if s.Name() != "FirstTouch" || s.MetadataBytes() != 0 {
		t.Error("static accessors wrong")
	}
}

func TestPoliciesImplementInterfaces(t *testing.T) {
	var _ tier.Policy = NewMemtis(MemtisConfig{NumPages: 10, FastPages: 2})
	var _ tier.FaultDriven = NewAutoNUMA(DefaultAutoNUMAConfig(64))
	var _ tier.FaultDriven = NewTPP(64)
	var _ tier.Policy = NewARC(10, 2)
	var _ tier.Policy = NewTwoQ(10, 2)
	var _ tier.Policy = NewLRU(10, 2)
	var _ tier.Policy = NewStatic("x")
}
