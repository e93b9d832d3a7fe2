package cachesim

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// tinyConfig is L1: 4 sets × 2 ways × 64B = 512B. LLC: 16 sets × 4 ways = 4KB.
func tinyConfig() (l1, llc Config) {
	return Config{SizeBytes: 512, Ways: 2}, Config{SizeBytes: 4096, Ways: 4}
}

func tiny() *Hierarchy { return New(tinyConfig()) }

func TestColdMiss(t *testing.T) {
	h := tiny()
	l1, llc := h.Access(0, App)
	if l1 || llc {
		t.Error("first access must miss both levels")
	}
	l1, llc = h.Access(0, App)
	if !l1 {
		t.Error("second access to the same line must hit L1")
	}
	_ = llc
}

func TestSameLineDifferentBytes(t *testing.T) {
	h := tiny()
	h.Access(0, App)
	l1, _ := h.Access(63, App) // same 64B line
	if !l1 {
		t.Error("access within the same line must hit")
	}
	l1, _ = h.Access(64, App) // next line
	if l1 {
		t.Error("next line must miss L1")
	}
}

func TestLRUEviction(t *testing.T) {
	h := tiny()
	// L1 has 4 sets, 2 ways. Lines 0, 4, 8 map to set 0 (line % 4).
	h.Access(0*64, App)
	h.Access(4*64, App)
	h.Access(8*64, App) // evicts line 0 (LRU)
	l1, _ := h.Access(4*64, App)
	if !l1 {
		t.Error("line 4 should still be resident")
	}
	l1, _ = h.Access(0*64, App)
	if l1 {
		t.Error("line 0 should have been evicted")
	}
}

func TestLRURecencyUpdate(t *testing.T) {
	h := tiny()
	h.Access(0*64, App)
	h.Access(4*64, App)
	h.Access(0*64, App) // refresh line 0; line 4 becomes LRU
	h.Access(8*64, App) // evicts line 4
	if l1, _ := h.Access(0*64, App); !l1 {
		t.Error("refreshed line 0 must survive")
	}
	if l1, _ := h.Access(4*64, App); l1 {
		t.Error("line 4 must have been evicted")
	}
}

func TestLLCBacksL1(t *testing.T) {
	h := tiny()
	// Fill L1 set 0 beyond capacity; evicted lines should still hit LLC.
	for i := int64(0); i < 4; i++ {
		h.Access(i*4*64, App)
	}
	// Line 0 is out of L1 but in LLC (LLC set count 16: lines 0,4,8,12
	// map to distinct LLC sets, so no LLC eviction yet).
	l1, llc := h.Access(0, App)
	if l1 {
		t.Error("line 0 should miss L1")
	}
	if !llc {
		t.Error("line 0 should hit LLC")
	}
}

func TestActorAttribution(t *testing.T) {
	h := tiny()
	h.Access(0, App)
	h.Access(64*100, Tiering)
	h.Access(64*200, Tiering)
	l1 := h.L1()
	if l1.Accesses[App] != 1 || l1.Accesses[Tiering] != 2 {
		t.Errorf("accesses = %+v", l1.Accesses)
	}
	if l1.Misses[App] != 1 || l1.Misses[Tiering] != 2 {
		t.Errorf("misses = %+v", l1.Misses)
	}
	if got := l1.TieringMissFraction(); got < 0.6 || got > 0.7 {
		t.Errorf("tiering miss fraction = %v, want 2/3", got)
	}
}

func TestMissFractionEmpty(t *testing.T) {
	var s Stats
	if s.TieringMissFraction() != 0 {
		t.Error("empty stats should report 0 miss fraction")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	l1, llc := DefaultConfig()
	if l1.SizeBytes != 48<<10 || l1.Ways != 12 {
		t.Errorf("L1 default = %+v", l1)
	}
	if llc.SizeBytes <= l1.SizeBytes {
		t.Error("LLC must be larger than L1")
	}
	// Defaults must construct.
	NewDefault().Access(0, App)
}

func TestWorkingSetFits(t *testing.T) {
	// A working set smaller than L1 must converge to ~100% hits.
	h := NewDefault()
	lines := int64(100) // 6.4KB << 48KB
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < lines; i++ {
			h.Access(i*64, App)
		}
	}
	st := h.L1()
	hitRate := 1 - float64(st.TotalMisses())/float64(st.TotalAccesses())
	if hitRate < 0.6 {
		t.Errorf("hit rate for resident set = %v, want > 0.6", hitRate)
	}
}

func TestWorkingSetExceedsLLC(t *testing.T) {
	// A streaming sweep much larger than LLC should miss nearly always.
	h := NewDefault()
	for i := int64(0); i < 100000; i++ {
		h.Access(i*64, App)
	}
	llc := h.LLC()
	missRate := float64(llc.TotalMisses()) / float64(llc.TotalAccesses())
	if missRate < 0.95 {
		t.Errorf("streaming LLC miss rate = %v, want ≈ 1", missRate)
	}
}

// Property: hits + misses per actor always equal accesses... trivially true
// by construction, so assert the meaningful version: re-accessing the same
// address twice in a row always hits L1, for arbitrary addresses.
func TestRepeatAlwaysHits(t *testing.T) {
	f := func(addrs []uint32) bool {
		h := tiny()
		for _, a := range addrs {
			h.Access(int64(a), App)
			if l1, _ := h.Access(int64(a), App); !l1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBadWaysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Ways=0 must panic")
		}
	}()
	New(Config{SizeBytes: 512, Ways: 0}, Config{SizeBytes: 4096, Ways: 4})
}

// TestRejectedShapes: a level is LineBytes × Ways × 2^k bytes or New panics;
// it used to round the set count down and model a smaller cache than asked.
func TestRejectedShapes(t *testing.T) {
	ok := Config{SizeBytes: 4096, Ways: 4}
	for _, tc := range []struct {
		name    string
		l1, llc Config
	}{
		{"sets not a power of two", ok, Config{SizeBytes: 3 << 20, Ways: 16}}, // 3072 sets, was 2 MB
		{"smaller than one set", Config{SizeBytes: LineBytes * 3, Ways: 4}, ok},
		{"not a multiple of a set", Config{SizeBytes: 4*LineBytes*2 + LineBytes, Ways: 2}, ok},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v, %+v) must panic", tc.l1, tc.llc)
				}
			}()
			New(tc.l1, tc.llc)
		})
	}
}

// refLevel is the timestamp-LRU level this package shipped before sets were
// kept in recency order, verbatim: a tag array, a last-use tick per way, an
// mru hint per set and a min-tick victim scan. It is the naive reference
// the kernel is tested against; nothing else uses it.
type refLevel struct {
	ways    int
	sets    int
	tags    []uint64 // sets*ways entries; 0 means empty (tag 0 stored as tag+1)
	lruTick []uint64
	// mru caches each set's most-recently-hit way so the common re-hit
	// costs one compare instead of a ways-wide scan. Pure acceleration:
	// hit/miss outcomes and LRU state are identical with or without it.
	mru   []uint16
	tick  uint64
	stats Stats
}

func newRefLevel(c Config) *refLevel {
	lines := c.SizeBytes / LineBytes
	if c.Ways <= 0 {
		panic("cachesim: Ways must be positive")
	}
	sets := lines / c.Ways
	if sets == 0 {
		sets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return &refLevel{
		ways:    c.Ways,
		sets:    sets,
		tags:    make([]uint64, sets*c.Ways),
		lruTick: make([]uint64, sets*c.Ways),
		mru:     make([]uint16, sets),
	}
}

// access looks line up, updating LRU state; it reports whether it hit.
func (l *refLevel) access(line uint64, a Actor) bool {
	l.tick++
	l.stats.Accesses[a]++
	set := int(line) & (l.sets - 1)
	base := set * l.ways
	stored := line + 1 // avoid tag 0 ambiguity with empty slots
	// Fast path: the set's last-hit way. A tag appears at most once per
	// set, so a match here is the same hit the scan would find.
	if m := base + int(l.mru[set]); l.tags[m] == stored {
		l.lruTick[m] = l.tick
		return true
	}
	victim := base
	oldest := l.lruTick[base]
	for i := base; i < base+l.ways; i++ {
		if l.tags[i] == stored {
			l.lruTick[i] = l.tick
			l.mru[set] = uint16(i - base)
			return true
		}
		if l.lruTick[i] < oldest {
			oldest = l.lruTick[i]
			victim = i
		}
	}
	l.stats.Misses[a]++
	l.tags[victim] = stored
	l.lruTick[victim] = l.tick
	l.mru[set] = uint16(victim - base)
	return false
}

type refHierarchy struct {
	l1  *refLevel
	llc *refLevel
}

func newRefHierarchy(l1, llc Config) *refHierarchy {
	return &refHierarchy{l1: newRefLevel(l1), llc: newRefLevel(llc)}
}

func (h *refHierarchy) Access(addr int64, a Actor) (l1Hit, llcHit bool) {
	line := uint64(addr) / LineBytes
	if h.l1.access(line, a) {
		return true, true
	}
	return false, h.llc.access(line, a)
}

// pair drives the kernel and the reference with one access sequence.
type pair struct {
	got *Hierarchy
	ref *refHierarchy
	n   int
}

func newPair(l1, llc Config) *pair {
	return &pair{got: New(l1, llc), ref: newRefHierarchy(l1, llc)}
}

func (p *pair) access(addr int64, a Actor) error {
	p.n++
	g1, g2 := p.got.Access(addr, a)
	r1, r2 := p.ref.Access(addr, a)
	if g1 != r1 || g2 != r2 {
		return fmt.Errorf("access %d (addr %#x, actor %d): got (l1 %v, llc %v), timestamp LRU (l1 %v, llc %v)",
			p.n, addr, a, g1, g2, r1, r2)
	}
	return nil
}

func (p *pair) stats() error {
	if p.got.L1() != p.ref.l1.stats || p.got.LLC() != p.ref.llc.stats {
		return fmt.Errorf("after %d accesses: L1 %+v LLC %+v, timestamp LRU L1 %+v LLC %+v",
			p.n, p.got.L1(), p.got.LLC(), p.ref.l1.stats, p.ref.llc.stats)
	}
	return nil
}

// checkReset compares the counters, then zeroes them on both sides and
// keeps the contents.
func (p *pair) checkReset() error {
	err := p.stats()
	p.got.l1.stats, p.got.llc.stats = Stats{}, Stats{}
	p.ref.l1.stats, p.ref.llc.stats = Stats{}, Stats{}
	return err
}

// TestMatchesTimestampLRU is the kernel's differential contract: true LRU's
// hit/miss sequence is a function of the access sequence alone, so the
// recency-ordered sets must agree with refLevel on every single access.
func TestMatchesTimestampLRU(t *testing.T) {
	tinyL1, tinyLLC := tinyConfig()
	defL1, defLLC := DefaultConfig()
	for _, g := range []struct {
		name    string
		l1, llc Config
	}{
		{"tiny", tinyL1, tinyLLC},
		{"default", defL1, defLLC},
		{"one set", Config{SizeBytes: LineBytes * 4, Ways: 4}, Config{SizeBytes: LineBytes * 8, Ways: 8}},
		{"one way", Config{SizeBytes: LineBytes * 8, Ways: 1}, Config{SizeBytes: LineBytes * 64, Ways: 1}},
	} {
		t.Run(g.name, func(t *testing.T) {
			const accesses = 1 << 20
			p := newPair(g.l1, g.llc)
			rng := xrand.New(20)
			llcLines := uint64(g.llc.SizeBytes / LineBytes)
			llcSets := llcLines / uint64(g.llc.Ways)
			// Page populations a few times the LLC, so skewed traffic both
			// hits and evicts at every level.
			pages := xrand.NewZipf(rng, 0.99, llcLines/8+16)
			blocks := xrand.NewZipf(rng, 0.9, 4*llcLines+16)
			for i := 0; i < accesses; i++ {
				var addr int64
				actor := App
				switch r := rng.Uint64n(16); {
				case r < 6: // sim.Run's application access: Zipf page, hashed line offset
					pg := pages.Next()
					addr = int64(pg)*4096 + int64(xrand.Hash64(pg^uint64(i))&0xfc0)
				case r < 10: // env.TouchMeta: metadata blocks above 1<<40
					addr = 1<<40 + int64(blocks.Next())*LineBytes
					actor = Tiering
				case r < 13: // set conflicts: ways+3 lines that share one LLC (and L1) set
					k := rng.Uint64n(uint64(g.llc.Ways) + 3)
					addr = int64((k*llcSets + rng.Uint64n(2)) * LineBytes)
					actor = Actor(rng.Uint64n(2))
				case r < 15: // negative addresses: the top of the unsigned line space
					addr = -int64(rng.Uint64n(2*llcLines*LineBytes)) - 1
					actor = Actor(rng.Uint64n(2))
				default: // anywhere in 2^62
					addr = int64(rng.Uint64() >> 2)
				}
				if err := p.access(addr, actor); err != nil {
					t.Fatal(err)
				}
				if i%(accesses/4) == accesses/8 { // contents stay warm across a reset
					if err := p.checkReset(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := p.stats(); err != nil {
				t.Fatal(err)
			}
			if p.got.LLC().TotalMisses() == 0 || p.got.L1().TotalMisses() == p.got.L1().TotalAccesses() {
				t.Fatalf("degenerate stream: L1 %+v LLC %+v", p.got.L1(), p.got.LLC())
			}
		})
	}
}

// FuzzHierarchyMatchesReference lets the fuzzer pick the geometry and the
// access list: four bytes of shape (ways 1–16, sets 1–32 per level), then
// three bytes per access — a flag byte (actor, address region, a stats
// reset) and a 16-bit line number.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 4}) // tiny(): a hit refreshes recency
	f.Add([]byte{11, 6, 15, 5, 0x01, 1, 0, 0x03, 1, 0, 0x05, 1, 0, 0x08, 0, 0, 0x01, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0x00, 0, 1, 0x02, 0, 1, 0x04, 0, 1, 0x00, 0, 1}) // one way, one set
	f.Add([]byte{3, 0, 7, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		shape := func(ways, sets byte) Config {
			w := int(ways%16) + 1
			return Config{SizeBytes: LineBytes * w << (sets % 6), Ways: w}
		}
		p := newPair(shape(data[0], data[1]), shape(data[2], data[3]))
		for data = data[4:]; len(data) >= 3; data = data[3:] {
			flags := data[0]
			addr := (int64(data[1])<<8 | int64(data[2])) * LineBytes
			switch flags >> 1 & 3 {
			case 1:
				addr += 1 << 40
			case 2:
				addr = -addr - 1
			case 3:
				addr += int64(flags>>4) << 58
			}
			if err := p.access(addr, Actor(flags&1)); err != nil {
				t.Fatal(err)
			}
			if flags&8 != 0 {
				if err := p.checkReset(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := p.stats(); err != nil {
			t.Fatal(err)
		}
	})
}

// The two benchmarks are hand-run aids shaped like the model's two call
// sites; bench/ is what gates.

// BenchmarkAccessApp is sim.Run's application access: Zipf-skewed 4 KB
// pages over a footprint far larger than the LLC, the line within the page
// taken from a hash.
func BenchmarkAccessApp(b *testing.B) {
	rng := xrand.New(1)
	zipf := xrand.NewZipf(rng, 0.99, 1<<18)
	pages := make([]uint64, 1<<20)
	for i := range pages {
		pages[i] = zipf.Next()
	}
	h := NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := pages[i&(len(pages)-1)]
		h.Access(int64(pg)*4096+int64(xrand.Hash64(pg^uint64(i))&0xfc0), App)
	}
}

// BenchmarkAccessTiering is env.TouchMeta under blocked-CBF HybridTier: per
// sample one 64-byte frequency block and one momentum block, both hashed
// from the page and placed above 1<<40, with no application traffic between.
func BenchmarkAccessTiering(b *testing.B) {
	const freqBlocks, momBlocks = 1 << 15, 1 << 12
	rng := xrand.New(1)
	zipf := xrand.NewZipf(rng, 0.99, 1<<18)
	blocks := make([]int64, 1<<20)
	for i := 0; i < len(blocks); i += 2 {
		pg := zipf.Next()
		blocks[i] = int64(xrand.Hash64(pg)%freqBlocks) * LineBytes
		blocks[i+1] = (freqBlocks + int64(xrand.Hash64Seed(pg, 1)%momBlocks)) * LineBytes
	}
	h := NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(1<<40+blocks[i&(len(blocks)-1)], Tiering)
	}
}
