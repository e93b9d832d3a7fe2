package cbf

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func newTest4(blocked bool) Filter {
	return MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 14, Blocked: blocked, Seed: 7})
}

func TestGetOnEmpty(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		f := newTest4(blocked)
		for k := uint64(0); k < 100; k++ {
			if got := f.Get(k); got != 0 {
				t.Errorf("blocked=%v Get on empty filter = %d, want 0", blocked, got)
			}
		}
	}
}

func TestIncrementGet(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		f := newTest4(blocked)
		for i := 0; i < 5; i++ {
			f.Increment(12345)
		}
		if got := f.Get(12345); got != 5 {
			t.Errorf("blocked=%v Get after 5 increments = %d, want 5", blocked, got)
		}
	}
}

func TestSaturation(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		f := newTest4(blocked)
		for i := 0; i < 100; i++ {
			f.Increment(99)
		}
		if got := f.Get(99); got != 15 {
			t.Errorf("blocked=%v 4-bit counter must saturate at 15, got %d", blocked, got)
		}
	}
}

func TestCounterWidths(t *testing.T) {
	for _, bits := range []int{4, 8, 16} {
		f := MustNew(Params{K: 4, CounterBits: bits, Counters: 4096, Seed: 1})
		want := uint32(1)<<bits - 1
		if f.MaxCount() != want {
			t.Errorf("bits=%d MaxCount = %d, want %d", bits, f.MaxCount(), want)
		}
		for i := uint32(0); i < want+10; i++ {
			f.Increment(5)
		}
		if got := f.Get(5); got != want {
			t.Errorf("bits=%d saturated Get = %d, want %d", bits, got, want)
		}
	}
}

func TestBadParams(t *testing.T) {
	bad := []Params{
		{K: 0, CounterBits: 4, Counters: 64},
		{K: 4, CounterBits: 5, Counters: 64},
		{K: 4, CounterBits: 4, Counters: 0},
		{K: -1, CounterBits: 4, Counters: 64},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) should fail", p)
		}
	}
}

// Property: a counting Bloom filter with conservative update never
// under-counts — the estimate is always ≥ min(true count, MaxCount). This is
// the invariant that makes "probably hot" classifications safe (§3.2).
func TestNeverUndercounts(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		blocked := blocked
		f := func(keys []uint16) bool {
			filt := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 12, Blocked: blocked, Seed: 3})
			truth := map[uint64]uint32{}
			for _, k := range keys {
				filt.Increment(uint64(k))
				truth[uint64(k)]++
			}
			for k, n := range truth {
				want := n
				if want > 15 {
					want = 15
				}
				if filt.Get(k) < want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("blocked=%v: %v", blocked, err)
		}
	}
}

// Property: cooling halves every estimate (floor division), and never
// raises one.
func TestCoolingHalves(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		f := newTest4(blocked)
		keys := []uint64{1, 2, 3, 500, 9999}
		for i, k := range keys {
			for j := 0; j <= i*2; j++ {
				f.Increment(k)
			}
		}
		before := map[uint64]uint32{}
		for _, k := range keys {
			before[k] = f.Get(k)
		}
		f.Cool()
		for _, k := range keys {
			got := f.Get(k)
			if got > before[k]/2 {
				t.Errorf("blocked=%v key %d: cooled %d > %d/2", blocked, k, got, before[k])
			}
		}
	}
}

func TestReset(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		f := newTest4(blocked)
		for i := uint64(0); i < 100; i++ {
			f.Increment(i)
		}
		f.Reset()
		for i := uint64(0); i < 100; i++ {
			if f.Get(i) != 0 {
				t.Fatalf("blocked=%v Reset left residue at key %d", blocked, i)
			}
		}
	}
}

func TestTrackingErrorRate(t *testing.T) {
	// Size the filter for n keys at p=0.001 per the §4.2 formula, insert n
	// distinct keys once each, and check that the observed overestimation
	// rate on the inserted keys is small. (The formula bounds lookup false
	// positives; conservative update keeps actual overcounts lower.)
	const n = 10000
	m := SizeForError(n, 0.001, 4)
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: m, Seed: 5})
	for i := uint64(0); i < n; i++ {
		f.Increment(i)
	}
	over := 0
	for i := uint64(0); i < n; i++ {
		if f.Get(i) > 1 {
			over++
		}
	}
	if frac := float64(over) / n; frac > 0.01 {
		t.Errorf("overcount rate = %v, want < 1%% at sized m=%d", frac, m)
	}
}

func TestSizeForError(t *testing.T) {
	// k=4, p=0.001: r = -4/ln(1-exp(ln(0.001)/4)) ≈ 20.4 counters per key.
	m := SizeForError(1000, 0.001, 4)
	if m < 19500 || m > 21500 {
		t.Errorf("SizeForError(1000, 0.001, 4) = %d, want ≈ 20400", m)
	}
	// Lower error → more counters.
	if SizeForError(1000, 0.0001, 4) <= m {
		t.Error("smaller p must need more counters")
	}
	if got := SizeForError(0, 0.001, 4); got != 64 {
		t.Errorf("n=0 should clamp to 64, got %d", got)
	}
}

func TestSizeForErrorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { SizeForError(10, 0, 4) },
		func() { SizeForError(10, 1, 4) },
		func() { SizeForError(10, 0.01, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBlockedSingleCacheLine(t *testing.T) {
	// The defining property of the blocked CBF: all k counters for any key
	// live in the one 64-byte block TouchAddrs returns, the line the
	// simulator charges.
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 14, Blocked: true, Seed: 11})
	b := f.(*blocked)
	for k := uint64(0); k < 10000; k++ {
		addrs := f.TouchAddrs(k, nil)
		if len(addrs) != 1 {
			t.Fatalf("blocked TouchAddrs returned %d addresses, want 1", len(addrs))
		}
		blk := int(addrs[0] / BlockBytes)
		for i := 0; i < b.k; i++ {
			if slot := b.slot(k, i); slot/b.slotsPerBlk != blk {
				t.Fatalf("key %d: slot %d escapes block %d", k, slot, blk)
			}
		}
		// IncrementGet hoists its own probe loop; on an empty filter every
		// counter it bumps must sit in the same block.
		if k%20 == 0 {
			b.Reset()
			b.IncrementGet(k)
			for j := 0; j < b.blocks*b.slotsPerBlk; j++ {
				if b.arr.get(j) != 0 && j/b.slotsPerBlk != blk {
					t.Fatalf("key %d: IncrementGet bumped counter %d outside block %d", k, j, blk)
				}
			}
		}
	}
}

func TestStandardTouchAddrs(t *testing.T) {
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 14, Seed: 11})
	addrs := f.TouchAddrs(42, nil)
	if len(addrs) != 4 {
		t.Fatalf("standard TouchAddrs returned %d addresses, want k=4", len(addrs))
	}
	// Addresses must fall inside the counter array.
	max := f.SizeBytes()
	for _, a := range addrs {
		if a < 0 || a >= max {
			t.Errorf("address %d outside array of %d bytes", a, max)
		}
	}
}

func TestBlockedSlots128(t *testing.T) {
	// §4.2: each 64-byte cache line of a 4-bit CBF holds 128 counter slots.
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 10, Blocked: true, Seed: 1})
	b := f.(*blocked)
	if b.slotsPerBlk != 128 {
		t.Errorf("slotsPerBlk = %d, want 128", b.slotsPerBlk)
	}
}

func TestSizeBytes(t *testing.T) {
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1024, Seed: 1})
	// 1024 4-bit counters = 512 bytes.
	if got := f.SizeBytes(); got != 512 {
		t.Errorf("SizeBytes = %d, want 512", got)
	}
	f16 := MustNew(Params{K: 4, CounterBits: 16, Counters: 1024, Seed: 1})
	if got := f16.SizeBytes(); got != 2048 {
		t.Errorf("16-bit SizeBytes = %d, want 2048", got)
	}
}

func TestConservativeUpdateBeatsNaive(t *testing.T) {
	// Under heavy collision pressure (tiny filter), hot-key estimates must
	// still be exact-ish because only minimum counters advance.
	f := MustNew(Params{K: 4, CounterBits: 8, Counters: 256, Seed: 9})
	rng := xrand.New(21)
	// Background noise: 2000 increments over 200 cold keys.
	for i := 0; i < 2000; i++ {
		f.Increment(1000 + rng.Uint64n(200))
	}
	// One hot key incremented 50 times.
	for i := 0; i < 50; i++ {
		f.Increment(7)
	}
	got := f.Get(7)
	if got < 50 {
		t.Fatalf("undercounted hot key: %d < 50", got)
	}
	if got > 100 {
		t.Errorf("overcount too large even for conservative update: %d", got)
	}
}

func TestDistinctSeedsDistinctLayouts(t *testing.T) {
	a := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 12, Seed: 1})
	b := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 12, Seed: 2})
	same := 0
	for k := uint64(0); k < 100; k++ {
		aa := a.TouchAddrs(k, nil)
		bb := b.TouchAddrs(k, nil)
		if aa[0] == bb[0] {
			same++
		}
	}
	if same > 20 {
		t.Errorf("seeds produce correlated layouts: %d/100 first-index collisions", same)
	}
}

func BenchmarkStandardIncrement(b *testing.B) {
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 20, Seed: 1})
	for i := 0; i < b.N; i++ {
		f.Increment(uint64(i) & 0xffff)
	}
}

func BenchmarkBlockedIncrement(b *testing.B) {
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 20, Blocked: true, Seed: 1})
	for i := 0; i < b.N; i++ {
		f.Increment(uint64(i) & 0xffff)
	}
}

func BenchmarkStandardGet(b *testing.B) {
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 20, Seed: 1})
	for i := 0; i < 1<<16; i++ {
		f.Increment(uint64(i))
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= f.Get(uint64(i) & 0xffff)
	}
	_ = sink
}

func BenchmarkBlockedGet(b *testing.B) {
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 20, Blocked: true, Seed: 1})
	for i := 0; i < 1<<16; i++ {
		f.Increment(uint64(i))
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= f.Get(uint64(i) & 0xffff)
	}
	_ = sink
}

func BenchmarkCool(b *testing.B) {
	f := MustNew(Params{K: 4, CounterBits: 4, Counters: 1 << 20, Seed: 1})
	for i := 0; i < 1<<18; i++ {
		f.Increment(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Cool()
	}
}
