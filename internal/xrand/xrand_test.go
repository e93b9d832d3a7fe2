package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/1000 times", same)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(1)
	for _, n := range []uint64{1, 2, 3, 7, 16, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) must panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(7)
	const n, trials = 10, 100000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d: %d observations, want ≈ %d", i, c, want)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// Property: mul64 agrees with native multiplication on the low word.
func TestMul64LowWord(t *testing.T) {
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfRange(t *testing.T) {
	r := New(9)
	for _, s := range []float64{0.5, 0.99, 1.0, 1.2, 2.0} {
		z := NewZipf(r, s, 1000)
		for i := 0; i < 5000; i++ {
			if v := z.Next(); v >= 1000 {
				t.Fatalf("Zipf(s=%v) = %d out of range", s, v)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With s = 0.99 over 10k items, the top 10% of ranks should absorb the
	// majority of draws — the skew §2.2 quotes for production caches.
	r := New(13)
	z := NewZipf(r, 0.99, 10000)
	const draws = 200000
	top := 0
	for i := 0; i < draws; i++ {
		if z.Next() < 1000 {
			top++
		}
	}
	frac := float64(top) / draws
	if frac < 0.5 {
		t.Errorf("top-10%% share = %v, want > 0.5 for s=0.99", frac)
	}
}

func TestZipfRankOrdering(t *testing.T) {
	// Lower ranks must be more popular.
	r := New(17)
	z := NewZipf(r, 1.1, 100)
	var counts [100]int
	for i := 0; i < 300000; i++ {
		counts[z.Next()]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[50]) {
		t.Errorf("rank popularity not monotone: c0=%d c10=%d c50=%d",
			counts[0], counts[10], counts[50])
	}
}

func TestZipfExactDistributionSmall(t *testing.T) {
	// For n=2, s=1: p(0)/p(1) should be 2.
	r := New(19)
	z := NewZipf(r, 1.0, 2)
	var c [2]int
	for i := 0; i < 300000; i++ {
		c[z.Next()]++
	}
	ratio := float64(c[0]) / float64(c[1])
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("p(0)/p(1) = %v, want ≈ 2", ratio)
	}
}

func TestZipfPanics(t *testing.T) {
	r := New(1)
	for _, fn := range []func(){
		func() { NewZipf(r, 0, 10) },
		func() { NewZipf(r, -1, 10) },
		func() { NewZipf(r, 1, 0) },
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

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	total := 0
	const trials = 1000
	for i := uint64(0); i < trials; i++ {
		a := Hash64(i)
		b := Hash64(i ^ 1)
		total += popcount(a ^ b)
	}
	avg := float64(total) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average = %v bits, want ≈ 32", avg)
	}
}

func TestHash64SeedIndependence(t *testing.T) {
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if Hash64Seed(i, 1)%64 == Hash64Seed(i, 2)%64 {
			same++
		}
	}
	// Two independent streams agree mod 64 about 1/64 of the time.
	if same > 60 {
		t.Errorf("seeded hashes too correlated: %d/1000 collisions", same)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
