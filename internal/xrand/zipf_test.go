package xrand

import (
	"fmt"
	"math"
	"testing"
)

// refZipf is Zipf.Next as it was before the lookup table: Hörmann's
// rejection-inversion with an exp and a log1p per draw, frozen here so the
// table path is held to it draw for draw.
type refZipf struct {
	rng         *RNG
	n           uint64
	s           float64
	oneMinusS   float64
	hIntegralX1 float64
	hIntegralN  float64
	sDiv        float64
}

func newRefZipf(rng *RNG, s float64, n uint64) *refZipf {
	z := &refZipf{rng: rng, n: n, s: s}
	z.oneMinusS = 1 - s
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.sDiv = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *refZipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *refZipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return refHelper2(z.oneMinusS*logX) * logX
}

func (z *refZipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(refHelper1(t) * x)
}

func refHelper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

func refHelper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

func (z *refZipf) next() uint64 {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// matchReference draws count values from a Zipf and from the frozen
// reference on generators seeded alike, and fails at the first rank that
// differs or when the two consumed different numbers of random draws.
func matchReference(t testing.TB, s float64, n, seed uint64, count int, prebuild bool) *Zipf {
	t.Helper()
	z := NewZipf(New(seed), s, n)
	if prebuild && z.untilTable > 0 {
		z.buildTable()
	}
	ref := newRefZipf(New(seed), s, n)
	for i := range count {
		if got, want := z.Next(), ref.next(); got != want {
			t.Fatalf("s=%v n=%d seed=%d: draw %d = %d, reference %d", s, n, seed, i, got, want)
		}
	}
	if z.rng.Uint64() != ref.rng.Uint64() {
		t.Fatalf("s=%v n=%d seed=%d: the two consumed different random draws", s, n, seed)
	}
	return z
}

// zipfShapes are the (s, n) pairs the registered workloads draw from: cdn
// (s 0.9, 1.5k/4k/30k objects at tiny/quick/full and by default), social
// (s 1.05 over 6× as many), silo (s 0.99 over 2^15 records at tiny and
// quick, 2^20 at full, 2^21 by default) and zipf/shifting-zipf (s 1.0 over
// 2^16 pages), then the edges: s 0.5 and 2, n 1 and 2, and n 2^20 — past
// the table — under a skew that reaches it often.
var zipfShapes = []struct {
	s float64
	n uint64
}{
	{0.9, 1_500}, {0.9, 4_000}, {0.9, 30_000},
	{1.05, 9_000}, {1.05, 24_000}, {1.05, 180_000},
	{0.99, 1 << 15}, {0.99, 1 << 20}, {0.99, 1 << 21},
	{1.0, 1 << 16},
	{0.5, 1 << 16}, {2, 1 << 16}, {0.9, 1}, {1.2, 2}, {0.5, 1 << 20},
}

// TestZipfMatchesReference holds Next to the frozen reference for 10^7
// draws in total over every shape a workload uses plus the edges, the first
// draws of each before the table exists and the rest through it.
func TestZipfMatchesReference(t *testing.T) {
	per := 10_000_000/len(zipfShapes) + 1
	if testing.Short() {
		per = 200_000
	}
	for i, c := range zipfShapes {
		t.Run(fmt.Sprintf("s=%v/n=%d", c.s, c.n), func(t *testing.T) {
			z := matchReference(t, c.s, c.n, uint64(i+1), per, false)
			if (z.tab != nil) != (c.s != 1) {
				t.Fatalf("table built: %v; want one exactly when s != 1", z.tab != nil)
			}
			if z.tab == nil {
				return
			}
			// The share of draws the table leaves to the exact path:
			// guard bands plus ranks past the table.
			exact, rng := 0, New(99)
			const probes = 100_000
			for range probes {
				u := z.hIntegralN + rng.Float64()*(z.hIntegralX1-z.hIntegralN)
				if _, v := z.tab.lookup(u); v == zipfExact {
					exact++
				}
			}
			share := float64(exact) / probes
			t.Logf("exact-path share %.4f%%", 100*share)
			if c.n <= zipfTableRanks && share > 0.001 {
				t.Errorf("%.3f%% of draws take the exact path, want under 0.1%%", 100*share)
			}
		})
	}
}

// FuzzZipfMatchesReference: for any exponent in (0, 8], domain up to 2^21
// and seed, Next draws what the reference draws, with the table built up
// front or on its own schedule.
func FuzzZipfMatchesReference(f *testing.F) {
	f.Add(0.9, uint64(30_000), uint64(1))
	f.Add(1.05, uint64(180_000), uint64(2))
	f.Add(0.99, uint64(1<<20), uint64(3))
	f.Add(1.0, uint64(1<<16), uint64(4))
	f.Add(2.0, uint64(2), uint64(5))
	f.Add(0.5, uint64(1), uint64(6))
	f.Add(0.001, uint64(70_000), uint64(7))
	f.Add(7.5, uint64(1000), uint64(8))
	f.Fuzz(func(t *testing.T, s float64, n, seed uint64) {
		s = math.Mod(math.Abs(s), 8)
		if !(s > 0) {
			t.Skip("s must be positive")
		}
		n = n%(1<<21) + 1
		matchReference(t, s, n, seed, 20_000, seed&1 == 0)
	})
}

// BenchmarkZipfNext measures one draw with the table in place ("draw") and
// a sampler's whole life — NewZipf, the exact draws before its table, the
// build, then table draws — over 10^6 draws ("new+1M", reported per draw),
// for the cdn, silo and zipf shapes.
func BenchmarkZipfNext(b *testing.B) {
	for _, c := range []struct {
		s float64
		n uint64
	}{{0.9, 30_000}, {0.99, 1 << 20}, {1.0, 1 << 16}} {
		b.Run(fmt.Sprintf("s=%v/n=%d/draw", c.s, c.n), func(b *testing.B) {
			z := NewZipf(New(1), c.s, c.n)
			if z.untilTable > 0 {
				z.buildTable()
			}
			var sink uint64
			for b.Loop() {
				sink ^= z.Next()
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("s=%v/n=%d/new+1M", c.s, c.n), func(b *testing.B) {
			const draws = 1_000_000
			var sink uint64
			for b.Loop() {
				z := NewZipf(New(1), c.s, c.n)
				for range draws {
					sink ^= z.Next()
				}
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
		})
	}
}
