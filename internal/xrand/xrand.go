// Package xrand provides the deterministic random-number machinery used by
// every workload generator and simulator in this repository. All experiments
// must be bit-for-bit reproducible across runs and platforms, so the package
// implements its own splitmix64-seeded xoshiro256** generator rather than
// relying on math/rand's unspecified global state, plus a Zipf sampler
// supporting any exponent s > 0 (math/rand's Zipf requires s > 1, while
// in-memory cache popularity is often modeled with s ≤ 1).
package xrand

import "math"

// RNG is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, as recommended by
// the xoshiro authors to avoid correlated low-entropy seeds.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics when n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n(0)")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask
	hi = t >> 32
	t = aLo*bHi + mid1
	lo |= (t & mask) << 32
	hi += aHi*bHi + t>>32
	return hi, lo
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn requires n > 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place (Fisher-Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleUint64s permutes p in place (Fisher-Yates).
func (r *RNG) ShuffleUint64s(p []uint64) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s for any s > 0, using Hörmann's rejection-inversion method.
// Rank 0 is the most popular item. Instances are safe for sequential reuse
// but not for concurrent use.
//
// The method maps a uniform u through the inverse of hIntegral (one exp and
// one log1p for s != 1) and rounds, then accepts in one of two tests. Both
// steps are monotone in u, so for ranks 1..min(n, zipfTableRanks) a table
// says in u-space what they decide: the rank boundaries hIntegral(k+0.5),
// the first test's thresholds hIntegral(k-sDiv), and the second test's
// constants hIntegral(k+0.5)-h(k), computed by the very function the exact
// path calls, so that test compares bit-identical floats. A guide table
// over u finds the rank in O(1). The first two columns stand for decisions
// the exact path takes on a computed x = hIntegralInverse(u), which, like
// the columns themselves, carries a rounding error of a few ulps (about
// 1e-15·x). A draw within zipfGuard·(1+|u|) of a boundary or threshold, or
// beyond the table, takes the exact path instead. Any other draw lies, in
// x, at least zipfGuard·(1+|u|)/h(x) ≥ 1e-9·min(x, x^s) from the decision
// point, several orders of magnitude beyond that error, so the table
// decides it as the exact path would: Next returns the same ranks from the
// same random draws, and consumes the same draws on rejection.
//
// The table costs about three exact draws per rank to build, so it is built
// once the sampler has drawn as many values as the table has ranks, and
// never for s == 1, where the exact inverse is a single exp and the table
// gains nothing.
type Zipf struct {
	rng         *RNG
	n           uint64
	s           float64
	oneMinusS   float64
	hIntegralX1 float64
	hIntegralN  float64
	sDiv        float64
	// untilTable counts the draws left before the table is built; it never
	// reaches zero when no table is to be built.
	untilTable int
	tab        *zipfTable
}

// zipfTable is the lookup form of ranks 1..len(bound); index j is rank j+1.
// The columns are separate arrays so that the guide's forward scan reads
// densely packed bounds.
type zipfTable struct {
	bound  []float64 // hIntegral(k+0.5): rank k's upper end in u
	first  []float64 // hIntegral(k-sDiv): the first test passes from here up
	second []float64 // hIntegral(k+0.5)-h(k): the second test's constant
	guide  []uint32  // per u bucket, the lowest index a u in it can have
	lo     float64   // u at the guide's bucket 0
	scale  float64   // guide buckets per unit of u
}

// zipfTableRanks caps a table at 2^16 ranks (about 1.8 MB); draws of
// higher ranks take the exact path.
const zipfTableRanks = 1 << 16

// zipfGuard is the relative width of the band around each table boundary
// and threshold within which a draw takes the exact path.
const zipfGuard = 1e-9

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0, s != 1 is
// handled analytically and s == 1 via the logarithmic limit. It panics when
// n == 0 or s <= 0.
func NewZipf(rng *RNG, s float64, n uint64) *Zipf {
	if n == 0 {
		panic("xrand: NewZipf requires n > 0")
	}
	if s <= 0 {
		panic("xrand: NewZipf requires s > 0")
	}
	z := &Zipf{rng: rng, n: n, s: s}
	z.oneMinusS = 1 - s
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.sDiv = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	z.untilTable = -1
	if z.oneMinusS != 0 {
		z.untilTable = int(min(n, zipfTableRanks))
	}
	return z
}

// h is the unnormalized density x^(-s).
func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

// hIntegral is the antiderivative of h.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

// secondTest is the constant the exact path's second acceptance test
// compares u with for rank k.
func (z *Zipf) secondTest(k float64) float64 { return z.hIntegral(k+0.5) - z.h(k) }

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a stable series near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a stable series near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// buildTable fills the lookup table for ranks 1..min(n, zipfTableRanks).
func (z *Zipf) buildTable() {
	ranks := int(min(z.n, zipfTableRanks))
	t := &zipfTable{
		bound:  make([]float64, ranks),
		first:  make([]float64, ranks),
		second: make([]float64, ranks),
		guide:  make([]uint32, 2*ranks),
		lo:     z.hIntegralX1,
	}
	for j := range ranks {
		k := float64(j + 1)
		t.bound[j] = z.hIntegral(k + 0.5)
		t.second[j] = z.secondTest(k)
		// sDiv <= 0.5, so k-sDiv > 0; the guard keeps a NaN out regardless.
		t.first[j] = math.Inf(-1)
		if k-z.sDiv > 0 {
			t.first[j] = z.hIntegral(k - z.sDiv)
		}
	}
	t.scale = float64(len(t.guide)) / (t.bound[ranks-1] - t.lo)
	// guide[i] is the lowest j whose bound falls in bucket i or above, by
	// the very bucket function lookups use: a u in bucket i lies below its
	// rank's bound, so its index is at least guide[i].
	i := 0
	for j, b := range t.bound {
		for top := t.bucket(b); i <= top; i++ {
			t.guide[i] = uint32(j)
		}
	}
	for ; i < len(t.guide); i++ {
		t.guide[i] = uint32(ranks - 1)
	}
	z.tab = t
}

// bucket is u's guide bucket, clamped to the table.
func (t *zipfTable) bucket(u float64) int {
	i := int((u - t.lo) * t.scale)
	return max(0, min(i, len(t.guide)-1))
}

// Table verdicts on one draw.
const (
	zipfExact  = iota // too close to a boundary or threshold, or beyond the table
	zipfAccept        // the exact path accepts this rank
	zipfReject        // the exact path draws again
)

// lookup decides the draw u from the table, returning its 0-based rank
// with zipfAccept.
func (t *zipfTable) lookup(u float64) (uint64, int) {
	if u >= t.bound[len(t.bound)-1] {
		return 0, zipfExact
	}
	j := int(t.guide[t.bucket(u)])
	for u >= t.bound[j] {
		j++
	}
	g := zipfGuard * (1 + math.Abs(u))
	if t.bound[j]-u < g || j > 0 && u-t.bound[j-1] < g {
		return 0, zipfExact
	}
	switch d := u - t.first[j]; {
	case d >= g:
		return uint64(j), zipfAccept
	case d > -g:
		return 0, zipfExact
	case u >= t.second[j]:
		return uint64(j), zipfAccept
	}
	return 0, zipfReject
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() uint64 {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		if z.tab != nil {
			rank, verdict := z.tab.lookup(u)
			if verdict == zipfAccept {
				return rank
			}
			if verdict == zipfReject {
				continue
			}
		} else if z.untilTable > 0 {
			if z.untilTable--; z.untilTable == 0 {
				z.buildTable()
			}
		}
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.secondTest(k) {
			return uint64(k) - 1
		}
	}
}

// Hash64 mixes a 64-bit value (splitmix64 finalizer). Used wherever a cheap
// stateless hash of a page number or key is needed.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64Seed mixes x with an independent seed stream.
func Hash64Seed(x, seed uint64) uint64 {
	return Hash64(x ^ Hash64(seed))
}
