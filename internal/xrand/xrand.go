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
type Zipf struct {
	rng              *RNG
	n                uint64
	s                float64
	oneMinusS        float64
	oneOverOneMinusS float64
	hIntegralX1      float64
	hIntegralN       float64
	sDiv             float64
}

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
	if z.oneMinusS != 0 {
		z.oneOverOneMinusS = 1 / z.oneMinusS
	}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.sDiv = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

// h is the unnormalized density x^(-s).
func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

// hIntegral is the antiderivative of h.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

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

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() uint64 {
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

// N returns the sampler's domain size.
func (z *Zipf) N() uint64 { return z.n }

// S returns the sampler's exponent.
func (z *Zipf) S() float64 { return z.s }

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
