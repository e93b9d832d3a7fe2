// Package cbf implements the counting Bloom filters at the heart of
// HybridTier's probabilistic access tracking (§3.2, §4.2 of the paper).
//
// Two layouts are provided behind the common Filter interface:
//
//   - Standard: the textbook counting Bloom filter. A GET/INCREMENT touches k
//     counters scattered across the whole array, so a lookup can cost up to k
//     cache misses.
//   - Blocked: all k counters for a key live inside a single 64-byte block
//     (one cache line), so every lookup incurs exactly one cache access and
//     at most one miss, at the price of a slightly higher collision rate
//     (§4.2, Fig. 8).
//
// Counters are conservative-update: INCREMENT only bumps the counters equal
// to the current minimum, which keeps overestimation low. Counter width is
// configurable: 4 bits for regular 4 KB pages (counts saturate at 15 — pages
// that hot all belong in the fast tier, §3.2) and 16 bits for 2 MB huge
// pages (§4.4). Cooling halves every counter in place, implementing the
// exponential-moving-average decay with factor 2.
package cbf

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Filter is the counting-Bloom-filter operation set used by the trackers.
type Filter interface {
	// Get returns the estimated count for key.
	Get(key uint64) uint32
	// Increment adds one access for key and returns the new estimate.
	Increment(key uint64) uint32
	// IncrementGet is Increment that also reports the pre-increment
	// estimate, sparing hot paths a separate Get's probe round.
	IncrementGet(key uint64) (before, after uint32)
	// Cool halves every counter (EMA decay factor 2).
	Cool()
	// Reset zeroes every counter.
	Reset()
	// SizeBytes is the metadata memory consumed by the counter array.
	SizeBytes() int64
	// MaxCount is the saturation value of one counter.
	MaxCount() uint32
	// TouchAddrs appends the metadata byte offsets a Get/Increment for key
	// dereferences, for cache-overhead modeling. The returned slice aliases
	// dst's backing array.
	TouchAddrs(key uint64, dst []int64) []int64
}

// Params describes a filter's configuration.
type Params struct {
	// K is the number of hash functions. The paper uses K = 4.
	K int
	// CounterBits is the width of one counter: 4, 8, or 16.
	CounterBits int
	// Counters is the total number of counter slots m.
	Counters int
	// Blocked selects the cache-line-blocked layout.
	Blocked bool
	// Seed differentiates hash streams between filter instances.
	Seed uint64
}

// SizeForError returns the number of counters m for tracking n keys with
// target false-positive (tracking-error) probability p using k hashes,
// following the well-established Bloom formulas quoted in §4.2:
//
//	r = -k / ln(1 - exp(ln(p)/k)),  m = ceil(n*r)
func SizeForError(n int, p float64, k int) int {
	if n <= 0 {
		return 64
	}
	if p <= 0 || p >= 1 {
		panic("cbf: SizeForError requires 0 < p < 1")
	}
	if k <= 0 {
		panic("cbf: SizeForError requires k > 0")
	}
	r := -float64(k) / math.Log(1-math.Exp(math.Log(p)/float64(k)))
	m := int(math.Ceil(float64(n) * r))
	if m < 64 {
		m = 64
	}
	return m
}

// New constructs a filter from p. It returns an error for unsupported
// counter widths or non-positive sizes rather than panicking, since sizes
// are frequently computed from user configuration.
func New(p Params) (Filter, error) {
	if p.K <= 0 {
		return nil, fmt.Errorf("cbf: K must be positive, got %d", p.K)
	}
	if p.Counters <= 0 {
		return nil, fmt.Errorf("cbf: Counters must be positive, got %d", p.Counters)
	}
	switch p.CounterBits {
	case 4, 8, 16:
	default:
		return nil, fmt.Errorf("cbf: unsupported counter width %d (want 4, 8, or 16)", p.CounterBits)
	}
	if p.Blocked {
		return newBlocked(p), nil
	}
	return newStandard(p), nil
}

// MustNew is New for configurations known statically correct; it panics on
// error and is intended for package defaults and tests.
func MustNew(p Params) Filter {
	f, err := New(p)
	if err != nil {
		panic(err)
	}
	return f
}

// counterArray is a packed array of 4-, 8-, or 16-bit saturating counters.
// Counter widths are powers of two, so slot addressing is shift/mask only:
// slot i lives in words[i>>slotShift] at bit (i&slotMask)<<bitsLog.
type counterArray struct {
	bits      int
	bitsLog   uint // log2(bits)
	slotShift uint // log2(slots per word)
	slotMask  int  // slots per word - 1
	coolMask  uint64
	max       uint32
	words     []uint64
}

func newCounterArray(bits, n int) *counterArray {
	perWord := 64 / bits
	words := (n + perWord - 1) / perWord
	c := &counterArray{
		bits:  bits,
		max:   uint32(1)<<bits - 1,
		words: make([]uint64, words),
	}
	switch bits {
	case 4:
		c.bitsLog, c.coolMask = 2, 0x7777777777777777
	case 8:
		c.bitsLog, c.coolMask = 3, 0x7f7f7f7f7f7f7f7f
	default: // 16
		c.bitsLog, c.coolMask = 4, 0x7fff7fff7fff7fff
	}
	c.slotShift = 6 - c.bitsLog
	c.slotMask = perWord - 1
	return c
}

func (c *counterArray) get(i int) uint32 {
	w := c.words[i>>c.slotShift]
	shift := uint(i&c.slotMask) << c.bitsLog
	return uint32(w>>shift) & c.max
}

func (c *counterArray) set(i int, v uint32) {
	if v > c.max {
		v = c.max
	}
	idx := i >> c.slotShift
	shift := uint(i&c.slotMask) << c.bitsLog
	mask := uint64(c.max) << shift
	c.words[idx] = (c.words[idx] &^ mask) | uint64(v)<<shift
}

// cool halves every counter, one word — 16/8/4 counters — at a time:
// shifting the whole word right one bit and clearing each field's top bit
// halves every field in parallel, exactly matching per-slot v >> 1. The
// per-slot loop this replaces dominated HybridTier profiles (a full-array
// sweep every cooling period).
func (c *counterArray) cool() {
	mask := c.coolMask
	for i, w := range c.words {
		if w != 0 {
			c.words[i] = (w >> 1) & mask
		}
	}
}

func (c *counterArray) reset() {
	for i := range c.words {
		c.words[i] = 0
	}
}

func (c *counterArray) sizeBytes() int64 { return int64(len(c.words) * 8) }

// standard is the unblocked counting Bloom filter.
type standard struct {
	arr  *counterArray
	k    int
	m    uint64
	seed uint64
}

func newStandard(p Params) *standard {
	return &standard{
		arr:  newCounterArray(p.CounterBits, p.Counters),
		k:    p.K,
		m:    uint64(p.Counters),
		seed: p.Seed,
	}
}

// indexes derives the i-th counter index for key using double hashing
// (h1 + i*h2 mod m), the standard way to synthesize k hash functions from
// two independent 64-bit mixes.
func (s *standard) index(key uint64, i int) int {
	h1 := xrand.Hash64Seed(key, s.seed)
	h2 := xrand.Hash64Seed(key, s.seed^0xa5a5a5a5a5a5a5a5) | 1
	return int((h1 + uint64(i)*h2) % s.m)
}

func (s *standard) Get(key uint64) uint32 {
	// The two base hashes are hoisted out of the probe loop; index() would
	// recompute them for every i.
	h1 := xrand.Hash64Seed(key, s.seed)
	h2 := xrand.Hash64Seed(key, s.seed^0xa5a5a5a5a5a5a5a5) | 1
	min := s.arr.max
	for i := 0; i < s.k; i++ {
		if v := s.arr.get(int((h1 + uint64(i)*h2) % s.m)); v < min {
			min = v
		}
	}
	return min
}

func (s *standard) Increment(key uint64) uint32 {
	_, after := s.IncrementGet(key)
	return after
}

// IncrementGet is Increment that also reports the pre-increment estimate,
// saving callers that need both a second full probe round.
func (s *standard) IncrementGet(key uint64) (before, after uint32) {
	h1 := xrand.Hash64Seed(key, s.seed)
	h2 := xrand.Hash64Seed(key, s.seed^0xa5a5a5a5a5a5a5a5) | 1
	min := s.arr.max
	idx := make([]int, 0, 8)
	for i := 0; i < s.k; i++ {
		j := int((h1 + uint64(i)*h2) % s.m)
		idx = append(idx, j)
		if v := s.arr.get(j); v < min {
			min = v
		}
	}
	if min >= s.arr.max {
		return s.arr.max, s.arr.max // saturated
	}
	// Conservative update: only the minimum counters advance.
	for _, j := range idx {
		if s.arr.get(j) == min {
			s.arr.set(j, min+1)
		}
	}
	return min, min + 1
}

func (s *standard) Cool()            { s.arr.cool() }
func (s *standard) Reset()           { s.arr.reset() }
func (s *standard) SizeBytes() int64 { return s.arr.sizeBytes() }
func (s *standard) MaxCount() uint32 { return s.arr.max }

func (s *standard) TouchAddrs(key uint64, dst []int64) []int64 {
	bytesPer := int64(s.arr.bits) // conservative: byte offset of the counter
	for i := 0; i < s.k; i++ {
		dst = append(dst, int64(s.index(key, i))*bytesPer/8)
	}
	return dst
}

// blocked is the cache-line-blocked counting Bloom filter (§4.2, Fig. 8).
// The counter array is partitioned into 64-byte blocks; a key hashes to one
// block and its k counters are chosen within that block, so a lookup touches
// exactly one cache line.
type blocked struct {
	arr         *counterArray
	k           int
	seed        uint64
	blocks      int
	slotsPerBlk int
}

// BlockBytes is the block size in bytes, matching a CPU cache line.
const BlockBytes = 64

func newBlocked(p Params) *blocked {
	slotsPerBlk := BlockBytes * 8 / p.CounterBits // 128 slots for 4-bit counters
	blocks := (p.Counters + slotsPerBlk - 1) / slotsPerBlk
	if blocks == 0 {
		blocks = 1
	}
	return &blocked{
		arr:         newCounterArray(p.CounterBits, blocks*slotsPerBlk),
		k:           p.K,
		seed:        p.Seed,
		blocks:      blocks,
		slotsPerBlk: slotsPerBlk,
	}
}

func (b *blocked) slot(key uint64, i int) int {
	h1 := xrand.Hash64Seed(key, b.seed)
	blk := int(h1 % uint64(b.blocks))
	h2 := xrand.Hash64Seed(key, b.seed^0x5bd1e9955bd1e995)
	h3 := xrand.Hash64Seed(key, b.seed^0xc2b2ae3d27d4eb4f) | 1
	within := int((h2 + uint64(i)*h3) % uint64(b.slotsPerBlk))
	return blk*b.slotsPerBlk + within
}

func (b *blocked) Get(key uint64) uint32 {
	// Hash hoisting as in standard.Get: slot() recomputes three hashes per
	// probe. slotsPerBlk is a power of two (BlockBytes*8 / {4,8,16}), so
	// the within-block modulo is a mask.
	h1 := xrand.Hash64Seed(key, b.seed)
	base := int(h1%uint64(b.blocks)) * b.slotsPerBlk
	h2 := xrand.Hash64Seed(key, b.seed^0x5bd1e9955bd1e995)
	h3 := xrand.Hash64Seed(key, b.seed^0xc2b2ae3d27d4eb4f) | 1
	wmask := uint64(b.slotsPerBlk - 1)
	min := b.arr.max
	for i := 0; i < b.k; i++ {
		j := base + int((h2+uint64(i)*h3)&wmask)
		if v := b.arr.get(j); v < min {
			min = v
		}
	}
	return min
}

func (b *blocked) Increment(key uint64) uint32 {
	_, after := b.IncrementGet(key)
	return after
}

// IncrementGet is Increment that also reports the pre-increment estimate,
// saving callers that need both a second full probe round.
func (b *blocked) IncrementGet(key uint64) (before, after uint32) {
	h1 := xrand.Hash64Seed(key, b.seed)
	base := int(h1%uint64(b.blocks)) * b.slotsPerBlk
	h2 := xrand.Hash64Seed(key, b.seed^0x5bd1e9955bd1e995)
	h3 := xrand.Hash64Seed(key, b.seed^0xc2b2ae3d27d4eb4f) | 1
	wmask := uint64(b.slotsPerBlk - 1)
	min := b.arr.max
	idx := make([]int, 0, 8)
	for i := 0; i < b.k; i++ {
		j := base + int((h2+uint64(i)*h3)&wmask)
		idx = append(idx, j)
		if v := b.arr.get(j); v < min {
			min = v
		}
	}
	if min >= b.arr.max {
		return b.arr.max, b.arr.max
	}
	for _, j := range idx {
		if b.arr.get(j) == min {
			b.arr.set(j, min+1)
		}
	}
	return min, min + 1
}

func (b *blocked) Cool()            { b.arr.cool() }
func (b *blocked) Reset()           { b.arr.reset() }
func (b *blocked) SizeBytes() int64 { return b.arr.sizeBytes() }
func (b *blocked) MaxCount() uint32 { return b.arr.max }

// TouchAddrs returns a single address: the base of the block holding all k
// counters, which is the whole point of the blocked layout.
func (b *blocked) TouchAddrs(key uint64, dst []int64) []int64 {
	h1 := xrand.Hash64Seed(key, b.seed)
	blk := int64(h1 % uint64(b.blocks))
	return append(dst, blk*BlockBytes)
}
