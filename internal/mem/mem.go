// Package mem models a two-tier CXL memory system at page granularity: a
// fast tier (local DRAM) with limited capacity and a slow tier (CXL-attached
// memory) holding everything else. It is the substrate the paper's runtime
// manipulates through migration syscalls; here the same operations are
// explicit methods with deterministic costs.
//
// The model is deliberately simple and fully parameterized: what tiering
// systems react to is *which tier each page occupies* and the relative
// latency/bandwidth gap between tiers (Figure 1: CXL ≈ 2-5× local-DRAM
// latency, 20-70% of its per-channel bandwidth). Absolute nanosecond values
// come from §5.1's emulation setup (124 ns idle CXL latency, 34 GB/s).
package mem

import (
	"errors"
	"fmt"
	"math/bits"
)

// PageID identifies a page in the dense simulated address space
// [0, NumPages). Address = PageID * PageBytes.
type PageID uint64

// Tier is a memory tier.
type Tier uint8

// The two tiers of a CXL memory system.
const (
	Slow Tier = iota // CXL-attached memory
	Fast             // local DRAM
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	if t == Fast {
		return "fast"
	}
	return "slow"
}

// Page sizes supported by the model (§4.4).
const (
	RegularPageBytes = 4 << 10
	HugePageBytes    = 2 << 20
)

// AllocMode controls where a page lands on first touch.
type AllocMode uint8

const (
	// AllocFastFirst places new pages in the fast tier while space remains,
	// then falls back to slow — Linux first-touch behaviour with a NUMA
	// fallback, used by most systems in the evaluation.
	AllocFastFirst AllocMode = iota
	// AllocSlow places all new pages in the slow tier, the setup §5.2 uses
	// for ARC and TwoQ ("assume the cache is initially empty").
	AllocSlow
	// AllocFast places all pages in the fast tier regardless of capacity,
	// modeling the all-fast-tier upper bound of Figure 11. FastCap is
	// ignored.
	AllocFast
)

// Config describes a tiered memory instance.
type Config struct {
	// NumPages is the total (dense) page space the workload can touch.
	NumPages int
	// FastPages is the fast-tier capacity in pages.
	FastPages int
	// PageBytes is the migration/tracking granularity (4 KB or 2 MB).
	PageBytes int64
	// Alloc is the first-touch placement policy.
	Alloc AllocMode
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumPages <= 0 {
		return fmt.Errorf("mem: NumPages must be positive, got %d", c.NumPages)
	}
	if c.FastPages < 0 {
		return fmt.Errorf("mem: FastPages must be non-negative, got %d", c.FastPages)
	}
	if c.PageBytes != RegularPageBytes && c.PageBytes != HugePageBytes {
		return fmt.Errorf("mem: PageBytes must be 4KiB or 2MiB, got %d", c.PageBytes)
	}
	return nil
}

// Errors returned by migration operations.
var (
	// ErrFastFull reports that a promotion could not find free fast-tier
	// space. Policies respond by demoting first (watermarks) or skipping.
	ErrFastFull = errors.New("mem: fast tier full")
	// ErrBadPage reports a page id outside the configured space.
	ErrBadPage = errors.New("mem: page id out of range")
)

// Stats counts migrations and placement events.
type Stats struct {
	Promotions   uint64 `json:"promotions"`
	Demotions    uint64 `json:"demotions"`
	FastAllocs   uint64 `json:"fast_allocs"`
	SlowAllocs   uint64 `json:"slow_allocs"`
	FailedPromos uint64 `json:"failed_promos"`
}

// Page-state encoding: 0 is untouched; an allocated page stores its tier
// plus one, so the simulator's hottest operation — Touch on an allocated
// page — is one byte load, one compare, and a subtraction, small enough to
// inline into the caller's loop.
const (
	stateFree     = uint8(0)
	stateFromTier = uint8(1) // state = stateFromTier + uint8(tier)
)

// Memory is a two-tier page placement model. It is not safe for concurrent
// use; the concurrent runtime in internal/core serializes access.
type Memory struct {
	cfg Config
	// state packs allocation and tier per page into one byte (see the
	// state* constants): half the metadata footprint and half the cache
	// traffic of separate tier and allocated arrays.
	state []uint8
	// fast has bit p set exactly when page p is in the fast tier, so
	// ScanFastFrom passes 64 slow pages per word it reads.
	fast     []uint64
	fastUsed int
	allocs   int
	stats    Stats
}

// New creates a Memory from cfg.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Memory{
		cfg:   cfg,
		state: make([]uint8, cfg.NumPages),
		fast:  make([]uint64, (cfg.NumPages+63)/64),
	}, nil
}

// FastCap returns the fast-tier capacity in pages.
func (m *Memory) FastCap() int { return m.cfg.FastPages }

// FastUsed returns the number of pages currently resident in the fast tier.
func (m *Memory) FastUsed() int { return m.fastUsed }

// FastFree returns the free fast-tier capacity in pages.
func (m *Memory) FastFree() int {
	if m.cfg.Alloc == AllocFast {
		return m.cfg.NumPages // capacity is unbounded in the upper-bound model
	}
	return m.cfg.FastPages - m.fastUsed
}

// Stats returns a copy of the migration statistics.
func (m *Memory) Stats() Stats { return m.stats }

// Touch records an access to page p, allocating it on first touch according
// to the AllocMode. It returns the tier serving the access. The allocated
// fast path is deliberately tiny so it inlines into the simulator's op loop;
// first touches take the cold path in touchNew.
func (m *Memory) Touch(p PageID) (Tier, error) {
	if t, ok := m.TouchTier(p); ok {
		return t, nil
	}
	return m.touchNew(p)
}

// TouchTier is Touch's allocated fast path, split out so hot loops can
// inline it: it returns the serving tier and true when p is already
// allocated — the overwhelmingly common case — or false when the caller
// must fall back to Touch for first-touch placement or a bad page id.
func (m *Memory) TouchTier(p PageID) (Tier, bool) {
	if p < PageID(len(m.state)) {
		if st := m.state[p]; st != stateFree {
			return Tier(st - stateFromTier), true
		}
	}
	return Slow, false
}

// PageStates returns the page-state bytes for a caller's own copy of
// TouchTier's test: 0 is an untouched page and 1+tier an allocated one.
// It is read-only, and the slice stays the same for the Memory's lifetime,
// so a hot loop may hold it across Touch, Promote and Demote.
func (m *Memory) PageStates() []uint8 { return m.state }

// touchNew performs the first-touch placement for p (and rejects bad page
// ids). Kept out of Touch — and out of Touch's callers — so the allocated
// fast path stays under the inlining budget.
//
//go:noinline
func (m *Memory) touchNew(p PageID) (Tier, error) {
	if p >= PageID(len(m.state)) {
		return Slow, ErrBadPage
	}
	m.allocs++
	var t Tier
	switch m.cfg.Alloc {
	case AllocFast:
		t = Fast
		m.fastUsed++
		m.stats.FastAllocs++
	case AllocFastFirst:
		if m.fastUsed < m.cfg.FastPages {
			t = Fast
			m.fastUsed++
			m.stats.FastAllocs++
		} else {
			t = Slow
			m.stats.SlowAllocs++
		}
	default: // AllocSlow
		t = Slow
		m.stats.SlowAllocs++
	}
	m.state[p] = stateFromTier + uint8(t)
	m.fast[p>>6] |= uint64(t) << (p & 63)
	return t, nil
}

// TierOf returns the current tier of p without allocating. Untouched pages
// report Slow (they would fault in wherever the AllocMode dictates, but a
// policy asking about an untouched page treats it as not-fast).
func (m *Memory) TierOf(p PageID) Tier {
	if p >= PageID(len(m.state)) || m.state[p] == stateFree {
		return Slow
	}
	return Tier(m.state[p] - stateFromTier)
}

// Promote moves p to the fast tier. Promoting an already-fast page is a
// no-op. Untouched pages are allocated directly into the fast tier (the
// paper promotes on sampled addresses, which are touched by definition, but
// policies replayed on traces may race with allocation).
func (m *Memory) Promote(p PageID) error {
	if p >= PageID(len(m.state)) {
		return ErrBadPage
	}
	st := m.state[p]
	if st == stateFromTier+uint8(Fast) {
		return nil
	}
	if m.cfg.Alloc != AllocFast && m.fastUsed >= m.cfg.FastPages {
		m.stats.FailedPromos++
		return ErrFastFull
	}
	if st == stateFree {
		m.allocs++
	}
	m.state[p] = stateFromTier + uint8(Fast)
	m.fast[p>>6] |= 1 << (p & 63)
	m.fastUsed++
	m.stats.Promotions++
	return nil
}

// Demote moves p to the slow tier. Demoting a slow or untouched page is a
// no-op.
func (m *Memory) Demote(p PageID) error {
	if p >= PageID(len(m.state)) {
		return ErrBadPage
	}
	if m.state[p] != stateFromTier+uint8(Fast) {
		return nil
	}
	m.state[p] = stateFromTier + uint8(Slow)
	m.fast[p>>6] &^= 1 << (p & 63)
	m.fastUsed--
	m.stats.Demotions++
	return nil
}

// ScanFastFrom calls fn for each allocated fast-tier page in address order,
// starting at page start (modulo the page count) and wrapping around the
// address space — the linear virtual-address-space scan HybridTier
// performs via /proc/PID/maps and /proc/PID/pagemaps (§4.3), resumable so
// repeated partial scans (kernel-style walks) treat all regions fairly
// instead of revisiting the lowest addresses. fn returning false stops the scan early. It returns the
// number of pages visited. fn may move pages; the walk sees each page's
// tier as of the moment it reaches it.
func (m *Memory) ScanFastFrom(start PageID, fn func(PageID) bool) int {
	n := len(m.state)
	if n == 0 {
		return 0
	}
	visited := 0
	s := int(start % PageID(n))
	// [s, n), then [0, s). Bits at or past n are never set.
	for _, r := range [2][2]int{{s, n}, {0, s}} {
		for i := r[0]; i < r[1]; i++ {
			w := m.fast[i>>6] >> (i & 63) // read afresh: fn may move pages
			if w == 0 {
				i |= 63 // on to the next word
				continue
			}
			if i += bits.TrailingZeros64(w); i >= r[1] {
				break
			}
			visited++
			if !fn(PageID(i)) {
				return visited
			}
		}
	}
	return visited
}

// CheckInvariants verifies internal consistency; tests call it after
// randomized operation sequences.
func (m *Memory) CheckInvariants() error {
	fast := 0
	allocs := 0
	for p, st := range m.state {
		isFast := st == stateFromTier+uint8(Fast)
		if st != stateFree {
			allocs++
			if isFast {
				fast++
			}
		}
		if bit := m.fast[p>>6]>>(p&63)&1 != 0; bit != isFast {
			return fmt.Errorf("mem: page %d is fast=%v but its bitmap bit is %v", p, isFast, bit)
		}
	}
	if fast != m.fastUsed {
		return fmt.Errorf("mem: fastUsed=%d but %d fast pages found", m.fastUsed, fast)
	}
	if allocs != m.allocs {
		return fmt.Errorf("mem: allocs=%d but %d allocated pages found", m.allocs, allocs)
	}
	if m.cfg.Alloc != AllocFast && fast > m.cfg.FastPages {
		return fmt.Errorf("mem: fast tier over capacity: %d > %d", fast, m.cfg.FastPages)
	}
	return nil
}
