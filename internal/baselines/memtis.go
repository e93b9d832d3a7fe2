package baselines

import (
	"math/bits"

	"repro/internal/mem"
	"repro/internal/tier"
)

// MemtisConfig parameterizes the Memtis baseline (Lee et al., SOSP'23),
// the state-of-the-art frequency-based system the paper compares against in
// depth (§6.3).
type MemtisConfig struct {
	// NumPages is the total page space; Memtis keeps 16 B of metadata for
	// every page in the system (§2.3.3), so its overhead scales with total
	// memory rather than fast-tier size.
	NumPages int
	// FastPages is the fast-tier capacity, used for threshold tuning.
	FastPages int
	// CoolSamples is the EMA cooling period in samples (§2.3.2; the paper
	// studies 2M-25M real samples — scaled to simulator rates).
	CoolSamples int
}

// DefaultMemtisConfig returns the baseline configuration for a memory
// layout, with a cooling period matching its real 2M-sample default scaled
// by the same factor as HybridTier's trackers.
func DefaultMemtisConfig(numPages, fastPages int) MemtisConfig {
	return MemtisConfig{
		NumPages:    numPages,
		FastPages:   fastPages,
		CoolSamples: 60_000,
	}
}

// perPageMetaBytes is Memtis' per-page metadata footprint: 16 B attached to
// each struct page (§2.3.3).
const perPageMetaBytes = 16

// Memtis tracks an exact access counter per page, builds a hotness
// histogram over log2 count buckets, and promotes pages whose count exceeds
// a threshold chosen so the hot set just fits the fast tier. Freshness
// comes from halving every counter each cooling period — the lagging-EMA
// behaviour §2.3.2 analyzes.
type Memtis struct {
	cfg     MemtisConfig
	env     tier.Env
	counts  []uint16
	hist    [17]int64 // hist[b] = pages whose count has bit-length b
	thresh  uint16
	since   int
	reclaim tier.Reclaimer
}

var _ tier.Policy = (*Memtis)(nil)

// NewMemtis constructs the baseline.
func NewMemtis(cfg MemtisConfig) *Memtis {
	m := &Memtis{
		cfg:    cfg,
		counts: make([]uint16, cfg.NumPages),
		thresh: 4,
	}
	m.hist[0] = int64(cfg.NumPages)
	return m
}

// Name implements tier.Policy.
func (m *Memtis) Name() string { return "Memtis" }

// Attach implements tier.Policy.
func (m *Memtis) Attach(env tier.Env) { m.env = env }

// MetadataBytes implements tier.Policy: 16 B per page of total memory.
func (m *Memtis) MetadataBytes() int64 {
	return int64(m.cfg.NumPages) * perPageMetaBytes
}

// OnSamples implements tier.Policy: Algorithm 1 with an exact table. Each
// sample costs a page-table walk plus a 16 B metadata update — the poor
// locality §3.3 identifies (4 entries per cache line vs the CBF's 32+
// pages per line).
func (m *Memtis) OnSamples(batch []tier.Sample) {
	for _, s := range batch {
		p := s.Page

		// Per-sample metadata references, following htmm_core.c's update
		// path: the PTE line reached by the page-table walk (upper levels
		// are shared and cache-resident), the 16 B struct-page hotness
		// metadata, the per-page LRU/generation bookkeeping, and the
		// histogram bucket (small and shared, so effectively cached).
		metaEnd := int64(m.cfg.NumPages) * perPageMetaBytes
		m.env.TouchMeta(metaEnd + int64(p)*8)        // PTE entry
		m.env.TouchMeta(int64(p) * perPageMetaBytes) // hotness metadata
		m.env.TouchMeta(metaEnd*2 + int64(p)*16)     // LRU/gen bookkeeping
		m.env.TouchMeta(metaEnd * 3)                 // histogram head

		old := m.counts[p]
		if old < 1<<15 {
			m.counts[p] = old + 1
			ob, nb := bits.Len16(old), bits.Len16(old+1)
			if ob != nb {
				m.hist[ob]--
				m.hist[nb]++
			}
		}

		if s.Tier == mem.Slow && m.counts[p] >= m.thresh {
			tier.PromoteOrReclaim(m.env, p, m.demoteToWatermark)
		}

		m.since++
		if m.since >= m.cfg.CoolSamples {
			m.cool()
		}
	}
}

// cool halves every page counter — a full sweep of the per-page metadata,
// which is exactly the "additional background activity" overhead the paper
// observes growing with memory size (§6.1).
func (m *Memtis) cool() {
	m.since = 0
	for i := range m.counts {
		m.counts[i] >>= 1
	}
	var nh [17]int64
	for b, n := range m.hist {
		if b == 0 {
			nh[0] += n
		} else {
			nh[b-1] += n // halving a count drops its bit length by one
		}
	}
	m.hist = nh
	m.retune()
	// Sweep cost over the whole metadata region.
	m.env.Charge(float64(m.cfg.NumPages) * perPageMetaBytes / 64)
}

// retune picks the smallest power-of-two threshold whose hot set fits the
// fast tier, Memtis' histogram-driven threshold (§2.3.1).
func (m *Memtis) retune() {
	bucket := tier.HotThreshold(m.hist[:], 1, int64(m.cfg.FastPages))
	t := uint16(1) << (bucket - 1)
	if t < 2 {
		t = 2
	}
	m.thresh = t
}

// Tick implements tier.Policy: watermark-driven demotion plus a periodic
// threshold refresh from the live histogram.
func (m *Memtis) Tick() {
	m.retune()
	mm := m.env.Mem()
	if float64(mm.FastFree()) < promoWatermark*float64(mm.FastCap()) {
		m.demoteToWatermark()
	}
}

// demoteToWatermark demotes below-threshold fast pages until free space
// reaches the demotion watermark.
func (m *Memtis) demoteToWatermark() {
	if !m.reclaim.Due(m.env.Now()) {
		return
	}
	target := int(demoteWatermark * float64(m.env.Mem().FastCap()))
	if target < 1 {
		target = 1
	}
	m.reclaim.Walk(m.env, target, 25, func(p mem.PageID) bool {
		return m.counts[p] < m.thresh
	})
}

// RecencyFree implements tier.RecencyFree: Memtis is purely sample-driven
// and never consults Env.LastAccess.
func (m *Memtis) RecencyFree() {}
