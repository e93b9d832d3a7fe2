package baselines

import (
	"math/bits"

	"repro/internal/mem"
	"repro/internal/tier"
)

// HeatConfig parameterizes the Heat policy, a port of memtierd's
// heat-bucket placement (cri-resource-manager's policy "heat"): every
// tracker report heats a page one step, heat decays by halving on a
// rolling schedule, and pages are classed into log2 heat buckets; the
// hottest buckets that fit live in the fast tier. Against a scanning
// tracker, heat approximates "active windows out of the recent past" —
// coarser than Memtis' exact counters, with metadata an eighth the size.
type HeatConfig struct {
	// NumPages is the total page space (1 B of heat each).
	NumPages int
	// FastPages is the fast-tier capacity, used for threshold tuning.
	FastPages int
	// Label overrides the policy's display name ("Heat" when empty), so a
	// registration bound to a specific tracker can report that binding in
	// results ("Heat-Idle", "Heat-Dirty").
	Label string
}

// DefaultHeatConfig returns the memtierd-proportioned setup.
func DefaultHeatConfig(numPages, fastPages int) HeatConfig {
	return HeatConfig{
		NumPages:  numPages,
		FastPages: fastPages,
	}
}

// Heat keeps one saturating byte of heat per page, bucketed by bit
// length into a 9-bucket histogram that retunes the hot threshold so the
// hot set just fits the fast tier.
type Heat struct {
	cfg        HeatConfig
	env        tier.Env
	heat       []uint8
	hist       [9]int64 // hist[b] = pages whose heat has bit-length b
	thresh     uint8
	coolCursor int
	reclaim    tier.Reclaimer
}

var _ tier.Policy = (*Heat)(nil)

// NewHeat constructs the policy.
func NewHeat(cfg HeatConfig) *Heat {
	h := &Heat{cfg: cfg, heat: make([]uint8, cfg.NumPages), thresh: 2}
	h.hist[0] = int64(cfg.NumPages)
	return h
}

// Name implements tier.Policy.
func (h *Heat) Name() string {
	if h.cfg.Label != "" {
		return h.cfg.Label
	}
	return "Heat"
}

// Attach implements tier.Policy.
func (h *Heat) Attach(env tier.Env) { h.env = env }

// MetadataBytes implements tier.Policy: one heat byte per page.
func (h *Heat) MetadataBytes() int64 { return int64(h.cfg.NumPages) }

// OnSamples implements tier.Policy: heat the page and promote it once it
// crosses the hot threshold.
func (h *Heat) OnSamples(batch []tier.Sample) {
	for _, s := range batch {
		p := s.Page
		h.env.TouchMeta(int64(p))
		old := h.heat[p]
		if old < 255 {
			h.heat[p] = old + 1
			ob, nb := bits.Len8(old), bits.Len8(old+1)
			if ob != nb {
				h.hist[ob]--
				h.hist[nb]++
			}
		}
		if s.Tier == mem.Slow && h.heat[p] >= h.thresh {
			tier.PromoteOrReclaim(h.env, p, h.demoteCold)
		}
	}
}

// Tick implements tier.Policy: cool the next chunk of the page space,
// retune the threshold from the histogram, and demote under the free
// watermark.
func (h *Heat) Tick() {
	h.coolChunk()
	h.retune()
	mm := h.env.Mem()
	if float64(mm.FastFree()) < promoWatermark*float64(mm.FastCap()) {
		h.demoteCold()
	}
}

// heatCoolTicks is the number of policy ticks a full cooling cycle is
// spread over: each tick halves the heat of 1/heatCoolTicks of the page
// space, so cooling cost is amortized instead of arriving as the periodic
// full-sweep spike Memtis pays. One full cycle ≈ 16 idlepage scans.
const heatCoolTicks = 32

// coolChunk halves the heat of the next 1/heatCoolTicks slice of pages.
func (h *Heat) coolChunk() {
	n := h.cfg.NumPages/heatCoolTicks + 1
	for i := 0; i < n; i++ {
		p := h.coolCursor
		if h.coolCursor++; h.coolCursor >= h.cfg.NumPages {
			h.coolCursor = 0
		}
		old := h.heat[p]
		if old == 0 {
			continue
		}
		h.heat[p] = old >> 1
		h.hist[bits.Len8(old)]--
		h.hist[bits.Len8(old>>1)]++
	}
	h.env.Charge(float64(n) / 64)
}

// retune picks the smallest power-of-two threshold whose hot set fits
// the fast tier (the same histogram walk Memtis uses, over byte heat).
func (h *Heat) retune() {
	bucket := tier.HotThreshold(h.hist[:], 1, int64(h.cfg.FastPages))
	t := uint8(1) << (bucket - 1)
	if t < 2 {
		t = 2
	}
	h.thresh = t
}

// demoteCold walks the fast tier from the demotion cursor, demoting
// below-threshold pages until the free watermark is met.
func (h *Heat) demoteCold() {
	if !h.reclaim.Due(h.env.Now()) {
		return
	}
	target := int(promoWatermark*float64(h.env.Mem().FastCap())) + 1
	h.reclaim.Walk(h.env, target, 25, func(p mem.PageID) bool {
		return h.heat[p] < h.thresh
	})
}

// RecencyFree implements tier.RecencyFree: Heat is purely sample-driven
// and never consults Env.LastAccess.
func (h *Heat) RecencyFree() {}
