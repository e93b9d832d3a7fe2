// Package core implements HybridTier, the paper's primary contribution: an
// adaptive and lightweight memory tiering policy that tracks both long-term
// access frequency and short-term access momentum with counting Bloom
// filters (§3, §4).
//
// Per sampled access, both trackers are incremented. Promotion follows the
// Table 1 matrix — a page is promoted when its frequency exceeds the
// auto-tuned frequency threshold *or* its momentum exceeds the (empirically
// set) momentum threshold. Demotion triggers on a fast-tier free-space
// watermark and walks the address space linearly: pages cold on both metrics
// demote immediately, pages with frequency but no momentum get a second
// chance, and pages with momentum are left alone (likely just promoted).
package core

import (
	"fmt"

	"repro/internal/cbf"
	"repro/internal/mem"
	"repro/internal/tier"
)

// HybridTier's fixed parameters (§4 and §7).
const (
	// sizingFactor scales the CBF's tracked-key budget relative to the
	// fast-tier capacity; > 1 leaves headroom for churn through the hot
	// set. 3.4 reproduces the paper's Table 4 metadata fractions.
	sizingFactor = 3.4
	// cbfHashes is the CBF hash count K (paper: 4).
	cbfHashes = 4
	// cbfErrorRate is the CBF tracking-error target p (paper: 0.001).
	cbfErrorRate = 0.001
	// momentumDivisor shrinks the momentum CBF relative to the frequency
	// CBF (paper: 128× less memory).
	momentumDivisor = 128
	// minFreqThreshold floors the auto-tuned frequency threshold.
	minFreqThreshold = 2
	// promoWatermark: demotion starts when fast free space falls below
	// this fraction of capacity (PROMO_WMARK).
	promoWatermark = 0.02
	// demoteWatermark: demotion stops once free space exceeds this
	// fraction (DEMOTE_WMARK).
	demoteWatermark = 0.08
	// cbfSeed differentiates the CBF hash streams ("HYRT").
	cbfSeed = 0x48595254
)

// Config parameterizes HybridTier. DefaultConfig values follow §4 and §7.
type Config struct {
	// FastPages is the fast-tier capacity in pages; CBF sizing (§4.2) uses
	// n = sizingFactor × FastPages.
	FastPages int
	// CounterBits is the CBF counter width: 4 for regular pages, 16 for
	// huge pages (§4.4).
	CounterBits int
	// Blocked selects the cache-line-blocked CBF layout (§4.2).
	Blocked bool
	// FreqCoolSamples is the frequency tracker's cooling period in
	// processed samples (high period: captures long-term distribution).
	FreqCoolSamples int
	// MomCoolSamples is the momentum tracker's cooling period in samples
	// (low period: only recent access intensity survives).
	MomCoolSamples int
	// MomentumThreshold is the promotion threshold on the momentum metric
	// (paper default: 3; sensitivity in Fig. 17).
	MomentumThreshold uint32
	// PromoBatch is the number of samples per promotion batch (§4.3:
	// 100,000 in the paper, scaled to simulated sampling rates).
	PromoBatch int
	// SecondChanceNs is the revisit delay for second-chance pages
	// (paper: 1 minute, scaled to virtual time).
	SecondChanceNs int64
	// DisableMomentum turns off the momentum tracker, yielding the
	// frequency-only ablation of Fig. 15 (HybridTier-onlyFreqCBF).
	DisableMomentum bool
	// DisableSecondChance demotes high-frequency/low-momentum pages
	// immediately instead of marking and revisiting them — the ablation
	// for the §4.3 second-chance design choice.
	DisableSecondChance bool
}

// DefaultConfig returns the paper's configuration scaled to the simulator's
// sampling rates, for a fast tier of fastPages pages.
func DefaultConfig(fastPages int) Config {
	return Config{
		FastPages:         fastPages,
		CounterBits:       4,
		Blocked:           true,
		FreqCoolSamples:   60_000,
		MomCoolSamples:    2_000,
		MomentumThreshold: 3,
		PromoBatch:        512,
		SecondChanceNs:    30_000_000, // 30 virtual ms ≈ the paper's 1 min, scaled
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FastPages <= 0 {
		return fmt.Errorf("core: FastPages must be positive, got %d", c.FastPages)
	}
	switch c.CounterBits {
	case 4, 8, 16:
	default:
		return fmt.Errorf("core: CounterBits must be 4, 8, or 16, got %d", c.CounterBits)
	}
	if c.FreqCoolSamples <= 0 || c.MomCoolSamples <= 0 {
		return fmt.Errorf("core: cooling periods must be positive")
	}
	if c.PromoBatch <= 0 {
		return fmt.Errorf("core: PromoBatch must be positive")
	}
	return nil
}

// secondChance records a marked page's frequency at mark time (§4.3).
type secondChance struct {
	markedAt int64
	freq     uint32
}

// HybridTier is the tiering policy. It implements tier.Policy.
type HybridTier struct {
	cfg Config
	env tier.Env

	freq cbf.Filter
	mom  cbf.Filter

	// histEst approximates the page-count hotness histogram: histEst[c] is
	// the estimated number of pages with frequency estimate c. Maintained
	// incrementally from CBF count transitions, halved on cooling, it
	// drives the Memtis-style automatic frequency threshold (§3.1).
	histEst    []int64
	freqThresh uint32

	samplesSinceFreqCool int
	samplesSinceMomCool  int
	samplesSinceBatch    int

	promoQueue []mem.PageID
	marked     map[mem.PageID]secondChance
	reclaim    tier.Reclaimer

	// metadata region offsets for cache modeling: [0, freqBytes) is the
	// frequency CBF, then the momentum CBF.
	momMetaBase int64

	touchScratch []int64
}

var _ tier.Policy = (*HybridTier)(nil)

// New constructs HybridTier from cfg.
func New(cfg Config) (*HybridTier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(sizingFactor * float64(cfg.FastPages))
	freqCounters := cbf.SizeForError(n, cbfErrorRate, cbfHashes)
	// The momentum CBF only needs to hold the pages active within one
	// momentum cooling window (§4.2: "the number of pages stored at a
	// given moment is significantly less than that of the frequency CBF").
	// At datacenter scale that works out to the paper's 128× size
	// reduction; at simulated scale the active-window bound is what keeps
	// the filter accurate, so take whichever is larger.
	momCounters := cbf.SizeForError(2*cfg.MomCoolSamples, cbfErrorRate, cbfHashes)
	if floor := freqCounters / momentumDivisor; momCounters < floor {
		momCounters = floor
	}
	if momCounters < 64 {
		momCounters = 64
	}
	freq, err := cbf.New(cbf.Params{
		K: cbfHashes, CounterBits: cfg.CounterBits, Counters: freqCounters,
		Blocked: cfg.Blocked, Seed: cbfSeed,
	})
	if err != nil {
		return nil, err
	}
	mom, err := cbf.New(cbf.Params{
		K: cbfHashes, CounterBits: cfg.CounterBits, Counters: momCounters,
		Blocked: cfg.Blocked, Seed: cbfSeed ^ 0x6d6f6d, // independent hash stream
	})
	if err != nil {
		return nil, err
	}
	h := &HybridTier{
		cfg:         cfg,
		freq:        freq,
		mom:         mom,
		histEst:     make([]int64, int(freq.MaxCount())+1),
		freqThresh:  minFreqThreshold,
		marked:      make(map[mem.PageID]secondChance),
		momMetaBase: freq.SizeBytes(),
	}
	return h, nil
}

// Name implements tier.Policy.
func (h *HybridTier) Name() string {
	if h.cfg.DisableMomentum {
		return "HybridTier-onlyFreq"
	}
	if !h.cfg.Blocked {
		return "HybridTier-CBF"
	}
	return "HybridTier"
}

// Attach implements tier.Policy.
func (h *HybridTier) Attach(env tier.Env) { h.env = env }

// MetadataBytes implements tier.Policy: both CBFs plus the second-chance
// marks and the histogram.
func (h *HybridTier) MetadataBytes() int64 {
	sz := h.freq.SizeBytes() + h.mom.SizeBytes()
	sz += int64(len(h.marked)) * 24 // page id + mark record
	sz += int64(len(h.histEst)) * 8
	return sz
}

// OnSamples implements tier.Policy: Algorithm 1's drain loop with CBF
// updates replacing the per-page table of prior systems (§3.3).
func (h *HybridTier) OnSamples(batch []tier.Sample) {
	for _, s := range batch {
		key := uint64(s.Page)

		// Metadata traffic: one cache line for the blocked frequency CBF,
		// one for the momentum CBF (k lines each when unblocked).
		h.touchScratch = h.freq.TouchAddrs(key, h.touchScratch[:0])
		for _, a := range h.touchScratch {
			h.env.TouchMeta(a)
		}

		before, after := h.freq.IncrementGet(key)
		if after > before {
			h.histShift(before, after)
		}

		var momentum uint32
		if !h.cfg.DisableMomentum {
			h.touchScratch = h.mom.TouchAddrs(key, h.touchScratch[:0])
			for _, a := range h.touchScratch {
				h.env.TouchMeta(h.momMetaBase + a)
			}
			momentum = h.mom.Increment(key)
		}

		// Table 1 promotion rule: high frequency OR high momentum.
		if s.Tier == mem.Slow {
			if after >= h.freqThresh ||
				(!h.cfg.DisableMomentum && momentum >= h.cfg.MomentumThreshold) {
				h.promoQueue = append(h.promoQueue, s.Page)
			}
		}

		h.samplesSinceBatch++
		if h.samplesSinceBatch >= h.cfg.PromoBatch {
			h.flushPromotions()
		}

		h.samplesSinceFreqCool++
		if h.samplesSinceFreqCool >= h.cfg.FreqCoolSamples {
			h.coolFrequency()
		}
		if !h.cfg.DisableMomentum {
			h.samplesSinceMomCool++
			if h.samplesSinceMomCool >= h.cfg.MomCoolSamples {
				h.mom.Cool()
				h.samplesSinceMomCool = 0
				// Cooling sweeps the momentum array once.
				h.env.Charge(float64(h.mom.SizeBytes()) / 64)
			}
		}
	}
}

// histShift moves one page of estimated histogram mass from count a to b.
func (h *HybridTier) histShift(a, b uint32) {
	if int(a) < len(h.histEst) && h.histEst[a] > 0 {
		h.histEst[a]--
	}
	if int(b) < len(h.histEst) {
		h.histEst[b]++
	}
}

// coolFrequency halves the frequency CBF and the histogram estimate, then
// retunes the threshold.
func (h *HybridTier) coolFrequency() {
	h.freq.Cool()
	h.samplesSinceFreqCool = 0
	cooled := make([]int64, len(h.histEst))
	for c, n := range h.histEst {
		cooled[c/2] += n
	}
	copy(h.histEst, cooled)
	h.env.Charge(float64(h.freq.SizeBytes()) / 64) // one sweep of the array
	h.retuneThreshold()
}

// retuneThreshold picks the smallest frequency threshold whose hot set fits
// the fast tier (§3.1, "similar to Memtis").
func (h *HybridTier) retuneThreshold() {
	thresh := uint32(tier.HotThreshold(h.histEst, minFreqThreshold, int64(h.cfg.FastPages)))
	if thresh < minFreqThreshold {
		thresh = minFreqThreshold
	}
	h.freqThresh = thresh
}

// flushPromotions issues the batched promotions (§4.3: one syscall per
// batch). When the fast tier is full it runs watermark demotion — at most
// once per batch, so a saturated tier cannot trigger a scan storm — and
// keeps promoting into whatever space that freed.
func (h *HybridTier) flushPromotions() {
	h.samplesSinceBatch = 0
	if len(h.promoQueue) == 0 {
		return
	}
	retried := false
	for _, p := range h.promoQueue {
		if h.env.Promote(p) != nil && !retried {
			retried = true
			h.demoteToWatermark()
			h.env.Promote(p)
		}
	}
	h.promoQueue = h.promoQueue[:0]
}

// Tick implements tier.Policy: threshold refresh, watermark checks, and
// second-chance revisits.
func (h *HybridTier) Tick() {
	h.retuneThreshold()
	m := h.env.Mem()
	if float64(m.FastFree()) < promoWatermark*float64(m.FastCap()) {
		h.demoteToWatermark()
	}
	h.revisitMarked()
}

// demoteToWatermark linearly scans the fast tier (§4.3: /proc/PID/pagemaps
// walk) applying the Table 1 demotion matrix until free space reaches
// DEMOTE_WMARK.
func (h *HybridTier) demoteToWatermark() {
	now := h.env.Now()
	if !h.reclaim.Due(now) {
		return
	}
	target := int(demoteWatermark * float64(h.env.Mem().FastCap()))
	if target < 1 {
		target = 1
	}
	// Scan cost: one pagemap lookup + two CBF lookups per visited page.
	h.reclaim.Walk(h.env, target, 30, func(p mem.PageID) bool {
		return h.demotable(p, now)
	})
}

// demotable is the Table 1 demotion matrix for fast page p: pages cold on
// both metrics demote, recently active ones (possibly just promoted) stay,
// and high-frequency/low-momentum pages are marked for a second chance
// (§4.3) — or demoted on the spot under the DisableSecondChance ablation.
func (h *HybridTier) demotable(p mem.PageID, now int64) bool {
	key := uint64(p)
	f := h.freq.Get(key)
	var mo uint32
	if !h.cfg.DisableMomentum {
		mo = h.mom.Get(key)
	}
	switch {
	case mo >= h.cfg.MomentumThreshold:
		return false
	case f >= h.freqThresh && !h.cfg.DisableSecondChance:
		if _, ok := h.marked[p]; !ok {
			h.marked[p] = secondChance{markedAt: now, freq: f}
		}
		return false
	}
	return true
}

// revisitMarked demotes marked pages whose frequency estimate did not grow
// since marking (not accessed) once the revisit delay elapses.
func (h *HybridTier) revisitMarked() {
	if len(h.marked) == 0 {
		return
	}
	now := h.env.Now()
	m := h.env.Mem()
	for p, mark := range h.marked {
		if now-mark.markedAt < h.cfg.SecondChanceNs {
			continue
		}
		cur := h.freq.Get(uint64(p))
		var mo uint32
		if !h.cfg.DisableMomentum {
			mo = h.mom.Get(uint64(p))
		}
		// "Not accessed since marking": allow one count of CBF collision
		// creep — other keys sharing counters can inflate a stale page's
		// estimate slightly. A genuinely re-hot page also shows momentum.
		stale := cur <= mark.freq+1 && mo < h.cfg.MomentumThreshold
		if stale && m.TierOf(p) == mem.Fast {
			h.env.Demote(p)
		}
		delete(h.marked, p)
	}
	h.env.Charge(float64(len(h.marked)) * 10)
}

// RecencyFree implements tier.RecencyFree: HybridTier is sample-driven
// (PEBS + CBF tracking) and never consults Env.LastAccess.
func (h *HybridTier) RecencyFree() {}
