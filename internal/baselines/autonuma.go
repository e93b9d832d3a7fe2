package baselines

import (
	"repro/internal/mem"
	"repro/internal/tier"
)

// AutoNUMAConfig parameterizes the AutoNUMA baseline (§2.3.2): the Linux
// kernel's NUMA-balancing hint-fault mechanism with MGLRU-based demotion.
type AutoNUMAConfig struct {
	// NumPages is the page-space size.
	NumPages int
	// ScanWindowPages is how many pages each scan interval unmaps
	// (256 MB in the kernel, scaled to the simulated footprint).
	ScanWindowPages int
	// HintThresholdNs promotes a faulting page when the time between
	// unmap and fault is below this (the kernel uses 1 s).
	HintThresholdNs int64
	// AgeNs is the MGLRU demotion age: fast-tier pages idle longer than
	// this are demotion candidates.
	AgeNs int64
}

// DefaultAutoNUMAConfig returns kernel-like defaults scaled to virtual time.
func DefaultAutoNUMAConfig(numPages int) AutoNUMAConfig {
	w := numPages / 8
	if w < 512 {
		w = 512
	}
	return AutoNUMAConfig{
		NumPages:        numPages,
		ScanWindowPages: w,
		HintThresholdNs: 50_000_000,  // scaled 1 s
		AgeNs:           100_000_000, // scaled MGLRU aging horizon
	}
}

// AutoNUMA promotes pages on recent hint faults regardless of access
// history — the recency-based behaviour whose misclassification of cold
// pages §2.3.2 demonstrates. It implements tier.FaultDriven.
type AutoNUMA struct {
	cfg        AutoNUMAConfig
	env        tier.Env
	unmapped   []uint64 // bitmap
	windowTime []int64  // unmap time per scan window
	cursor     int      // next page to unmap
	reclaim    tier.Reclaimer
}

var _ tier.FaultDriven = (*AutoNUMA)(nil)

// NewAutoNUMA constructs the baseline.
func NewAutoNUMA(cfg AutoNUMAConfig) *AutoNUMA {
	nw := (cfg.NumPages + cfg.ScanWindowPages - 1) / cfg.ScanWindowPages
	return &AutoNUMA{
		cfg:        cfg,
		unmapped:   make([]uint64, (cfg.NumPages+63)/64),
		windowTime: make([]int64, nw),
	}
}

// Name implements tier.Policy.
func (a *AutoNUMA) Name() string { return "AutoNUMA" }

// Attach implements tier.Policy.
func (a *AutoNUMA) Attach(env tier.Env) { a.env = env }

// MetadataBytes implements tier.Policy: the unmap bitmap, window stamps,
// and the kernel's per-page NUMA-balancing fields folded into struct page
// (modeled at 2 B per page).
func (a *AutoNUMA) MetadataBytes() int64 {
	return int64(len(a.unmapped))*8 + int64(len(a.windowTime))*8 + int64(a.cfg.NumPages)*2
}

// OnSamples implements tier.Policy. AutoNUMA does not consume hardware
// samples — it is entirely fault-driven.
func (a *AutoNUMA) OnSamples([]tier.Sample) {}

// WantsFault implements tier.FaultDriven: accesses to unmapped pages fault.
func (a *AutoNUMA) WantsFault(p mem.PageID) bool {
	return a.unmapped[p>>6]&(1<<(p&63)) != 0
}

// OnFault implements tier.FaultDriven: measure hint-fault latency and
// promote slow-tier pages with recent faults — even if this is the page's
// only access ever (requirement-1 failure the paper identifies).
func (a *AutoNUMA) OnFault(p mem.PageID, t mem.Tier) {
	a.unmapped[p>>6] &^= 1 << (p & 63)
	w := int(p) / a.cfg.ScanWindowPages
	lat := a.env.Now() - a.windowTime[w]
	if t == mem.Slow && lat < a.cfg.HintThresholdNs {
		tier.PromoteOrReclaim(a.env, p, a.demoteToWatermark)
	}
}

// Tick implements tier.Policy: unmap the next scan window and run the
// watermark demotion check.
func (a *AutoNUMA) Tick() {
	now := a.env.Now()
	start := a.cursor
	for i := 0; i < a.cfg.ScanWindowPages; i++ {
		p := (start + i) % a.cfg.NumPages
		a.unmapped[p>>6] |= 1 << (uint(p) & 63)
	}
	a.windowTime[start/a.cfg.ScanWindowPages] = now
	a.cursor = (start + a.cfg.ScanWindowPages) % a.cfg.NumPages
	// Unmap cost: one PTE clear per page plus a TLB shootdown.
	a.env.Charge(float64(a.cfg.ScanWindowPages)*5 + 2000)

	m := a.env.Mem()
	if float64(m.FastFree()) < promoWatermark*float64(m.FastCap()) {
		a.demoteToWatermark()
	}
}

// demoteToWatermark demotes idle fast-tier pages (MGLRU generations
// approximated by last-access age) scanning round-robin so successive
// passes make progress.
func (a *AutoNUMA) demoteToWatermark() {
	now := a.env.Now()
	if !a.reclaim.Due(now) {
		return
	}
	target := int(demoteWatermark * float64(a.env.Mem().FastCap()))
	if target < 1 {
		target = 1
	}
	// First demote pages idle beyond the aging horizon; if that frees too
	// little, tighten the horizon and continue.
	demoteIdle(&a.reclaim, a.env, now, target, [2]int64{a.cfg.AgeNs, a.cfg.AgeNs / 8})
}

// FaultBitmap implements tier.FaultBitmapped with the live unmapped bitmap.
func (a *AutoNUMA) FaultBitmap() []uint64 { return a.unmapped }
