package baselines

import (
	"repro/internal/mem"
	"repro/internal/tier"
)

// tppActiveWindowNs: a second fault within this window marks the page
// active and triggers promotion.
const tppActiveWindowNs = 60_000_000

// rearmSlices is the number of ticks one full re-protection sweep takes.
const rearmSlices = 8

// TPP is the TPP baseline (Maruf et al., ASPLOS'23): transparent page
// placement for CXL memory, which promotes CXL pages on NUMA hint faults
// when the page is already on the kernel's active list (i.e. faulted again
// within a short window) and demotes from the inactive LRU under fast-tier
// pressure. It implements tier.FaultDriven. Slow-tier (CXL) pages are
// hint-fault armed in rotating slices; a page promoting requires two faults within the
// active window, TPP's active-list check. Demotion evicts the least-
// recently-used fast pages.
type TPP struct {
	env         tier.Env
	armed       []uint64
	lastFault   []int64
	rearmCursor int
	reclaim     tier.Reclaimer
}

var _ tier.FaultDriven = (*TPP)(nil)

// NewTPP constructs the baseline over numPages pages with every page
// armed.
func NewTPP(numPages int) *TPP {
	t := &TPP{
		armed:     make([]uint64, (numPages+63)/64),
		lastFault: make([]int64, numPages),
	}
	for i := range t.armed {
		t.armed[i] = ^uint64(0)
	}
	return t
}

// Name implements tier.Policy.
func (t *TPP) Name() string { return "TPP" }

// Attach implements tier.Policy.
func (t *TPP) Attach(env tier.Env) { t.env = env }

// MetadataBytes implements tier.Policy: fault stamps + arm bitmap.
func (t *TPP) MetadataBytes() int64 {
	return int64(len(t.lastFault))*8 + int64(len(t.armed))*8
}

// OnSamples implements tier.Policy; TPP is fault-driven.
func (t *TPP) OnSamples([]tier.Sample) {}

// WantsFault implements tier.FaultDriven: armed pages fault; only slow-tier
// faults matter but arming is per page, so check placement at fault time.
func (t *TPP) WantsFault(p mem.PageID) bool {
	return t.armed[p>>6]&(1<<(p&63)) != 0
}

// OnFault implements tier.FaultDriven.
func (t *TPP) OnFault(p mem.PageID, tr mem.Tier) {
	t.armed[p>>6] &^= 1 << (p & 63)
	now := t.env.Now()
	if tr == mem.Slow {
		if prev := t.lastFault[p]; prev > 0 && now-prev < tppActiveWindowNs {
			// Second fault within the window: the page would be on the
			// active list — promote.
			tier.PromoteOrReclaim(t.env, p, t.demoteToWatermark)
		}
	}
	t.lastFault[p] = now
}

// Tick implements tier.Policy: re-arm the fault traps for the next slice
// of the address space (the kernel scans and re-protects gradually, not all
// at once) and check the demotion watermark.
func (t *TPP) Tick() {
	slice := (len(t.armed) + rearmSlices - 1) / rearmSlices
	start := t.rearmCursor
	for i := 0; i < slice; i++ {
		t.armed[(start+i)%len(t.armed)] = ^uint64(0)
	}
	t.rearmCursor = (start + slice) % len(t.armed)
	t.env.Charge(float64(len(t.lastFault)) * 2 / rearmSlices)
	m := t.env.Mem()
	if float64(m.FastFree()) < promoWatermark*float64(m.FastCap()) {
		t.demoteToWatermark()
	}
}

// demoteToWatermark demotes the least-recently-faulted/accessed fast pages.
func (t *TPP) demoteToWatermark() {
	now := t.env.Now()
	if !t.reclaim.Due(now) {
		return
	}
	target := int(tppDemoteWatermark * float64(t.env.Mem().FastCap()))
	if target < 1 {
		target = 1
	}
	// LRU approximation: demote pages idle for over half the active
	// window; tighten on a second pass if needed.
	demoteIdle(&t.reclaim, t.env, now, target, [2]int64{tppActiveWindowNs / 2, tppActiveWindowNs / 8})
}

// FaultBitmap implements tier.FaultBitmapped with the live arming bitmap.
func (t *TPP) FaultBitmap() []uint64 { return t.armed }
