package baselines

import (
	"repro/internal/mem"
	"repro/internal/tier"
)

// List ids shared by the caching policies.
const (
	arcT1 uint8 = 1 + iota
	arcT2
	arcB1
	arcB2
)

// ARC adapts Megiddo & Modha's Adaptive Replacement Cache (FAST'03) to
// memory tiering, as the paper does in §5.2: the fast tier is the cache,
// sampled accesses are requests, and a miss promotes the page immediately
// (the "lenient promotion" behaviour §6.1 finds too aggressive). T1/T2 hold
// resident pages (recency/frequency), B1/B2 are ghost lists of recently
// evicted page ids.
type ARC struct {
	env   tier.Env
	lists *pageLists
	c     int // fast-tier capacity in pages
	p     int // adaptive target size of T1
}

var _ tier.Policy = (*ARC)(nil)

// NewARC constructs the policy for a page space of numPages and a fast
// tier of capacity pages. Pages are expected to be allocated slow-first
// (§5.2: "we initially allocate new memory pages on slow-tier memory").
func NewARC(numPages, capacity int) *ARC {
	return &ARC{lists: newPageLists(numPages, 4), c: capacity}
}

// Name implements tier.Policy.
func (a *ARC) Name() string { return "ARC" }

// Attach implements tier.Policy.
func (a *ARC) Attach(env tier.Env) { a.env = env }

// MetadataBytes implements tier.Policy.
func (a *ARC) MetadataBytes() int64 { return a.lists.metadataBytes() }

// Tick implements tier.Policy; ARC acts purely per request.
func (a *ARC) Tick() {}

// OnSamples implements tier.Policy: each sample is one cache request.
func (a *ARC) OnSamples(batch []tier.Sample) {
	for _, s := range batch {
		a.env.TouchMeta(int64(s.Page) * 9) // list-node update
		a.request(int32(s.Page))
	}
}

func (a *ARC) request(x int32) {
	l := a.lists
	switch l.on(x) {
	case arcT1, arcT2:
		// Case I: cache hit.
		l.moveFront(arcT2, x)
	case arcB1:
		// Case II: ghost hit in B1 — recency is winning; grow T1's target.
		delta := 1
		if l.size(arcB1) > 0 && l.size(arcB2)/l.size(arcB1) > 1 {
			delta = l.size(arcB2) / l.size(arcB1)
		}
		a.p = min(a.c, a.p+delta)
		a.replace(false)
		l.remove(x)
		l.pushFront(arcT2, x)
		a.promote(x)
	case arcB2:
		// Case III: ghost hit in B2 — frequency is winning; shrink T1.
		delta := 1
		if l.size(arcB2) > 0 && l.size(arcB1)/l.size(arcB2) > 1 {
			delta = l.size(arcB1) / l.size(arcB2)
		}
		a.p = max(0, a.p-delta)
		a.replace(true)
		l.remove(x)
		l.pushFront(arcT2, x)
		a.promote(x)
	default:
		// Case IV: full miss.
		if l.size(arcT1)+l.size(arcB1) == a.c {
			if l.size(arcT1) < a.c {
				l.popBack(arcB1)
				a.replace(false)
			} else {
				// B1 empty and T1 full: evict T1's LRU outright.
				if y := l.popBack(arcT1); y >= 0 {
					a.demote(y)
				}
			}
		} else if l.size(arcT1)+l.size(arcB1) < a.c {
			total := l.size(arcT1) + l.size(arcT2) + l.size(arcB1) + l.size(arcB2)
			if total >= a.c {
				if total == 2*a.c {
					l.popBack(arcB2)
				}
				a.replace(false)
			}
		}
		l.pushFront(arcT1, x)
		a.promote(x)
	}
}

// replace evicts from T1 or T2 according to the adaptive target, moving the
// victim to the corresponding ghost list.
func (a *ARC) replace(inB2 bool) {
	l := a.lists
	if l.size(arcT1) >= 1 && (l.size(arcT1) > a.p || (inB2 && l.size(arcT1) == a.p)) {
		if y := l.popBack(arcT1); y >= 0 {
			a.demote(y)
			l.pushFront(arcB1, y)
		}
		return
	}
	if y := l.popBack(arcT2); y >= 0 {
		a.demote(y)
		l.pushFront(arcB2, y)
	}
}

func (a *ARC) promote(x int32) { a.env.Promote(mem.PageID(x)) }

func (a *ARC) demote(y int32) { a.env.Demote(mem.PageID(y)) }

// RecencyFree implements tier.RecencyFree: ARC tracks recency in its own
// lists and never consults Env.LastAccess.
func (a *ARC) RecencyFree() {}
