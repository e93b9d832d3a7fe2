package baselines

import (
	"repro/internal/mem"
	"repro/internal/tier"
)

const lruList uint8 = 1

// LRU is the classic least-recently-used policy adapted to tiering: every
// sampled access moves the page to the MRU position; misses promote the
// page and demote the LRU victim. Included as the reference point the
// related-work section measures hybrid policies against.
type LRU struct {
	env   tier.Env
	lists *pageLists
	c     int
}

var _ tier.Policy = (*LRU)(nil)

// NewLRU constructs the policy; capacity is the fast-tier size in pages.
func NewLRU(numPages, capacity int) *LRU {
	return &LRU{lists: newPageLists(numPages, 1), c: capacity}
}

// Name implements tier.Policy.
func (l *LRU) Name() string { return "LRU" }

// Attach implements tier.Policy.
func (l *LRU) Attach(env tier.Env) { l.env = env }

// MetadataBytes implements tier.Policy.
func (l *LRU) MetadataBytes() int64 { return l.lists.metadataBytes() }

// Tick implements tier.Policy.
func (l *LRU) Tick() {}

// OnSamples implements tier.Policy.
func (l *LRU) OnSamples(batch []tier.Sample) {
	for _, s := range batch {
		l.env.TouchMeta(int64(s.Page) * 9)
		x := int32(s.Page)
		if l.lists.on(x) == lruList {
			l.lists.moveFront(lruList, x)
			continue
		}
		if l.lists.size(lruList) >= l.c {
			if y := l.lists.popBack(lruList); y >= 0 {
				l.env.Demote(mem.PageID(y))
			}
		}
		l.lists.pushFront(lruList, x)
		l.env.Promote(mem.PageID(x))
	}
}

// Static is a placement that never migrates: combined with
// mem.AllocFastFirst it is the first-touch baseline, and with mem.AllocFast
// it is the all-fast-tier upper bound of Fig. 11.
type Static struct {
	name string
}

var _ tier.Policy = (*Static)(nil)

// NewStatic returns a no-op policy with the given display name.
func NewStatic(name string) *Static { return &Static{name: name} }

// Name implements tier.Policy.
func (s *Static) Name() string { return s.name }

// Attach implements tier.Policy.
func (s *Static) Attach(tier.Env) {}

// OnSamples implements tier.Policy.
func (s *Static) OnSamples([]tier.Sample) {}

// Tick implements tier.Policy.
func (s *Static) Tick() {}

// MetadataBytes implements tier.Policy.
func (s *Static) MetadataBytes() int64 { return 0 }

// RecencyFree implements tier.RecencyFree: LRU orders pages from the sample
// stream and never consults Env.LastAccess.
func (l *LRU) RecencyFree() {}

// RecencyFree implements tier.RecencyFree: static placements consult
// nothing at all.
func (s *Static) RecencyFree() {}
