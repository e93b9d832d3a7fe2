// Package baselines implements the six comparison tiering systems from the
// paper's evaluation (§5.2): Memtis (frequency histogram + cooling),
// AutoNUMA (hint-fault recency), TPP (fault-driven CXL promotion), ARC and
// TwoQ (caching algorithms adapted to tiering), plus an LRU policy, the
// memtierd-lineage Age and Heat policies, and the static placements used as
// bounds.
package baselines

import (
	"repro/internal/mem"
	"repro/internal/tier"
)

// The kernel's fast-tier watermarks, as fractions of its capacity:
// demotion starts when free space falls below promoWatermark and stops
// once it exceeds demoteWatermark (Memtis, AutoNUMA). TPP decouples its
// demotion watermark higher; Age and Heat sweep while free space is below
// promoWatermark.
const (
	promoWatermark     = 0.02
	demoteWatermark    = 0.08
	tppDemoteWatermark = 0.10
)

// demoteIdle is the recency demotion AutoNUMA and TPP share: one walk per
// horizon, each demoting fast pages not accessed within it, with the
// second, tighter horizon walked only when the first freed too little.
func demoteIdle(r *tier.Reclaimer, env tier.Env, now int64, target int, horizons [2]int64) {
	for _, h := range horizons {
		if env.Mem().FastFree() >= target {
			break
		}
		cutoff := now - h
		r.Walk(env, target, 20, func(p mem.PageID) bool {
			return env.LastAccess(p) < cutoff
		})
	}
}

// pageLists is a set of intrusive doubly-linked lists over a dense page-id
// space. Every page is on at most one list. All operations are O(1), which
// is what makes LRU-family policies (ARC, TwoQ, LRU) cheap enough to run
// per sample. List id 0 means "not on any list"; valid lists are 1..n.
type pageLists struct {
	next, prev []int32
	where      []uint8
	head, tail []int32
	sizes      []int
}

// newPageLists creates storage for numPages pages and numLists lists.
func newPageLists(numPages, numLists int) *pageLists {
	l := &pageLists{
		next:  make([]int32, numPages),
		prev:  make([]int32, numPages),
		where: make([]uint8, numPages),
		head:  make([]int32, numLists+1),
		tail:  make([]int32, numLists+1),
		sizes: make([]int, numLists+1),
	}
	for i := range l.head {
		l.head[i] = -1
		l.tail[i] = -1
	}
	return l
}

// on returns the list p currently belongs to (0 = none).
func (l *pageLists) on(p int32) uint8 { return l.where[p] }

// size returns the number of pages on list id.
func (l *pageLists) size(id uint8) int { return l.sizes[id] }

// pushFront inserts p (not currently on any list) at the front of list id.
func (l *pageLists) pushFront(id uint8, p int32) {
	if l.where[p] != 0 {
		panic("pagelists: pushFront of a page already on a list")
	}
	l.where[p] = id
	l.prev[p] = -1
	l.next[p] = l.head[id]
	if l.head[id] >= 0 {
		l.prev[l.head[id]] = p
	}
	l.head[id] = p
	if l.tail[id] < 0 {
		l.tail[id] = p
	}
	l.sizes[id]++
}

// remove unlinks p from whatever list it is on (no-op when on none).
func (l *pageLists) remove(p int32) {
	id := l.where[p]
	if id == 0 {
		return
	}
	if l.prev[p] >= 0 {
		l.next[l.prev[p]] = l.next[p]
	} else {
		l.head[id] = l.next[p]
	}
	if l.next[p] >= 0 {
		l.prev[l.next[p]] = l.prev[p]
	} else {
		l.tail[id] = l.prev[p]
	}
	l.where[p] = 0
	l.sizes[id]--
}

// moveFront makes p the MRU entry of list id (p may come from any list).
func (l *pageLists) moveFront(id uint8, p int32) {
	l.remove(p)
	l.pushFront(id, p)
}

// popBack removes and returns the LRU entry of list id, or -1 when empty.
func (l *pageLists) popBack(id uint8) int32 {
	p := l.tail[id]
	if p >= 0 {
		l.remove(p)
	}
	return p
}

// metadataBytes reports the structure's memory footprint: 9 bytes per page
// (two links + list tag) plus the per-list heads.
func (l *pageLists) metadataBytes() int64 {
	return int64(len(l.next))*9 + int64(len(l.head))*8
}
