package baselines

import (
	"repro/internal/mem"
	"repro/internal/tier"
)

const (
	twoqA1in uint8 = 1 + iota
	twoqAm
	twoqA1out
)

// TwoQ adapts Johnson & Shasha's 2Q algorithm (VLDB'94) to tiering (§5.2):
// first-touch pages enter the FIFO A1in queue; pages re-referenced after
// falling out of A1in (tracked by the A1out ghost) graduate to the Am LRU.
// The paper uses the original's tuning: Kin = c/4, Kout = c/2.
type TwoQ struct {
	env      tier.Env
	lists    *pageLists
	c        int
	kin, kou int
}

var _ tier.Policy = (*TwoQ)(nil)

// NewTwoQ constructs the policy; capacity is the fast tier size in pages.
func NewTwoQ(numPages, capacity int) *TwoQ {
	kin := max(1, capacity/4)
	kou := max(1, capacity/2)
	return &TwoQ{lists: newPageLists(numPages, 3), c: capacity, kin: kin, kou: kou}
}

// Name implements tier.Policy.
func (t *TwoQ) Name() string { return "TwoQ" }

// Attach implements tier.Policy.
func (t *TwoQ) Attach(env tier.Env) { t.env = env }

// MetadataBytes implements tier.Policy.
func (t *TwoQ) MetadataBytes() int64 { return t.lists.metadataBytes() }

// Tick implements tier.Policy; 2Q acts purely per request.
func (t *TwoQ) Tick() {}

// OnSamples implements tier.Policy.
func (t *TwoQ) OnSamples(batch []tier.Sample) {
	for _, s := range batch {
		t.env.TouchMeta(int64(s.Page) * 9)
		t.request(int32(s.Page))
	}
}

func (t *TwoQ) request(x int32) {
	l := t.lists
	switch l.on(x) {
	case twoqAm:
		l.moveFront(twoqAm, x)
	case twoqA1in:
		// 2Q leaves A1in pages where they are: only a re-reference after
		// eviction proves reuse.
	case twoqA1out:
		// Reuse after eviction: graduate to Am.
		t.reclaim()
		l.remove(x)
		l.pushFront(twoqAm, x)
		t.env.Promote(mem.PageID(x))
	default:
		// Cold miss: straight into the cache via A1in — the direct
		// promotion on first sample that §6.1 finds too aggressive.
		t.reclaim()
		l.pushFront(twoqA1in, x)
		t.env.Promote(mem.PageID(x))
	}
}

// reclaim frees one slot when the cache is full, per the 2Q paper's
// reclaimfor(): overflow A1in first (remembering victims in A1out), else
// evict Am's LRU.
func (t *TwoQ) reclaim() {
	l := t.lists
	if l.size(twoqA1in)+l.size(twoqAm) < t.c {
		return
	}
	if l.size(twoqA1in) > t.kin {
		if y := l.popBack(twoqA1in); y >= 0 {
			t.demote(y)
			l.pushFront(twoqA1out, y)
			if l.size(twoqA1out) > t.kou {
				l.popBack(twoqA1out)
			}
		}
		return
	}
	if y := l.popBack(twoqAm); y >= 0 {
		t.demote(y)
	}
}

func (t *TwoQ) demote(y int32) { t.env.Demote(mem.PageID(y)) }

// RecencyFree implements tier.RecencyFree: TwoQ tracks recency in its own
// queues and never consults Env.LastAccess.
func (t *TwoQ) RecencyFree() {}
