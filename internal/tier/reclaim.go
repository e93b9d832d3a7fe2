package tier

import "repro/internal/mem"

// ReclaimIntervalNs bounds how often a policy may walk the fast tier: a
// full fast tier with nothing demotable must not rescan on every failed
// promotion.
const ReclaimIntervalNs = 1_000_000

// Reclaimer is a policy's resumable walk of the fast tier — the linear
// pagemap walk HybridTier applies its Table 1 matrix to (§4.3), and the
// LRU scans of the kernel-style baselines. Each policy keeps one and
// supplies only what is its own: when to walk, how many pages to free,
// which pages are cold, and what a visit costs. The zero value is ready
// to use.
type Reclaimer struct {
	cursor mem.PageID
	lastNs int64
}

// Due reports whether a walk may run at virtual time now — at most one per
// ReclaimIntervalNs — and, if so, records now as the last walk.
func (r *Reclaimer) Due(now int64) bool {
	if now-r.lastNs < ReclaimIntervalNs {
		return false
	}
	r.lastNs = now
	return true
}

// Walk visits fast pages round-robin from where the last walk stopped,
// demoting each page cold reports, and stops once target pages are free
// (checked after each visit, so a walk visits at least one page when any
// is fast). It charges visited×nsPerPage to the tiering thread in one
// Env.Charge.
func (r *Reclaimer) Walk(env Env, target int, nsPerPage float64, cold func(mem.PageID) bool) {
	m := env.Mem()
	last := r.cursor
	visited := m.ScanFastFrom(r.cursor, func(p mem.PageID) bool {
		last = p
		if cold(p) {
			env.Demote(p)
		}
		return m.FastFree() < target
	})
	r.cursor = last + 1
	env.Charge(float64(visited) * nsPerPage)
}

// PromoteOrReclaim promotes p; when that fails it calls reclaim once to
// make room and retries.
func PromoteOrReclaim(env Env, p mem.PageID, reclaim func()) {
	if env.Promote(p) == nil {
		return
	}
	reclaim()
	env.Promote(p)
}
