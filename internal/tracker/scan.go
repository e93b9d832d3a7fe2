package tracker

import (
	"math/bits"

	"repro/internal/mem"
	"repro/internal/pebs"
)

// scanTracker is the shared machinery of the bitmap trackers: per-page
// marked bits set on Observe, a last-seen-tier bitmap, and a periodic
// scan-and-clear that turns set bits into samples. The two concrete
// trackers differ only in which accesses set bits.
type scanTracker struct {
	buffered
	marked   []uint64 // bit set when the page was accessed since the last scan
	slowBits []uint64 // last-seen tier per page (set = slow); not cleared by scans
	scanNs   int64
	costNs   float64 // full-footprint scan cost
	nextScan int64
}

func newScanTracker(cfg Config, numPages int, recycled []pebs.Sample) scanTracker {
	words := (numPages + 63) >> 6
	return scanTracker{
		buffered: buffered{Buffer: pebs.NewBuffer(recycled, cfg.BufferSize)},
		marked:   make([]uint64, words),
		slowBits: make([]uint64, words),
		scanNs:   cfg.ScanNs,
		costNs:   float64(numPages) * scanCostPerPageNs,
		nextScan: cfg.ScanNs,
	}
}

// Period is 1: scanning trackers must see every access to maintain their
// bitmaps — the subsampling happens at scan time, not access time.
func (t *scanTracker) Period() int { return 1 }

// mark records an access to the page and its serving tier.
func (t *scanTracker) mark(page mem.PageID, tier mem.Tier) {
	w, b := page>>6, uint64(1)<<(page&63)
	t.marked[w] |= b
	if tier == mem.Slow {
		t.slowBits[w] |= b
	} else {
		t.slowBits[w] &^= b
	}
}

// Sync scans and clears the marked bitmap once the scan period has
// elapsed, emitting one sample per marked page in ascending page order
// (the order a sequential bitmap walk produces). If virtual time has
// leapt past several deadlines, one scan suffices — the bits are
// cumulative, and an immediate re-scan would only find zeros — so a
// single scan cost is charged and the schedule realigns past now.
func (t *scanTracker) Sync(now int64) float64 {
	if now < t.nextScan {
		return 0
	}
	for t.nextScan <= now {
		t.nextScan += t.scanNs
	}
	for w, bm := range t.marked {
		if bm == 0 {
			continue
		}
		t.marked[w] = 0
		slow := t.slowBits[w]
		base := mem.PageID(w) << 6
		for bm != 0 {
			tz := bits.TrailingZeros64(bm)
			bm &^= 1 << tz
			tier := mem.Fast
			if slow&(1<<tz) != 0 {
				tier = mem.Slow
			}
			t.Take(pebs.Sample{Page: base + mem.PageID(tz), Tier: tier, Time: now})
		}
	}
	return t.costNs
}

// idlepage reproduces memtierd's idle-page tracker: every access sets
// the page's accessed bit; a periodic scan reads and clears all bits,
// emitting one sample per touched page. Compared to PEBS it has no
// frequency signal (a page touched once and a page touched a million
// times look identical within a scan window) and no read/write split,
// but it observes the full footprint with per-scan rather than
// per-access cost. The emitted tier is the page's tier at its *last
// access* before the scan — if the policy migrated the page in between,
// the sample is stale, exactly as a real bitmap walk's would be.
type idlepage struct {
	scanTracker
}

func (t *idlepage) Kind() string { return KindIdlepage }

func (t *idlepage) Observe(page mem.PageID, tier mem.Tier, now int64, write bool) {
	_ = now
	_ = write
	t.accesses++
	t.mark(page, tier)
}

// softDirty reproduces memtierd's soft-dirty tracker: only writes set
// the page's dirty bit (reads are invisible), and the periodic scan
// emits one sample per dirtied page. It is the cheapest tracker on read-heavy
// workloads and the blindest — a read-hot page never produces a sample —
// which is precisely the trade-off worth simulating.
type softDirty struct {
	scanTracker
}

func (t *softDirty) Kind() string { return KindSoftDirty }

func (t *softDirty) Observe(page mem.PageID, tier mem.Tier, now int64, write bool) {
	_ = now
	t.accesses++
	if !write {
		return
	}
	t.mark(page, tier)
}
