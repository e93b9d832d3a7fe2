package tier

// HotThreshold returns the smallest histogram index i ≥ lo whose suffix
// hist[i:] sums to at most budget: the lowest threshold whose hot set
// still fits a fast tier of budget pages — the histogram walk Memtis
// retunes by (§2.3.1) and HybridTier borrows (§3.1). The walk runs from
// the top and stops at the first bucket that overflows; when the top
// bucket alone overflows, or lo is past the end, it returns the top index
// len(hist)-1. Each policy maps the index to its own threshold.
func HotThreshold(hist []int64, lo int, budget int64) int {
	best := len(hist) - 1
	var cum int64
	for i := best; i >= lo; i-- {
		if cum += hist[i]; cum > budget {
			break
		}
		best = i
	}
	return best
}
