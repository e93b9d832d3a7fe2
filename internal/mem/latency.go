package mem

// The latency model converts tier placement and load into access latency.
// Idle latencies and bandwidths are the paper's §5.1 emulation setup; the
// contention term models bandwidth-induced queueing so that saturating the
// slow tier hurts more than saturating local DRAM, which is what makes
// misplacing the hot set expensive.
const (
	// fastNs is the idle load-to-use latency of local DRAM.
	fastNs float64 = 80
	// slowNs is the idle latency of CXL memory (124 ns in §5.1).
	slowNs float64 = 124
	// fastGBs and slowGBs are tier bandwidths in GB/s; the slow tier's is
	// 34 GB/s (§5.1).
	fastGBs float64 = 100
	slowGBs float64 = 34
	// maxQueue caps the queueing multiplier so the model stays finite at
	// utilization 1.0.
	maxQueue float64 = 8
)

// The migration model prices page migrations. A migration is a
// kernel-mediated copy: fixed per-page software overhead (syscall
// batching, page-table and TLB work) plus the copy itself at slow-tier
// bandwidth, since one side of every migration is CXL memory. The costs
// are calibrated to observed move_pages behaviour: roughly 1-2 µs per
// 4 KB page end to end.
const (
	// perPageOverheadNs is the software cost per migrated page.
	perPageOverheadNs float64 = 800
	// batchOverheadNs is charged once per migration batch (one syscall for
	// up to the whole batch, §4.3).
	batchOverheadNs float64 = 2000
)

// AccessNs returns the latency of one access to tier t under the given
// bandwidth utilization (0..1) using an M/M/1-style 1/(1-u) queueing factor
// capped at maxQueue.
func AccessNs(t Tier, utilization float64) float64 {
	idle := slowNs
	if t == Fast {
		idle = fastNs
	}
	if utilization <= 0 {
		return idle
	}
	if utilization > 0.99 {
		utilization = 0.99
	}
	q := 1 / (1 - utilization)
	if q > maxQueue {
		q = maxQueue
	}
	return idle * q
}

// Bandwidth returns tier t's bandwidth in bytes per nanosecond.
func Bandwidth(t Tier) float64 {
	gbs := slowGBs
	if t == Fast {
		gbs = fastGBs
	}
	return gbs // 1 GB/s == 1 byte/ns
}

// MigrationCostNs returns the cost of migrating pages pages of pageBytes
// each as one batch at the slow tier's bandwidth.
func MigrationCostNs(pages int, pageBytes int64) float64 {
	if pages <= 0 {
		return 0
	}
	copyNs := float64(pageBytes) / Bandwidth(Slow)
	return batchOverheadNs + float64(pages)*(perPageOverheadNs+copyNs)
}
