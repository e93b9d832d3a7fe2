package tracker

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/pebs"
)

// BenchmarkTrackerObserve prices each kind per access, driven the way
// sim.Run drives it: the Period countdown hoisted into the loop, Observe
// when it fires, Sync at every virtual tick, Drain at the simulator's
// batch size. PEBS pays one sample every 13th access; the scanning kinds
// pay two bitmap word updates on every access (period 1 — no countdown
// skip shields them) plus a full-footprint scan per scan period.
func BenchmarkTrackerObserve(b *testing.B) {
	const pages, nsPerAccess, tickNs, batchDrain = 1 << 14, 100, 10_000_000, 256
	for _, kind := range Kinds() {
		b.Run(kind, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Kind = kind
			trk, err := New(cfg, pages, nil)
			if err != nil {
				b.Fatal(err)
			}
			var batch []pebs.Sample
			period := trk.Period()
			left, now, nextTick := period, int64(0), int64(tickNs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if left--; left <= 0 {
					trk.Observe(mem.PageID(i)&(pages-1), mem.Tier(i&1), now, i&7 == 0)
					left = period
				}
				if now += nsPerAccess; now >= nextTick {
					trk.Sync(now)
					nextTick += tickNs
				}
				if trk.Pending() >= batchDrain {
					batch = trk.Drain(batch[:0], 0)
				}
			}
		})
	}
}
