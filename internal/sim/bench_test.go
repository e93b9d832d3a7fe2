package sim

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// BenchmarkSimOpLoop measures the simulator's steady-state op loop with a
// generation-trivial workload (sequential scan) and a do-nothing policy, so
// the number is the loop itself: batch fetch, tier lookup, latency
// accounting, sampling, and the windowed series. One benchmark iteration is
// one simulated operation; allocs/op ≈ 0 demonstrates the loop's
// zero-allocation steady state (the fixed setup cost amortizes to nothing
// at benchtime scale).
func BenchmarkSimOpLoop(b *testing.B) {
	const pages = 1 << 14
	w := trace.NewScanSource("bench-scan", pages)
	cfg := DefaultConfig(w, baselines.NewStatic("FirstTouch"), pages/9)
	cfg.Ops = int64(b.N)
	if cfg.Ops < 1024 {
		cfg.Ops = 1024
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimOpLoopZipf is BenchmarkSimOpLoop with Zipf-popularity pages:
// the loop plus a realistic generator and cache-unfriendly page stream.
func BenchmarkSimOpLoopZipf(b *testing.B) {
	const pages = 1 << 14
	w := trace.NewZipfSource("bench-zipf", pages, 1.0, 0.1, 7)
	cfg := DefaultConfig(w, baselines.NewStatic("FirstTouch"), pages/9)
	cfg.Ops = int64(b.N)
	if cfg.Ops < 1024 {
		cfg.Ops = 1024
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimOpLoopIdlepage is BenchmarkSimOpLoopZipf observed through
// the idlepage scan tracker instead of PEBS: every access marks a bitmap
// bit (period 1, no countdown skip) and a full-footprint scan drains at
// each 20 ms boundary. The number bounds what switching trackers costs
// the hot loop; allocs/op ≈ 0 is part of the tracker contract.
func BenchmarkSimOpLoopIdlepage(b *testing.B) {
	benchTrackerLoop(b, tracker.KindIdlepage)
}

// BenchmarkSimOpLoopSoftDirty is the soft-dirty twin: only the 10% write
// ops mark bits, so the scan emits far fewer samples per drain.
func BenchmarkSimOpLoopSoftDirty(b *testing.B) {
	benchTrackerLoop(b, tracker.KindSoftDirty)
}

func benchTrackerLoop(b *testing.B, kind string) {
	const pages = 1 << 14
	w := trace.NewZipfSource("bench-zipf", pages, 1.0, 0.1, 7)
	cfg := DefaultConfig(w, baselines.NewStatic("FirstTouch"), pages/9)
	cfg.Tracker.Kind = kind
	cfg.Ops = int64(b.N)
	if cfg.Ops < 1024 {
		cfg.Ops = 1024
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimOpLoopPacked is BenchmarkSimOpLoopZipf replayed the way a
// sweep's cells replay a shared stream: a trace.ReplaySource fork, whose
// packed views the loop decodes in place. Generation is done before the
// timer starts, so ns/access is the loop's own cost per access.
func BenchmarkSimOpLoopPacked(b *testing.B) {
	const pages = 1 << 14
	ops := max(int64(b.N), 1024)
	rs := trace.NewReplaySource(trace.NewZipfSource("bench-zipf", pages, 1.0, 0.1, 7), ops, 1<<26)
	if rs == nil {
		b.Fatal("the Zipf stream does not pack")
	}
	w := rs.Fork()
	cfg := DefaultConfig(w, baselines.NewStatic("FirstTouch"), pages/9)
	cfg.Ops = ops
	b.ReportAllocs()
	b.ResetTimer()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.Pebs.Accesses), "ns/access")
}
