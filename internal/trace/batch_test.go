package trace

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

// collectOps pulls n ops through NextOp.
func collectOps(src Source, n int) [][]Access {
	out := make([][]Access, 0, n)
	for i := 0; i < n; i++ {
		op := src.NextOp(nil)
		cp := make([]Access, len(op))
		copy(cp, op)
		out = append(out, cp)
	}
	return out
}

// splitBatch cuts a batch into ops at EndOp marks, clearing the mark so
// the ops compare equal to NextOp output.
func splitBatch(t *testing.T, batch []Access) [][]Access {
	t.Helper()
	var out [][]Access
	start := 0
	for i, a := range batch {
		if a.EndOp {
			op := make([]Access, i+1-start)
			copy(op, batch[start:i+1])
			op[len(op)-1].EndOp = false
			out = append(out, op)
			start = i + 1
		}
	}
	if start != len(batch) {
		t.Fatalf("batch does not end on an op boundary (%d trailing accesses)", len(batch)-start)
	}
	return out
}

// TestNextBatchMatchesNextOp locks the core BatchSource contract: for any
// interleaving of batch sizes, the concatenated ops equal per-op fetches.
func TestNextBatchMatchesNextOp(t *testing.T) {
	mk := func() []Source {
		return []Source{
			NewZipfSource("z", 1024, 1.0, 0.2, 3),
			NewScanSource("s", 100),
			mustMix(t, "m", Weighted{NewZipfSource("a", 512, 1.0, 0, 1), 0.7}, Weighted{NewScanSource("b", 512), 0.3}),
			NewShiftingZipfSource("sh", 1024, 1.0, 0.1, 3, 70, 0.5),
		}
	}
	ref, batched := mk(), mk()
	for i := range ref {
		want := collectOps(ref[i], 200)
		bs := AsBatchSource(batched[i])
		var got [][]Access
		// Batches may come back short (shift alignment), so keep asking,
		// cycling through sizes, until enough ops arrived.
		sizes := []int{1, 7, 64, 128}
		for k := 0; len(got) < 200; k++ {
			got = append(got, splitBatch(t, bs.NextBatch(nil, sizes[k%len(sizes)]))...)
		}
		got = got[:200]
		if !reflect.DeepEqual(want, got) {
			t.Errorf("source %s: batched ops diverge from per-op fetches", ref[i].Name())
		}
	}
}

// TestShiftingBatchEndsBeforeShift asserts the shift-alignment contract: a
// batch never spans the shifting op, which must open its own batch.
func TestShiftingBatchEndsBeforeShift(t *testing.T) {
	s := NewShiftingZipfSource("sh", 1024, 1.0, 0, 3, 100, 0.5)
	got := s.NextBatch(nil, 256)
	if len(got) != 99 {
		t.Fatalf("first batch = %d ops, want 99 (capped before the shift op)", len(got))
	}
	if s.ShiftTime() != -1 {
		t.Fatal("shift fired before its op")
	}
	got = s.NextBatch(got[:0], 256)
	if len(got) != 256 {
		t.Fatalf("post-shift batch = %d ops, want uncapped 256", len(got))
	}
}

// TestAdapterSingleOpForShiftSources asserts the generic adapter degrades
// unknown shift-capable sources to one op per call.
func TestAdapterSingleOpForShiftSources(t *testing.T) {
	type hidden struct{ ShiftSource }
	src := hidden{NewShiftingZipfSource("sh", 256, 1.0, 0, 3, 50, 0.5)}
	bs := AsBatchSource(src)
	if got := bs.NextBatch(nil, 64); len(got) != 1 {
		t.Fatalf("adapter batch for a ShiftSource = %d ops, want 1", len(got))
	}
	plain := struct{ Source }{NewScanSource("s", 16)}
	if got := AsBatchSource(plain).NextBatch(nil, 64); len(got) != 64 {
		t.Fatalf("adapter batch for a plain source = %d ops, want 64", len(got))
	}
}

// TestReplaySourceRoundTrip asserts a replayed stream equals the original
// generator's, through NextOp, NextBatch, and packed views, including
// wrap-around.
func TestReplaySourceRoundTrip(t *testing.T) {
	const ops = 300
	gen := func() Source { return NewZipfSource("z", 2048, 1.0, 0.3, 11) }
	rs := NewReplaySource(gen(), ops, 1<<20, nil)
	if rs == nil {
		t.Fatal("NewReplaySource returned nil")
	}
	if rs.Ops() != ops {
		t.Fatalf("Ops = %d, want %d", rs.Ops(), ops)
	}
	want := collectOps(gen(), ops)

	got := collectOps(rs.Fork(), ops)
	for i := range got { // NextOp marks EndOp on the final access; strip it
		got[i][len(got[i])-1].EndOp = false
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("replayed NextOp stream diverges from the generator")
	}

	// Packed views, spanning a wrap-around.
	fork := rs.Fork()
	var views []Access
	for len(views) < 2*ops { // two full passes
		pv := fork.NextPackedView(64)
		if len(pv) == 0 {
			t.Fatal("empty packed view")
		}
		for _, v := range pv {
			views = append(views, UnpackAccess(v))
		}
	}
	split := splitBatch(t, views)
	for i, op := range split[:ops] {
		if !reflect.DeepEqual(want[i], op) {
			t.Fatalf("packed view op %d diverges", i)
		}
	}
	for i, op := range split[ops : 2*ops-1] { // wrapped pass repeats the stream
		if !reflect.DeepEqual(want[i], op) {
			t.Fatalf("wrapped op %d diverges", i)
		}
	}
}

// TestReplaySourceBounds asserts the fallback conditions return nil.
func TestReplaySourceBounds(t *testing.T) {
	if rs := NewReplaySource(NewScanSource("s", 64), 1000, 10, nil); rs != nil {
		t.Error("stream over maxAccesses must return nil")
	}
	big := struct{ Source }{NewScanSource("s", 64)}
	_ = big
	huge := &fixedPage{page: mem.PageID(packedPageLimit)}
	if rs := NewReplaySource(huge, 10, 1000, nil); rs != nil {
		t.Error("page beyond the packed encoding must return nil")
	}
}

// fixedPage emits one constant-page op forever.
type fixedPage struct{ page mem.PageID }

func (f *fixedPage) Name() string      { return "fixed" }
func (f *fixedPage) NumPages() int     { return int(f.page) + 1 }
func (f *fixedPage) AdvanceTime(int64) {}
func (f *fixedPage) NextOp(dst []Access) []Access {
	return append(dst, Access{Page: f.page})
}

// TestClockFreeMarkers locks which built-in synthetics are clock-free.
func TestClockFreeMarkers(t *testing.T) {
	cases := []struct {
		src  interface{ ClockFree() bool }
		want bool
	}{
		{NewZipfSource("z", 64, 1.0, 0, 1), true},
		{NewScanSource("s", 64), true},
		{NewShiftingZipfSource("sh", 64, 1.0, 0, 1, 10, 0.5), false},
	}
	for i, c := range cases {
		if got := c.src.ClockFree(); got != c.want {
			t.Errorf("case %d: ClockFree = %v, want %v", i, got, c.want)
		}
	}
}
