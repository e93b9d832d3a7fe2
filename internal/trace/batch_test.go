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
			mustMix(t, Weighted{NewZipfSource("a", 512, 1.0, 0, 1), 0.7}, Weighted{NewScanSource("b", 512), 0.3}),
			NewShiftingZipfSource("sh", 1024, 1.0, 3, 70, 0.5),
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
	s := NewShiftingZipfSource("sh", 1024, 1.0, 3, 100, 0.5)
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
	src := hidden{NewShiftingZipfSource("sh", 256, 1.0, 3, 50, 0.5)}
	bs := AsBatchSource(src)
	if got := bs.NextBatch(nil, 64); len(got) != 1 {
		t.Fatalf("adapter batch for a ShiftSource = %d ops, want 1", len(got))
	}
	plain := struct{ Source }{NewScanSource("s", 16)}
	if got := AsBatchSource(plain).NextBatch(nil, 64); len(got) != 64 {
		t.Fatalf("adapter batch for a plain source = %d ops, want 64", len(got))
	}
}

// publishedOps returns the number of operations r's packer has published:
// the whole stream's once it is complete.
func publishedOps(r *ReplaySource) int64 {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return int64(r.s.ops)
}

// TestReplaySourceRoundTrip asserts a replayed stream equals the original
// generator's, through NextOp, NextBatch, and packed views, including
// wrap-around.
func TestReplaySourceRoundTrip(t *testing.T) {
	const ops = 300
	gen := func() Source { return NewZipfSource("z", 2048, 1.0, 0.3, 11) }
	rs := NewReplaySource(gen(), ops, 1<<20)
	if rs == nil {
		t.Fatal("NewReplaySource returned nil")
	}
	if publishedOps(rs) != ops {
		t.Fatalf("Ops = %d, want %d", publishedOps(rs), ops)
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
	fork := rs.Fork().(PackedViewSource)
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
	if rs := NewReplaySource(NewScanSource("s", 64), 1000, 10); rs != nil {
		t.Error("stream over maxAccesses must return nil")
	}
	big := struct{ Source }{NewScanSource("s", 64)}
	_ = big
	huge := &fixedPage{page: mem.PageID(packedPageLimit)}
	if rs := NewReplaySource(huge, 10, 1000); rs != nil {
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

// TestClockFreeMarkers locks which built-in synthetics are clock-free:
// all of them, since the marker speaks of content only — a shifting source's
// accesses are op-count-driven and the clock merely stamps the shift. A
// source that makes no promise (a trace-file reader, here fixedPage) is the
// opt-out.
func TestClockFreeMarkers(t *testing.T) {
	for i, src := range []Source{
		NewZipfSource("z", 64, 1.0, 0, 1),
		NewScanSource("s", 64),
		NewShiftingZipfSource("sh", 64, 1.0, 1, 10, 0.5),
		NewReplaySource(NewShiftingZipfSource("sh", 64, 1.0, 1, 10, 0.5), 20, 1<<10).Fork(),
	} {
		if cf, ok := src.(ClockFree); !ok || !cf.ClockFree() {
			t.Errorf("case %d (%s): not clock-free", i, src.Name())
		}
	}
	if _, ok := Source(&fixedPage{}).(ClockFree); ok {
		t.Error("fixedPage stands for a source without the marker")
	}
}

// shiftedSource builds a source with len(shifts) shifting leaves — none, one
// (natively capped, or behind the one-op adapter when shape is odd), or
// several under a mix (even shape) or phases — for total ops.
func shiftedSource(t testing.TB, pages int, shifts []int64, shape uint8, total int64) Source {
	var kids []Source
	for i, at := range shifts {
		kids = append(kids, NewShiftingZipfSource("sh", pages, 1.0, uint64(i+1), at, 0.5))
	}
	switch {
	case len(kids) == 0:
		return NewZipfSource("z", pages, 1.0, 0.3, 1)
	case len(kids) == 1 && shape&1 == 0:
		return kids[0]
	case len(kids) == 1:
		return struct{ ShiftSource }{kids[0].(ShiftSource)}
	}
	var src Source
	var err error
	if shape&1 == 0 {
		parts := make([]Weighted, len(kids))
		for i, k := range kids {
			parts[i] = Weighted{k, float64(i + 1)}
		}
		src, err = NewMix(parts...)
	} else {
		stages := make([]Stage, len(kids))
		for i, k := range kids {
			stages[i] = Stage{Source: k, Ops: total/int64(len(kids)) + 1}
		}
		stages[len(kids)-1].Ops = 0
		src, err = NewPhases(stages...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// replayDriver consumes a source the way the simulator does: whatever a
// fetch returns is consumed, then the clock — a function of the ops consumed
// and the script's own advances — is delivered before the next fetch.
type replayDriver struct {
	src      Source
	consumed int64
	extra    int64
	buf      []Access
}

func (d *replayDriver) tick() { d.src.AdvanceTime(d.consumed*7 + d.extra) }

// fetch draws n whole ops, re-requesting after short returns, through
// NextOp (how == 0), NextBatch, or NextPackedView where the source has it.
func (d *replayDriver) fetch(t *testing.T, how byte, n int) []Access {
	var out []Access
	for got := 0; got < n; {
		d.buf = d.buf[:0]
		pv, packed := d.src.(PackedViewSource)
		switch {
		case how == 0:
			d.buf = d.src.NextOp(d.buf)
			d.buf[len(d.buf)-1].EndOp = true
		case how == 2 && packed:
			for _, v := range pv.NextPackedView(n - got) {
				d.buf = append(d.buf, UnpackAccess(v))
			}
		default:
			d.buf = AsBatchSource(d.src).NextBatch(d.buf, n-got)
		}
		k := countOps(d.buf)
		if k == 0 || k > n-got {
			t.Fatalf("fetch of %d ops returned %d", n-got, k)
		}
		got += k
		d.consumed += int64(k)
		out = append(out, d.buf...)
		d.tick()
	}
	return out
}

// FuzzReplayShiftMarks: a fork of a packed stream — taken while the stream
// still packs — and a fresh live source, driven by the same interleaving of
// NextOp / NextBatch(n) / NextPackedView(n) / AdvanceTime(t) calls, emit the
// same accesses and report the same ShiftTime after every call — the shift
// at op 0, at the last op, under composites and behind the one-op adapter;
// the fork is a ShiftSource exactly when the live source is, so a
// mark-free stream's fork reports -1 as the live source does. Bits 1-2 of
// shape pick the chunk size, down to one word.
func FuzzReplayShiftMarks(f *testing.F) {
	f.Add(uint16(64), uint16(300), uint8(0), uint16(0), uint16(0), uint16(0), uint8(0), []byte{1, 9, 3, 200, 2, 64})
	f.Add(uint16(64), uint16(300), uint8(1), uint16(100), uint16(0), uint16(0), uint8(0), []byte{1, 250, 3, 5, 2, 250, 0, 0})
	f.Add(uint16(64), uint16(300), uint8(1), uint16(0), uint16(0), uint16(0), uint8(1), []byte{2, 7, 3, 1, 1, 7})
	f.Add(uint16(64), uint16(300), uint8(1), uint16(300), uint16(0), uint16(0), uint8(0), []byte{2, 255, 2, 255, 3, 9})
	f.Add(uint16(512), uint16(900), uint8(2), uint16(10), uint16(200), uint16(0), uint8(0), []byte{2, 100, 3, 3, 1, 100, 0, 0})
	f.Add(uint16(512), uint16(900), uint8(3), uint16(1), uint16(250), uint16(299), uint8(1), []byte{1, 255, 2, 255, 3, 77, 2, 255})
	// A later phase whose first op shifts: found by this target, when
	// phases still ran a batch across the stage boundary.
	f.Add(uint16(101), uint16(259), uint8(2), uint16(162), uint16(0), uint16(0), uint8(1), []byte("00"))
	// Chunks of 1, 7 and 64 words: views end at many chunk boundaries.
	f.Add(uint16(64), uint16(300), uint8(1), uint16(100), uint16(0), uint16(0), uint8(2), []byte{1, 250, 3, 5, 2, 250, 0, 0})
	f.Add(uint16(512), uint16(900), uint8(2), uint16(10), uint16(200), uint16(0), uint8(4), []byte{2, 100, 3, 3, 1, 100, 0, 0})
	f.Add(uint16(512), uint16(900), uint8(3), uint16(1), uint16(250), uint16(299), uint8(7), []byte{1, 255, 2, 255, 3, 77, 2, 255})
	f.Fuzz(func(t *testing.T, pages, ops uint16, nShifts uint8, s1, s2, s3 uint16, shape uint8, script []byte) {
		total := int64(ops)%2000 + 1
		shifts := []int64{int64(s1), int64(s2), int64(s3)}[:nShifts%4]
		build := func() Source { return shiftedSource(t, int(pages)%4096+4, shifts, shape, total) }
		chunk := []int{chunkWords, 1, 7, 64}[shape>>1&3]
		rs := startReplay(build(), total, 1<<20, chunk)
		live, fork := &replayDriver{src: build()}, &replayDriver{src: rs.Fork()}
		liveShift, _ := live.src.(ShiftSource)
		forkShift, marked := fork.src.(ShiftSource)
		if marked != (liveShift != nil) {
			t.Fatalf("fork is a ShiftSource: %v; live source: %v", marked, liveShift != nil)
		}
		for i := 0; i+1 < len(script) && live.consumed < total; i += 2 {
			how, arg := script[i]%4, int(script[i+1])
			if how == 3 {
				live.extra += int64(arg)
				fork.extra += int64(arg)
				live.tick()
				fork.tick()
				continue
			}
			n := min(arg%97+1, int(total-live.consumed))
			if how == 0 {
				n = 1
			}
			want, got := live.fetch(t, how, n), fork.fetch(t, how, n)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("call %d (kind %d, %d ops): replayed accesses diverge from live generation", i/2, how, n)
			}
			if marked && liveShift.ShiftTime() != forkShift.ShiftTime() {
				t.Fatalf("call %d: fork reports shift at %d, live source at %d",
					i/2, forkShift.ShiftTime(), liveShift.ShiftTime())
			}
		}
		if <-rs.Done(); rs.Err() != nil {
			t.Fatalf("stream did not pack: %v", rs.Err())
		}
	})
}
