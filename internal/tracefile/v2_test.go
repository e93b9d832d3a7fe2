package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// writeV2 writes ops as a v2 trace with blocks of blockOps ops.
func writeV2(t *testing.T, meta Meta, ops [][]trace.Access, blockOps int) string {
	t.Helper()
	return container{name: "v2", file: "t.htrc", version: Version2, blockOps: blockOps}.write(t, meta, ops)
}

// TestV2Batches: NextBatch and NextPackedView must deliver the same stream
// NextOp does, with op boundaries carried by EndOp bits.
func TestV2Batches(t *testing.T) {
	ops := randomOps(13, 60, 1<<10)
	meta := Meta{Name: "b", NumPages: 1 << 10}
	path := writeV2(t, meta, ops, 7)

	flat := func(ops [][]trace.Access) []trace.Access {
		var out []trace.Access
		for _, op := range ops {
			for i, a := range op {
				a.EndOp = i == len(op)-1
				out = append(out, a)
			}
		}
		return out
	}
	want := flat(ops)

	br, err := OpenV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	br.wrap = false
	var got []trace.Access
	for {
		before := len(got)
		got = br.NextBatch(got, 13)
		if len(got) == before {
			break
		}
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("NextBatch stream differs from the written ops")
	}

	pr, err := OpenV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	var unpacked []trace.Access
	var opsSeen int
	for opsSeen < len(ops) {
		view := pr.NextPackedView(13)
		if len(view) == 0 {
			t.Fatalf("empty packed view after %d ops: %v", opsSeen, pr.Err())
		}
		for _, v := range view {
			a := trace.UnpackAccess(v)
			unpacked = append(unpacked, a)
			if a.EndOp {
				opsSeen++
			}
		}
	}
	if !reflect.DeepEqual(unpacked, want) {
		t.Fatal("NextPackedView stream differs from the written ops")
	}
}

// markedV1Trace captures a shifting source into a v1 trace with time and
// shift marks spread across the stream.
func markedV1Trace(t *testing.T, dir string) string {
	t.Helper()
	const n, opCount = 1 << 10, 120
	src := trace.NewShiftingZipfSource("marks", n, 1.0, 17, 40, 0.5)
	path := filepath.Join(dir, "marks.htrc")
	w, err := Create(path, MetaOf(src, 17))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(src, w)
	for i := 0; i < opCount; i++ {
		rec.AdvanceTime(int64(i) * 1000)
		rec.NextOp(nil)
	}
	rec.AdvanceTime(opCount * 1000)
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConvertPreservesReplay: v1→v2 conversion must preserve the replayed
// stream and the mark semantics — same ops, same clock, same shift state
// at every step — and v2→v1 must round back identically.
func TestConvertPreservesReplay(t *testing.T) {
	dir := t.TempDir()
	v1 := markedV1Trace(t, dir)
	v2 := filepath.Join(dir, "marks.v2.htrc")
	if err := Convert(v1, v2, Version2); err != nil {
		t.Fatalf("Convert v1→v2: %v", err)
	}
	back := filepath.Join(dir, "marks.back.htrc")
	if err := Convert(v2, back, Version); err != nil {
		t.Fatalf("Convert v2→v1: %v", err)
	}

	for _, other := range []string{v2, back} {
		a := mustOpen(t, v1)
		b := mustOpen(t, other)
		sa, sb := a.(replayer).state(), b.(replayer).state()
		sa.wrap, sb.wrap = false, false
		for i := 0; ; i++ {
			opA := a.NextOp(nil)
			opB := b.NextOp(nil)
			if !reflect.DeepEqual(opA, opB) {
				t.Fatalf("%s: op %d differs: %v vs %v", other, i, opA, opB)
			}
			if a.ShiftTime() != b.ShiftTime() {
				t.Fatalf("%s: op %d shift state %d vs %d", other, i, a.ShiftTime(), b.ShiftTime())
			}
			if sa.lastTime != sb.lastTime || sa.sawTime != sb.sawTime {
				t.Fatalf("%s: op %d clock (%d,%v) vs (%d,%v)", other, i, sa.lastTime, sa.sawTime, sb.lastTime, sb.sawTime)
			}
			if len(opA) == 0 {
				break
			}
			if i > 1000 {
				t.Fatal("runaway replay")
			}
		}
		if a.Err() != nil || b.Err() != nil {
			t.Fatalf("%s: replay errors %v / %v", other, a.Err(), b.Err())
		}
		infoA, errA := Stat(v1)
		infoB, errB := Stat(other)
		if errA != nil || errB != nil {
			t.Fatalf("%s: Stat errors %v / %v", other, errA, errB)
		}
		if infoA.Ops != infoB.Ops || infoA.Accesses != infoB.Accesses ||
			infoA.EndNs != infoB.EndNs || infoA.ShiftNs != infoB.ShiftNs || !infoB.Clean {
			t.Fatalf("%s: Stat drifted: %+v vs %+v", other, infoA, infoB)
		}
	}
}

// TestV2TruncationAndCorruption: the failure surface the format promises —
// missing trailers read as truncated, damaged bytes as corrupt, and
// nothing panics.
func TestV2TruncationAndCorruption(t *testing.T) {
	ops := randomOps(14, 50, 1<<10)
	src := writeV2(t, Meta{Name: "c", NumPages: 1 << 10}, ops, 8)
	base, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Missing or chopped footer/trailer: truncated, like an aborted capture.
	for name, b := range map[string][]byte{
		"no-trailer":   base[:len(base)-v2TrailerLen],
		"half-trailer": base[:len(base)-3],
	} {
		if _, err := Open(write(name, b)); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: Open = %v, want ErrTruncated", name, err)
		}
		if info, err := Stat(write(name+"-stat", b)); err == nil || info.Clean {
			t.Errorf("%s: Stat accepted the file: %+v, %v", name, info, err)
		}
	}
	// A prefix that chops the header itself must error too — truncated or
	// corrupt, depending on where the varint parse lands.
	if _, err := Open(write("header-only", base[:9])); err == nil {
		t.Error("header-only prefix opened cleanly")
	}

	// A writer Abort leaves no footer: same truncation signal.
	aborted := filepath.Join(dir, "aborted.htrc")
	w, err := CreateV2(aborted, Meta{Name: "a", NumPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	w.WriteOp([]trace.Access{{Page: 1}})
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(aborted); !errors.Is(err, ErrTruncated) {
		t.Errorf("aborted capture: Open = %v, want ErrTruncated", err)
	}

	// A flipped bit in the body must surface as ErrCorrupt — at open time
	// (footer damage) or as a latched replay error (block damage).
	for i := 12; i < len(base); i += 17 {
		b := append([]byte(nil), base...)
		b[i] ^= 0x40
		p := write("flip.htrc", b)
		r, err := Open(p)
		if err != nil {
			continue // rejected at open: fine
		}
		for j := 0; j < len(ops)+1; j++ {
			if op := r.NextOp(nil); len(op) == 0 {
				break
			}
		}
		r.Close()
	}

	// Footer length pointing into the header: corrupt, not a crash.
	b := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(b[len(b)-v2TrailerLen:], uint32(len(b)))
	if _, err := Open(write("bad-ftr-len.htrc", b)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad footer length: Open = %v, want ErrCorrupt", err)
	}
}

// TestV2RejectsGzipPath: v2 files are never gzip-framed; the reader needs
// random access to find the footer.
func TestV2RejectsGzipPath(t *testing.T) {
	if _, err := CreateV2(filepath.Join(t.TempDir(), "t.htrc.gz"), Meta{Name: "g", NumPages: 4}); err == nil {
		t.Fatal("CreateV2 accepted a .gz path")
	}
}

// TestV2TrailingMarks: marks recorded after the final op (a shift on the
// run's last tick) land in the final block and reach an exact-length
// replay via AdvanceTime, exactly like v1 (TestShiftOnFinalTick).
func TestV2TrailingMarks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.htrc")
	w, err := CreateV2(path, Meta{Name: "tr", NumPages: 64, Shift: true})
	if err != nil {
		t.Fatal(err)
	}
	w.blockOps = 2
	for i := 0; i < 5; i++ {
		if err := w.WriteOp([]trace.Access{{Page: mem.PageID(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.MarkTime(5_000)
	w.MarkShift(5_000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, path)
	for i := 0; i < 5; i++ {
		r.NextOp(nil)
	}
	if r.ShiftTime() != -1 {
		t.Fatalf("trailing shift consumed early: %d", r.ShiftTime())
	}
	r.AdvanceTime(5_000)
	if r.ShiftTime() != 5_000 {
		t.Fatalf("trailing shift not consumed: %d", r.ShiftTime())
	}
	if r.Loops() != 0 {
		t.Fatalf("drain wrapped %d times", r.Loops())
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// statByNextOp is Stat as it scanned before v2 traces were scanned through
// packed views: one NextOp at a time, for either version.
func statByNextOp(path string) (Info, error) {
	r, err := openReplay(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	s := r.state()
	s.wrap = false
	info := Info{
		Meta:       s.hdr.meta,
		Version:    int(s.hdr.version),
		Compressed: s.hdr.flags&FlagGzip != 0,
		EndNs:      -1,
	}
	var buf []trace.Access
	for buf = r.NextOp(buf[:0]); len(buf) > 0; buf = r.NextOp(buf[:0]) {
		info.Ops++
		info.Accesses += int64(len(buf))
	}
	info.Shifts, info.ShiftNs = s.shifts, s.shiftAt
	if s.sawTime {
		info.EndNs = s.lastTime
	}
	info.Clean = s.done && s.err == nil
	return info, s.err
}

// TestStatPackedScanMatchesNextOp: on v2 traces — random ops at several
// block sizes, a capture with time and shift marks converted from v1, one
// with marks trailing its final op — and on every truncation of them and
// on bit flips through them, Stat's packed-view scan reports the Info and
// the error a NextOp scan does.
func TestStatPackedScanMatchesNextOp(t *testing.T) {
	dir := t.TempDir()
	fixtures := map[string]string{}
	for _, c := range containersOf(Version2) {
		fixtures[c.name] = c.write(t, Meta{Name: "s", NumPages: 1 << 10}, randomOps(21, 60, 1<<10))
	}
	marked := filepath.Join(dir, "marked.v2.htrc")
	if err := Convert(markedV1Trace(t, dir), marked, Version2); err != nil {
		t.Fatal(err)
	}
	fixtures["marked"] = marked
	trail := filepath.Join(dir, "trail.htrc")
	w, err := CreateV2(trail, Meta{Name: "tr", NumPages: 64, Shift: true})
	if err != nil {
		t.Fatal(err)
	}
	w.blockOps = 2
	for i := range 5 {
		w.WriteOp([]trace.Access{{Page: mem.PageID(i)}, {Page: 7, Write: true}})
	}
	w.MarkTime(900)
	w.MarkShift(950)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fixtures["trailing-marks"] = trail

	for name, path := range fixtures {
		base, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, b []byte) {
			p := filepath.Join(dir, "probe.htrc")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			got, gotErr := Stat(p)
			want, wantErr := statByNextOp(p)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s, %s:\n Stat      %+v, %v\n NextOp    %+v, %v", name, what, got, gotErr, want, wantErr)
			}
		}
		check("clean", base)
		if info, err := Stat(path); err != nil || !info.Clean || info.Version != Version2 {
			t.Fatalf("%s: fixture is not a clean v2 trace: %+v, %v", name, info, err)
		}
		for n := range len(base) {
			check(fmt.Sprintf("truncated to %d bytes", n), base[:n])
		}
		for i := 0; i < len(base); i += 3 {
			b := append([]byte(nil), base...)
			b[i] ^= 1 << (i % 8)
			check(fmt.Sprintf("bit %d of byte %d flipped", i%8, i), b)
		}
	}
}
