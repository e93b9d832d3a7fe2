package tracefile

// FuzzV2ReaderRoundTrip extends the robustness contract to the columnar v2
// format: arbitrary bytes must come back as errors, never panics or hangs;
// any input that stats clean must replay and survive a v2 re-encode with
// an identical op stream. The re-encoded stream is then read under a fetch
// schedule drawn from the fuzz input — a mix of NextOp, NextBatch and
// NextPackedView — and must deliver the same ops, with the same replay
// clock and shift state after every fetch, as a reader fetching one op at
// a time.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// seedTraceV2 builds a small valid v2 trace in memory for the fuzz corpus.
func seedTraceV2(shift bool, blockOps int) []byte {
	var buf bytes.Buffer
	meta := Meta{Name: "fuzz-seed-v2", NumPages: 64, Seed: 9, Shift: shift}
	w, err := NewWriterV2(&buf, meta)
	if err != nil {
		panic(err)
	}
	if blockOps > 0 {
		w.blockOps = blockOps
	}
	w.WriteOp([]trace.Access{{Page: 1}, {Page: 5, Write: true}})
	w.MarkTime(1_000)
	if shift {
		w.MarkShift(1_500)
	}
	w.WriteOp([]trace.Access{{Page: 63}})
	w.WriteOp([]trace.Access{{Page: 7}})
	w.MarkTime(2_000)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// writeScheduled re-encodes ops as a v2 trace shaped by sched: blocks of
// 1 + sched[0]%4 ops, a time mark before op i when sched[i%len]'s bit 6
// is set, a shift mark when bit 7 is, and a trailing time mark.
func writeScheduled(t *testing.T, meta Meta, ops [][]trace.Access, sched []byte) string {
	t.Helper()
	w, path := container{name: "scheduled", file: "sched.htrc", version: Version2,
		blockOps: 1 + int(sched[0])%4}.create(t, meta)
	for i, op := range ops {
		c := sched[i%len(sched)]
		if c&0x40 != 0 {
			w.MarkTime(int64(i) * 1000)
		}
		if c&0x80 != 0 {
			w.MarkShift(int64(i)*1000 + 1)
		}
		if err := w.WriteOp(op); err != nil {
			t.Fatal(err)
		}
	}
	w.MarkTime(int64(len(ops)) * 1000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fetch performs schedule byte c's fetch on r — NextOp, NextBatch(k) or
// NextPackedView(k) with k = 1 + (c>>2)%4 — and returns the fetched ops
// split at their end-of-op bits. It fails t when a fetch breaks its
// contract on an infinite (wrapping) source: NextOp must clear EndOp and
// return one op, NextBatch must fill exactly k ops across any block
// boundary, and a packed view must hold 1..k whole ops.
func fetch(t *testing.T, r *ReaderV2, c byte) [][]trace.Access {
	t.Helper()
	k := 1 + int(c>>2)%4
	var accs []trace.Access
	switch c % 3 {
	case 0:
		op := r.NextOp(nil)
		for _, a := range op {
			if a.EndOp {
				t.Fatal("NextOp left EndOp set")
			}
		}
		if len(op) == 0 {
			t.Fatalf("NextOp returned nothing: %v", r.Err())
		}
		return [][]trace.Access{op}
	case 1:
		accs = r.NextBatch(nil, k)
	default:
		for _, v := range r.NextPackedView(k) {
			accs = append(accs, trace.UnpackAccess(v))
		}
	}
	var ops [][]trace.Access
	for start, i := 0, 0; i < len(accs); i++ {
		if accs[i].EndOp {
			ops = append(ops, accs[start:i+1])
			start = i + 1
		} else if i == len(accs)-1 {
			t.Fatalf("fetch %d ends inside an op", c%3)
		}
	}
	if c%3 == 1 && len(ops) != k || len(ops) == 0 || len(ops) > k {
		t.Fatalf("fetch %d(%d) returned %d ops", c%3, k, len(ops))
	}
	return ops
}

func FuzzV2ReaderRoundTrip(f *testing.F) {
	// Blocks of two ops, read by NextBatch(4), NextOp, NextPackedView(2),
	// NextBatch(3), NextOp in turn, with time and shift marks between.
	sched := []byte{0x6d, 0x81, 0x05, 0xca, 0x00}
	plain := seedTraceV2(false, 0)
	f.Add(plain, sched)
	f.Add(seedTraceV2(true, 0), sched)
	f.Add(seedTraceV2(true, 1), []byte{0x04}) // one op per block: maximal footer
	f.Add(plain[:len(plain)-v2TrailerLen], sched)
	f.Add(plain[:len(plain)-1], sched)
	corrupt := bytes.Clone(plain)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt, sched)
	f.Add([]byte("HTRC\x02"), sched)
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, data, sched []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.htrc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := Stat(path)
		if err != nil || !info.Clean || info.Ops == 0 {
			return
		}
		if uint64(info.NumPages) > v2PageLimit {
			return // a v1 page space v2's packed words cannot hold
		}
		ops, _ := reencode(t, path, info, Version2)
		if len(sched) == 0 {
			sched = []byte{0}
		}
		out := writeScheduled(t, info.Meta, ops, sched)
		r, err := OpenV2(out)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		one, err := OpenV2(out)
		if err != nil {
			t.Fatal(err)
		}
		defer one.Close()
		// Both readers wrap, so the schedule runs through the wrap-around
		// too: two passes plus one op.
		for n, j := 0, 0; n <= 2*len(ops); j++ {
			for _, got := range fetch(t, r, sched[j%len(sched)]) {
				want := ops[n%len(ops)]
				if len(got) != len(want) {
					t.Fatalf("op %d has %d accesses, want %d", n, len(got), len(want))
				}
				for i, a := range got {
					if a.Page != want[i].Page || a.Write != want[i].Write {
						t.Fatalf("op %d access %d is %+v, want %+v", n, i, a, want[i])
					}
				}
				one.NextOp(nil)
				n++
			}
			if r.ShiftTime() != one.ShiftTime() || r.lastTime != one.lastTime || r.sawTime != one.sawTime {
				t.Fatalf("after fetch %d (op %d): shift %d clock (%d,%v), one at a time shift %d clock (%d,%v)",
					j, n, r.ShiftTime(), r.lastTime, r.sawTime, one.ShiftTime(), one.lastTime, one.sawTime)
			}
		}
		if r.Err() != nil || one.Err() != nil {
			t.Fatalf("replay errors %v / %v", r.Err(), one.Err())
		}
	})
}
