package tracefile

// FuzzV2ReaderRoundTrip extends the robustness contract to the columnar v2
// format: arbitrary bytes must come back as errors, never panics or hangs;
// any input that stats clean must replay, survive a v2 re-encode with an
// identical op stream, and seek to any op without diverging from a
// sequential read.

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

func FuzzV2ReaderRoundTrip(f *testing.F) {
	plain := seedTraceV2(false, 0)
	f.Add(plain)
	f.Add(seedTraceV2(true, 0))
	f.Add(seedTraceV2(true, 1)) // one op per block: maximal footer
	f.Add(plain[:len(plain)-v2TrailerLen])
	f.Add(plain[:len(plain)-1])
	corrupt := bytes.Clone(plain)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte("HTRC\x02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
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
		ops, out := reencode(t, path, info, Version2)
		// Seeking the re-encoded trace to its midpoint must resume exactly
		// where a sequential read of the suffix would.
		if info.Ops > 1 {
			mid := info.Ops / 2
			r, err := OpenV2(out)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.wrap = false
			if err := r.SeekOp(mid); err != nil {
				t.Fatalf("SeekOp(%d) on a clean trace: %v", mid, err)
			}
			for i := mid; ; i++ {
				op := r.NextOp(nil)
				if len(op) == 0 {
					if i != info.Ops {
						t.Fatalf("seeked replay ended at op %d, want %d", i, info.Ops)
					}
					break
				}
				if int(i) >= len(ops) {
					t.Fatalf("seeked replay overran: op %d of %d", i, len(ops))
				}
				if len(op) != len(ops[i]) {
					t.Fatalf("seeked op %d has %d accesses, want %d", i, len(op), len(ops[i]))
				}
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
