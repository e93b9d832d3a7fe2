package tracefile

// FuzzReaderRoundTrip proves the reader's robustness contract: arbitrary
// bytes fed to the trace decoder must come back as errors, never panics
// or hangs, and any input that decodes cleanly must survive a re-encode
// round trip with an identical op stream.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// seedTrace builds a small valid trace in memory for the fuzz corpus.
func seedTrace(gz, shift bool) []byte {
	var buf bytes.Buffer
	meta := Meta{Name: "fuzz-seed", NumPages: 64, Seed: 9, Shift: shift}
	w, err := NewWriter(&buf, meta, gz)
	if err != nil {
		panic(err)
	}
	w.WriteOp([]trace.Access{{Page: 1}, {Page: 5, Write: true}})
	w.MarkTime(1_000)
	if shift {
		w.MarkShift(1_500)
	}
	w.WriteOp([]trace.Access{{Page: 63}})
	w.MarkTime(2_000)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// readAll decodes every op of a trace file without wrap-around, bounding
// the scan the way Stat does. It returns the flat op streams.
func readAll(t *testing.T, path string) ([][]trace.Access, error) {
	t.Helper()
	r, err := openReplay(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.state().wrap = false
	var ops [][]trace.Access
	for {
		op := r.NextOp(nil)
		if len(op) == 0 {
			break
		}
		ops = append(ops, op)
	}
	return ops, r.Err()
}

// reencode is the round-trip half of both fuzz targets: a trace Stat
// called clean must replay exactly info.Ops ops, and re-encoding them as
// version must replay the same stream. It returns the ops and the path of
// the re-encoded trace.
func reencode(t *testing.T, path string, info Info, version int) ([][]trace.Access, string) {
	t.Helper()
	ops, err := readAll(t, path)
	if err != nil {
		t.Fatalf("Stat called %s clean but replay failed: %v", path, err)
	}
	if int64(len(ops)) != info.Ops {
		t.Fatalf("Stat counted %d ops, replay decoded %d", info.Ops, len(ops))
	}
	out := filepath.Join(filepath.Dir(path), "out.htrc")
	w, err := CreateVersion(out, info.Meta, version)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.WriteOp(op); err != nil {
			t.Fatalf("re-encoding a clean trace as version %d failed: %v", version, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ops2, err := readAll(t, out)
	if err != nil {
		t.Fatalf("re-encoded trace does not replay: %v", err)
	}
	if !reflect.DeepEqual(ops2, ops) {
		t.Fatalf("round trip through version %d changed the op stream", version)
	}
	return ops, out
}

func FuzzReaderRoundTrip(f *testing.F) {
	plain := seedTrace(false, false)
	f.Add(plain)
	f.Add(seedTrace(true, false))
	f.Add(seedTrace(false, true))
	f.Add(seedTrace(true, true))
	f.Add(plain[:len(plain)-3]) // truncated: end record chopped
	corrupt := bytes.Clone(plain)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte("HTRC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.htrc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Stat scans the whole body exactly once (no wrap-around); it must
		// never panic, whatever the bytes are.
		info, err := Stat(path)
		if err != nil || !info.Clean || info.Ops == 0 {
			return
		}
		// The input decoded cleanly: its op stream must survive a decode →
		// re-encode → decode round trip bit for bit, with matching counts.
		reencode(t, path, info, Version)
	})
}
