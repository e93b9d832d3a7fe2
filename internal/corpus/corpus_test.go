package corpus

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errfs"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// traceBytes renders a small valid v1 trace in memory.
func traceBytes(t *testing.T, name string, ops int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, tracefile.Meta{Name: name, NumPages: 256, Seed: 7}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		if err := w.WriteOp([]trace.Access{{Page: 1}, {Page: 2, Write: true}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := traceBytes(t, "rt", 5)
	m, created, err := s.Put(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !created {
		t.Fatal("first Put reported an existing trace")
	}
	if !errfs.ValidHash(m.Hash) || m.Ops != 5 || m.Accesses != 10 || m.Workload != "rt" ||
		m.NumPages != 256 || m.Seed != 7 || m.SizeBytes != int64(len(data)) ||
		m.FormatVersion != tracefile.Version {
		t.Fatalf("meta %+v does not describe the upload", m)
	}
	got, ok := s.Get(m.Hash)
	if !ok || got != m {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	path, err := s.Path(m.Hash)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(stored, data) {
		t.Fatalf("stored bytes differ from the upload (err %v)", err)
	}
	// The stored trace replays through the normal reader.
	r, err := tracefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if op := r.NextOp(nil); len(op) != 2 {
		t.Fatalf("replay of stored trace: %v", op)
	}
}

func TestPutIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := traceBytes(t, "dup", 3)
	m1, created1, err := s.Put(bytes.NewReader(data))
	if err != nil || !created1 {
		t.Fatalf("first Put: %+v, %v, %v", m1, created1, err)
	}
	m2, created2, err := s.Put(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("second Put: %v", err)
	}
	if created2 {
		t.Fatal("re-upload of identical bytes reported growth")
	}
	if m1 != m2 {
		t.Fatalf("re-upload changed meta: %+v vs %+v", m1, m2)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate upload", s.Len())
	}
}

func TestPutRejectsDamage(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := traceBytes(t, "bad", 4)
	for name, data := range map[string][]byte{
		"not-a-trace": []byte("these are not trace bytes"),
		"empty":       {},
		"truncated":   good[:len(good)-4],
		"zero-ops":    traceBytes(t, "zero", 0),
	} {
		if _, _, err := s.Put(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Put accepted the upload", name)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("rejected uploads entered the index: Len = %d", s.Len())
	}
	// No stray staging files left behind.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected uploads left %d files in the store dir", len(entries))
	}
}

func TestOpenReindexes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for i := 0; i < 3; i++ {
		m, _, err := s.Put(bytes.NewReader(traceBytes(t, "reidx", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, m.Hash)
	}
	// Damage one entry on disk: drop its trace file but keep the sidecar.
	if err := os.Remove(filepath.Join(dir, hashes[0]+".htrc")); err != nil {
		t.Fatal(err)
	}
	// And drop a sidecar with a lying hash beside the others.
	lie := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, lie+".meta.json"),
		[]byte(`{"hash":"`+strings.Repeat("cd", 32)+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened store indexed %d traces, want 2", s2.Len())
	}
	for _, h := range hashes[1:] {
		if _, ok := s2.Get(h); !ok {
			t.Errorf("reopened store lost %s", h)
		}
	}
	if _, ok := s2.Get(hashes[0]); ok {
		t.Error("reopened store serves a trace whose file is gone")
	}
	list := s2.List()
	if len(list) != 2 || list[0].Hash > list[1].Hash {
		t.Fatalf("List not sorted or wrong length: %+v", list)
	}
}

func TestPathRejectsBadHash(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"", "abc", "../../../etc/passwd", strings.ToUpper(strings.Repeat("ab", 32))} {
		if _, err := s.Path(h); err == nil {
			t.Errorf("Path(%q) succeeded", h)
		}
	}
	if _, err := s.Path(strings.Repeat("ab", 32)); err == nil {
		t.Error("Path of an absent (but well-formed) hash succeeded")
	}
}
