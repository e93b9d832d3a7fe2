package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errfs"
)

// writeLegacy lays down one entry of the earlier three-file store layout:
// <hash>.json, plus <hash>.spec.json and <hash>.sum when given.
func writeLegacy(t *testing.T, dir, hash string, result, spec, sum []byte) {
	t.Helper()
	for suffix, data := range map[string][]byte{".json": result, ".spec.json": spec, ".sum": sum} {
		if data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, hash+suffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheWriteThroughAndDiskHitCounts pins the store's I/O: one
// write-through is one atomic write (one temp file, one file fsync, one
// rename, one directory fsync) and one disk hit is one file read.
func TestCacheWriteThroughAndDiskHitCounts(t *testing.T) {
	dir := t.TempDir()
	inj := errfs.Inject(errfs.OS{})
	c, err := NewCacheFS(1<<20, dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	h, spec := addressed("count")
	if err := c.Put(h, []byte(`[{"cell":1}]`), spec); err != nil {
		t.Fatal(err)
	}
	for _, op := range []errfs.Op{errfs.OpCreateTemp, errfs.OpSync, errfs.OpRename, errfs.OpSyncDir} {
		if got := inj.Count(op); got != 1 {
			t.Errorf("one write-through did %d %s, want 1", got, op)
		}
	}

	// A fresh cache over the converted store: opening it writes nothing,
	// and a Get its memory tier misses reads one file.
	c, err = NewCacheFS(1<<20, dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Count(errfs.OpCreateTemp) + inj.Count(errfs.OpRemove); got != 1 {
		t.Errorf("reopening a converted store wrote or removed %d files", got-1)
	}
	before := inj.Count(errfs.OpReadFile)
	if data, ok := c.Get(h); !ok || string(data) != `[{"cell":1}]` {
		t.Fatalf("disk hit = %q, %v", data, ok)
	}
	if got := inj.Count(errfs.OpReadFile) - before; got != 1 {
		t.Errorf("one disk hit did %d file reads, want 1", got)
	}
}

// legacyStore lays down the kinds of entry a three-file store can hold
// and returns what each must come to after conversion: the bytes a Get
// serves, or nil for an entry that must be quarantined.
func legacyStore(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	want := map[string][]byte{}
	for _, kind := range []string{"verified", "sumless", "rotten", "specless", "wrongspec"} {
		h, spec := addressed(kind)
		result := []byte(`[{"kind":"` + kind + `"}]`)
		sum := []byte(errfs.SumHex(result))
		want[h] = result
		switch kind {
		case "sumless": // written before sums existed: adopted
			sum = nil
		case "rotten": // the result no longer matches its sum
			sum, want[h] = []byte(errfs.SumHex([]byte("other"))), nil
		case "specless": // the spec write never landed: the result still serves
			spec = nil
		case "wrongspec": // the spec rotted: it is quarantined, the result serves
			spec = []byte(`{"tampered":1}`)
		}
		writeLegacy(t, dir, h, result, spec, sum)
	}
	return want
}

// checkConverted opens dir and asserts it then holds only entry files,
// quarantine/ and the temp files a crash can leave mid-write, and serves
// or misses each hash as want says.
func checkConverted(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	c := freshDiskCache(t, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		_, ok := errfs.CutHash(e.Name(), ".entry")
		if !ok && e.Name() != errfs.QuarantineDir && !strings.HasPrefix(e.Name(), ".atomic-") {
			t.Errorf("legacy or stray file %s left after conversion", e.Name())
		}
	}
	for h, result := range want {
		data, ok := c.Get(h)
		if result == nil && ok {
			t.Errorf("entry %s should be quarantined, served %q", h[:12], data)
		}
		if result != nil && (!ok || !bytes.Equal(data, result)) {
			t.Errorf("entry %s = %q, %v; want %q", h[:12], data, ok, result)
		}
	}
}

// TestCacheConvertsLegacyStore: opening a three-file store converts it
// once, with the outcomes a three-file Get and scrub gave. A verified, a
// sum-less (adopted) and a spec-less entry become entry files that serve
// their bytes; a rotten-sum entry is quarantined whole; a spec that does
// not hash to its address is quarantined alone and its result serves.
// The first Scrub reports the conversion with its own pass.
func TestCacheConvertsLegacyStore(t *testing.T) {
	dir := t.TempDir()
	want := legacyStore(t, dir)
	c := freshDiskCache(t, dir)
	rep := c.Scrub()
	if want := (errfs.ScrubReport{Scanned: 9, Verified: 7, Adopted: 1, Quarantined: 2, UnixNs: rep.UnixNs}); rep != want {
		t.Errorf("first scrub = %+v, want %+v", rep, want)
	}
	checkConverted(t, dir, want)
	for kind, spec := range map[string][]byte{"verified": nil, "specless": {}, "wrongspec": {}} {
		h, addressedSpec := addressed(kind)
		if spec == nil {
			spec = addressedSpec
		}
		data, err := os.ReadFile(filepath.Join(dir, h+".entry"))
		if gotSpec, _, _ := decodeEntry(data); err != nil || !bytes.Equal(gotSpec, spec) {
			t.Errorf("%s converted with spec %q, want %q (%v)", kind, gotSpec, spec, err)
		}
	}
	for _, file := range [][2]string{{"rotten", ".json"}, {"rotten", ".sum"}, {"wrongspec", ".spec.json"}} {
		h, _ := addressed(file[0])
		if _, err := os.Stat(filepath.Join(dir, errfs.QuarantineDir, h+file[1])); err != nil {
			t.Errorf("%s%s not in quarantine: %v", file[0], file[1], err)
		}
	}
}

// TestCacheLegacyConversionSurvivesCrash freezes the filesystem at every
// mutation the conversion makes, one crash point per run: whatever the
// crash left, the next open finishes the conversion and leaves no legacy
// file behind.
func TestCacheLegacyConversionSurvivesCrash(t *testing.T) {
	for _, op := range []errfs.Op{errfs.OpCreateTemp, errfs.OpWrite, errfs.OpSync, errfs.OpRename,
		errfs.OpSyncDir, errfs.OpRemove, errfs.OpMkdirAll} {
		crashes := 0
		for after := 0; ; after++ {
			dir := t.TempDir()
			want := legacyStore(t, dir)
			inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: op, After: after, Crash: true})
			// Only a crash in the store dir's own MkdirAll fails the open.
			if _, err := NewCacheFS(1<<20, dir, inj); err != nil && (op != errfs.OpMkdirAll || after > 0) {
				t.Fatal(err)
			}
			if inj.Count(op) <= after {
				break // the conversion made fewer such calls: no crash
			}
			crashes++
			checkConverted(t, dir, want)
		}
		if crashes == 0 {
			t.Errorf("no crash point for %s", op)
		}
	}
}

// FuzzCacheEntry holds the entry format to its contract: decoding any
// bytes never panics, encode then decode round-trips, and flipping any
// single byte of an entry, header included, fails verification.
func FuzzCacheEntry(f *testing.F) {
	f.Add([]byte(`[{"cell":1}]`), []byte(`{"workload":"zipf"}`), uint(3), byte(1))
	f.Add([]byte{}, []byte{}, uint(0), byte(0xff))
	f.Add([]byte("htr1 \n"), []byte("12\n"), uint(70), byte('\n'^'7'))
	f.Fuzz(func(t *testing.T, result, spec []byte, pos uint, flip byte) {
		decodeEntry(result)
		entry := encodeEntry(result, spec)
		gotSpec, gotResult, ok := decodeEntry(entry)
		if !ok || !bytes.Equal(gotSpec, spec) || !bytes.Equal(gotResult, result) {
			t.Fatalf("round trip = %q, %q, %v", gotSpec, gotResult, ok)
		}
		if flip == 0 {
			return
		}
		entry[pos%uint(len(entry))] ^= flip
		if _, _, ok := decodeEntry(entry); ok {
			t.Fatalf("entry with byte %d flipped by %#x verified", pos%uint(len(entry)), flip)
		}
	})
}
