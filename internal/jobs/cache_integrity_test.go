package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errfs"
)

// corruptEntry flips the byte at offset off from the end of a stored
// entry file (1 is the result's last byte) — the bit-rot model.
func corruptEntry(t *testing.T, dir, hash string, off int) {
	t.Helper()
	path := filepath.Join(dir, hash+".entry")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// freshDiskCache returns a cache over dir with an empty memory tier per
// call, so Gets are forced down the disk path under test.
func freshDiskCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheCorruptResultQuarantinedNotServed: a flipped bit in a stored
// result is detected on read, the entry moves to quarantine/, and the Get
// reports a miss — the daemon recomputes instead of serving rot.
func TestCacheCorruptResultQuarantinedNotServed(t *testing.T) {
	dir := t.TempDir()
	h, spec := addressed("rot")
	result := []byte(`[{"cell":1,"hits":42}]`)
	if err := freshDiskCache(t, dir).Put(h, result, spec); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, h+".entry"))
	if err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, dir, h, len(result)/2)

	c := freshDiskCache(t, dir)
	if data, ok := c.Get(h); ok {
		t.Fatalf("corrupt entry served: %q", data)
	}
	// The evidence moved, intact, into quarantine; the serving path is clean.
	if _, err := os.Stat(filepath.Join(dir, h+".entry")); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still on the serving path: %v", err)
	}
	qdata, err := os.ReadFile(filepath.Join(dir, errfs.QuarantineDir, h+".entry"))
	if err != nil {
		t.Fatalf("quarantined entry missing: %v", err)
	}
	if bytes.Equal(qdata, good) {
		t.Error("quarantined bytes equal the good entry; the corruption vanished")
	}

	// Healing: a re-run Puts the true bytes back; the entry serves again.
	if err := c.Put(h, result, spec); err != nil {
		t.Fatal(err)
	}
	if data, ok := freshDiskCache(t, dir).Get(h); !ok || !bytes.Equal(data, result) {
		t.Fatalf("healed entry = %q, %v", data, ok)
	}
}

// TestCacheScrubDetectsAndAdopts: Scrub quarantines corrupt entries and
// verifies good ones, and its first pass after an open also reports the
// legacy entries that open adopted: a three-file entry with no sum
// sidecar converts with the sum of its current bytes.
func TestCacheScrubDetectsAndAdopts(t *testing.T) {
	dir := t.TempDir()
	c := freshDiskCache(t, dir)
	var good, bad string
	for name, h := range map[string]*string{"good": &good, "bad": &bad} {
		var spec []byte
		*h, spec = addressed(name)
		if err := c.Put(*h, []byte(`[{"h":"`+(*h)[:8]+`"}]`), spec); err != nil {
			t.Fatal(err)
		}
	}
	corruptEntry(t, dir, bad, 2)
	legacy, spec := addressed("legacy")
	writeLegacy(t, dir, legacy, []byte(`[{"legacy":1}]`), spec, nil)

	c = freshDiskCache(t, dir)
	rep := c.Scrub()
	want := errfs.ScrubReport{Scanned: 4, Verified: 2, Adopted: 1, Quarantined: 1, UnixNs: rep.UnixNs}
	if rep != want {
		t.Errorf("first scrub = %+v, want %+v (the open's conversion, then good, legacy and bad)", rep, want)
	}
	if _, err := os.Stat(filepath.Join(dir, errfs.QuarantineDir, bad+".entry")); err != nil {
		t.Errorf("corrupt entry not in quarantine: %v", err)
	}
	if got, ok := c.LastScrub(); !ok || got != rep {
		t.Error("LastScrub does not reflect the pass")
	}

	// A second pass over the now-clean store verifies the two entries left
	// and reports nothing of the open.
	rep2 := c.Scrub()
	if want := (errfs.ScrubReport{Scanned: 2, Verified: 2, UnixNs: rep2.UnixNs}); rep2 != want {
		t.Errorf("second scrub = %+v, want %+v", rep2, want)
	}
	if data, ok := c.Get(legacy); !ok || string(data) != `[{"legacy":1}]` {
		t.Errorf("adopted legacy entry = %q, %v", data, ok)
	}
}

// TestCacheScrubQuarantinesRottenSpecSidecar: the spec, once a sidecar,
// is part of the entry file under the entry's one sum, so a flipped spec
// byte quarantines the whole entry — on read and by Scrub — and the
// result is recomputed rather than served beside a wrong spec.
func TestCacheScrubQuarantinesRottenSpecSidecar(t *testing.T) {
	h, spec := addressed("zipf")
	result := []byte(`[]`)
	for _, scrub := range []bool{false, true} {
		dir := t.TempDir()
		c := freshDiskCache(t, dir)
		if err := c.Put(h, result, spec); err != nil {
			t.Fatal(err)
		}
		if rep := c.Scrub(); rep.Quarantined != 0 || rep.Verified != 1 {
			t.Fatalf("scrub over a true spec-addressed entry: %+v", rep)
		}
		corruptEntry(t, dir, h, len(result)+3) // inside the spec
		c = freshDiskCache(t, dir)
		if scrub {
			if rep := c.Scrub(); rep.Quarantined != 1 {
				t.Fatalf("tampered spec not quarantined by Scrub: %+v", rep)
			}
		}
		if data, ok := c.Get(h); ok {
			t.Errorf("entry with a tampered spec served: %q", data)
		}
		if _, err := os.Stat(filepath.Join(dir, errfs.QuarantineDir, h+".entry")); err != nil {
			t.Errorf("entry not in quarantine (scrub=%v): %v", scrub, err)
		}
	}
}

// TestCachePutFaultsNeverTearStore drives Put through injected write,
// sync, and rename failures: each failing stage must surface an error and
// leave the previous on-disk state fully intact and served.
func TestCachePutFaultsNeverTearStore(t *testing.T) {
	h, spec := addressed("durable")
	other, otherSpec := addressed("other")
	v1 := []byte(`[{"v":1}]`)
	for _, fault := range []errfs.Fault{
		{Op: errfs.OpWrite, Path: ".atomic-"},
		{Op: errfs.OpWrite, Path: ".atomic-", Short: 3},
		{Op: errfs.OpSync, Path: ".atomic-"},
		{Op: errfs.OpRename},
		{Op: errfs.OpSyncDir},
	} {
		t.Run(string(fault.Op), func(t *testing.T) {
			dir := t.TempDir()
			seed, err := NewCache(1<<20, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.Put(h, v1, spec); err != nil {
				t.Fatal(err)
			}
			inj := errfs.Inject(errfs.OS{}, fault)
			c, err := NewCacheFS(1<<20, dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(other, []byte(`[{"v":2}]`), otherSpec); err == nil {
				t.Fatal("faulted Put reported success")
			}
			// The pre-existing entry is untouched and still verifies.
			clean := freshDiskCache(t, dir)
			if data, ok := clean.Get(h); !ok || !bytes.Equal(data, v1) {
				t.Fatalf("prior entry after faulted Put = %q, %v", data, ok)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".atomic-") {
					t.Errorf("temp file %s leaked", e.Name())
				}
			}
		})
	}
}

// TestCacheGetSurvivesReadFaults: an EIO on the disk read path is a miss,
// not a panic or a corrupt hit, and does NOT quarantine the (healthy)
// entry.
func TestCacheGetSurvivesReadFaults(t *testing.T) {
	dir := t.TempDir()
	h, spec := addressed("flaky-disk")
	if err := freshDiskCache(t, dir).Put(h, []byte(`[]`), spec); err != nil {
		t.Fatal(err)
	}
	inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: errfs.OpReadFile, Path: h + ".entry"})
	c, err := NewCacheFS(1<<20, dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h); ok {
		t.Fatal("Get served through an injected read failure")
	}
	// The fault was one-shot; the entry survives and serves next time.
	if _, ok := c.Get(h); !ok {
		t.Fatal("healthy entry lost after a transient read failure")
	}
	if _, err := os.Stat(filepath.Join(dir, h+".entry")); err != nil {
		t.Fatalf("transient read failure quarantined a healthy entry: %v", err)
	}
}
