package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errfs"
)

// corruptResult flips bytes in a stored result file without updating its
// integrity sidecar — the bit-rot model.
func corruptResult(t *testing.T, dir, hash string) {
	t.Helper()
	path := filepath.Join(dir, hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
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
	h := hashOf("rot")
	result := []byte(`[{"cell":1,"hits":42}]`)
	if err := freshDiskCache(t, dir).Put(h, result, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	corruptResult(t, dir, h)

	c := freshDiskCache(t, dir)
	if data, ok := c.Get(h); ok {
		t.Fatalf("corrupt entry served: %q", data)
	}
	// The evidence moved, intact, into quarantine; the serving path is clean.
	if _, err := os.Stat(filepath.Join(dir, h+".json")); !os.IsNotExist(err) {
		t.Errorf("corrupt result still on the serving path: %v", err)
	}
	qdata, err := os.ReadFile(filepath.Join(dir, errfs.QuarantineDir, h+".json"))
	if err != nil {
		t.Fatalf("quarantined result missing: %v", err)
	}
	if bytes.Equal(qdata, result) {
		t.Error("quarantined bytes equal the good result; the corruption vanished")
	}

	// Healing: a re-run Puts the true bytes back; the entry serves again.
	if err := c.Put(h, result, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if data, ok := freshDiskCache(t, dir).Get(h); !ok || !bytes.Equal(data, result) {
		t.Fatalf("healed entry = %q, %v", data, ok)
	}
}

// TestCacheScrubDetectsAndAdopts: Scrub quarantines corrupt entries,
// verifies good ones, and adopts legacy entries that predate .sum
// sidecars by writing one.
func TestCacheScrubDetectsAndAdopts(t *testing.T) {
	dir := t.TempDir()
	c := freshDiskCache(t, dir)
	// Entries are spec-addressed in production (hash = sha256 of the spec
	// sidecar's bytes); the scrubber leans on that, so honor it here.
	var good, bad, legacy string
	for name, h := range map[string]*string{"good": &good, "bad": &bad, "legacy": &legacy} {
		spec := []byte(`{"workload":"` + name + `"}`)
		*h = errfs.SumHex(spec)
		if err := c.Put(*h, []byte(`[{"h":"`+(*h)[:8]+`"}]`), spec); err != nil {
			t.Fatal(err)
		}
	}
	corruptResult(t, dir, bad)
	if err := os.Remove(filepath.Join(dir, legacy+".sum")); err != nil {
		t.Fatal(err)
	}

	rep := c.Scrub()
	if rep.Quarantined != 1 {
		t.Errorf("scrub quarantined %d entries, want 1: %+v", rep.Quarantined, rep)
	}
	if rep.Adopted != 1 {
		t.Errorf("scrub adopted %d legacy entries, want 1: %+v", rep.Adopted, rep)
	}
	if rep.Errors != 0 {
		t.Errorf("scrub errors: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, errfs.QuarantineDir, bad+".json")); err != nil {
		t.Errorf("corrupt entry not in quarantine: %v", err)
	}
	if sum, err := os.ReadFile(filepath.Join(dir, legacy+".sum")); err != nil || len(sum) != 64 {
		t.Errorf("adopted sidecar = %d bytes, %v", len(sum), err)
	}
	if got, ok := c.LastScrub(); !ok || got.Quarantined != rep.Quarantined {
		t.Error("LastScrub does not reflect the pass")
	}

	// A second pass over the now-clean store verifies everything: results
	// and spec sidecars for good+legacy, nothing quarantined.
	rep2 := c.Scrub()
	if rep2.Quarantined != 0 || rep2.Adopted != 0 || rep2.Errors != 0 {
		t.Errorf("second scrub not clean: %+v", rep2)
	}
	if rep2.Verified != 4 {
		t.Errorf("second scrub verified %d, want 4 (2 results + 2 specs)", rep2.Verified)
	}
}

// TestCacheScrubQuarantinesRottenSpecSidecar: spec sidecars verify
// directly against their addressed hash.
func TestCacheScrubQuarantinesRottenSpecSidecar(t *testing.T) {
	dir := t.TempDir()
	c := freshDiskCache(t, dir)
	spec := []byte(`{"workload":"zipf"}`)
	h := errfs.SumHex(spec) // a REAL spec-addressed entry
	if err := c.Put(h, []byte(`[]`), spec); err != nil {
		t.Fatal(err)
	}
	if rep := c.Scrub(); rep.Quarantined != 0 || rep.Verified != 2 {
		t.Fatalf("scrub over a true spec-addressed entry: %+v", rep)
	}
	if err := os.WriteFile(filepath.Join(dir, h+".spec.json"), []byte(`{"tampered":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := c.Scrub()
	if rep.Quarantined != 1 {
		t.Fatalf("tampered spec sidecar not quarantined: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, errfs.QuarantineDir, h+".spec.json")); err != nil {
		t.Errorf("spec sidecar not in quarantine: %v", err)
	}
	// The result itself is untouched and keeps serving.
	if _, ok := c.Get(h); !ok {
		t.Error("result stopped serving over a spec-sidecar problem")
	}
}

// TestCachePutFaultsNeverTearStore drives Put through injected write,
// sync, and rename failures: each failing stage must surface an error and
// leave the previous on-disk state fully intact and served.
func TestCachePutFaultsNeverTearStore(t *testing.T) {
	h := hashOf("durable")
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
			if err := seed.Put(h, v1, []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			inj := errfs.Inject(errfs.OS{}, fault)
			c, err := NewCacheFS(1<<20, dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(hashOf("other"), []byte(`[{"v":2}]`), []byte(`{}`)); err == nil {
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
	h := hashOf("flaky-disk")
	if err := freshDiskCache(t, dir).Put(h, []byte(`[]`), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: errfs.OpReadFile, Path: h + ".json"})
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
	if _, err := os.Stat(filepath.Join(dir, h+".json")); err != nil {
		t.Fatalf("transient read failure quarantined a healthy entry: %v", err)
	}
}
