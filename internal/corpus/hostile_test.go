package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/errfs"
)

// seedStore populates a directory with one stored trace and returns its
// meta, for tests that then damage the files behind the store's back.
func seedStore(t *testing.T, dir string, name string) Meta {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, created, err := s.Put(bytes.NewReader(traceBytes(t, name, 5)))
	if err != nil || !created {
		t.Fatalf("seed Put: created=%v err=%v", created, err)
	}
	return m
}

// TestOpenQuarantinesTruncatedTrace: an .htrc chopped on disk (torn
// write, partial copy) is detected at Open by the size check, moved to
// quarantine, and left out of the index.
func TestOpenQuarantinesTruncatedTrace(t *testing.T) {
	dir := t.TempDir()
	m := seedStore(t, dir, "trunc")
	path := filepath.Join(dir, m.Hash+".htrc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("truncated trace indexed: %+v", s.List())
	}
	if _, err := os.Stat(filepath.Join(dir, errfs.QuarantineDir, m.Hash+".htrc")); err != nil {
		t.Errorf("truncated trace not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("truncated trace still on the serving path: %v", err)
	}
	// Re-upload heals: the same bytes land under the same address again.
	m2, created, err := s.Put(bytes.NewReader(traceBytes(t, "trunc", 5)))
	if err != nil || !created || m2.Hash != m.Hash {
		t.Fatalf("healing re-upload: %+v created=%v err=%v", m2, created, err)
	}
	if _, err := s.Path(m.Hash); err != nil {
		t.Errorf("healed trace does not serve: %v", err)
	}
}

// TestPathQuarantinesBitRot: same-size corruption slips past Open's size
// check but fails the full hash verification on first Path.
func TestPathQuarantinesBitRot(t *testing.T) {
	dir := t.TempDir()
	m := seedStore(t, dir, "rot")
	path := filepath.Join(dir, m.Hash+".htrc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("size-preserving rot should index at Open; got %d entries", s.Len())
	}
	if _, err := s.Path(m.Hash); err == nil {
		t.Fatal("Path served a trace whose bytes no longer hash to its address")
	} else if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("Path error %v does not mention quarantine", err)
	}
	if _, ok := s.Get(m.Hash); ok {
		t.Error("rotten trace still in the index after quarantine")
	}
	if _, err := os.Stat(filepath.Join(dir, errfs.QuarantineDir, m.Hash+".htrc")); err != nil {
		t.Errorf("rotten trace not quarantined: %v", err)
	}
}

// TestScrubDetectsRotAndSkipsQuarantine: the background pass catches the
// same corruption proactively, reports it, and never descends into (or
// disturbs) the quarantine dir — including on repeat passes.
func TestScrubDetectsRotAndSkipsQuarantine(t *testing.T) {
	dir := t.TempDir()
	good := seedStore(t, dir, "scrub-good")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad, created, err := s.Put(bytes.NewReader(traceBytes(t, "scrub-bad", 7)))
	if err != nil || !created {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, bad.Hash+".htrc")
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Path verified `bad` at Put time; a scrub must re-check from disk, so
	// reset the memo the way a restart would.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	rep := s2.Scrub()
	if rep.Scanned != 2 || rep.Verified != 1 || rep.Quarantined != 1 || rep.Errors != 0 {
		t.Fatalf("scrub report %+v, want 2 scanned / 1 verified / 1 quarantined", rep)
	}
	if got, ok := s2.LastScrub(); !ok || got != rep {
		t.Error("LastScrub does not reflect the pass")
	}
	if _, err := s2.Path(good.Hash); err != nil {
		t.Errorf("good trace stopped serving after scrub: %v", err)
	}
	qfile := filepath.Join(dir, errfs.QuarantineDir, bad.Hash+".htrc")
	qinfo, err := os.Stat(qfile)
	if err != nil {
		t.Fatalf("rotten trace not quarantined: %v", err)
	}
	// A second pass over the now-clean store leaves quarantine untouched.
	rep2 := s2.Scrub()
	if rep2.Scanned != 1 || rep2.Quarantined != 0 {
		t.Fatalf("second scrub %+v, want 1 scanned / 0 quarantined", rep2)
	}
	if info, err := os.Stat(qfile); err != nil || info.Size() != qinfo.Size() {
		t.Errorf("second scrub disturbed quarantine: %v", err)
	}
}

// TestOpenReindexRacesConcurrentUpload: Open-time re-indexing of a
// populated directory races live uploads into the same store dir from a
// second handle. Under -race this pins that both handles stay coherent
// and every trace serves from whichever handle indexed it.
func TestOpenReindexRacesConcurrentUpload(t *testing.T) {
	dir := t.TempDir()
	// Pre-populate so re-index has real work.
	seeded := make([]Meta, 0, 4)
	for i := 0; i < 4; i++ {
		seeded = append(seeded, seedStore(t, dir, fmt.Sprint("pre-", i)))
	}
	uploader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const uploads = 8
	var wg sync.WaitGroup
	uploaded := make([]Meta, uploads)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < uploads; i++ {
			m, _, err := uploader.Put(bytes.NewReader(traceBytes(t, fmt.Sprint("live-", i), 3+i)))
			if err != nil {
				t.Errorf("concurrent Put: %v", err)
				return
			}
			uploaded[i] = m
		}
	}()
	// Meanwhile, re-open the same directory repeatedly — the daemon
	// restarting while a peer process uploads.
	var last *Store
	for i := 0; i < 6; i++ {
		reopened, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		for _, m := range seeded {
			if _, err := reopened.Path(m.Hash); err != nil {
				t.Fatalf("seeded trace missing during concurrent upload: %v", err)
			}
		}
		last = reopened
	}
	wg.Wait()

	// Everything uploaded serves from a final fresh handle.
	final, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(seeded, uploaded...) {
		if _, err := final.Path(m.Hash); err != nil {
			t.Errorf("trace %s lost after the race: %v", m.Hash[:12], err)
		}
	}
	if rep := final.Scrub(); rep.Quarantined != 0 || rep.Errors != 0 {
		t.Errorf("post-race scrub found damage: %+v", rep)
	}
	_ = last
}

// TestPutFaultsNeverPublishTornTrace drives Put through injected
// failures at every durability point: the staging write, its fsync, the
// publishing rename, and the directory sync. Each must error out without
// a half-published entry, and the store must stay healthy.
func TestPutFaultsNeverPublishTornTrace(t *testing.T) {
	for _, fault := range []errfs.Fault{
		{Op: errfs.OpWrite, Path: ".upload-"},
		{Op: errfs.OpWrite, Path: ".upload-", Short: 8},
		{Op: errfs.OpSync, Path: ".upload-"},
		{Op: errfs.OpRename, Path: ".htrc"},
		{Op: errfs.OpSyncDir},
	} {
		t.Run(string(fault.Op)+fmt.Sprint("-short", fault.Short), func(t *testing.T) {
			dir := t.TempDir()
			prior := seedStore(t, dir, "prior")
			inj := errfs.Inject(errfs.OS{}, fault)
			s, err := OpenFS(dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Put(bytes.NewReader(traceBytes(t, "doomed", 4))); err == nil {
				t.Fatal("faulted Put reported success")
			}
			if s.Len() != 1 {
				t.Fatalf("store indexes %d traces after faulted Put, want the 1 prior", s.Len())
			}
			// A fresh handle over the real disk sees only the prior trace,
			// whole; no torn upload published, no temp leaked.
			clean, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Len() != 1 {
				t.Fatalf("reopened store indexes %d traces, want 1", clean.Len())
			}
			if _, err := clean.Path(prior.Hash); err != nil {
				t.Errorf("prior trace damaged by faulted Put: %v", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".upload-") || strings.HasPrefix(e.Name(), ".atomic-") {
					t.Errorf("temp file %s leaked", e.Name())
				}
			}
		})
	}
}
