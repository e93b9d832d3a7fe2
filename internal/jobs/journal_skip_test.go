package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/errfs"
)

// The journal skips every record that cannot change replay. These tests
// hold that rule to what it must preserve: the replay of the bytes on
// disk, the failure semantics of a journal that writes everything, and
// the restart listing the pre-skip two-record cache-hit rule produced.

// readRecords decodes the records currently in the journal file.
func readRecords(t testing.TB, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := decodeRecords(data)
	return recs
}

// replayEqual reports whether two replays agree on order, specs and fates.
func replayEqual(a, b []replayedJob) bool {
	return slices.EqualFunc(a, b, func(x, y replayedJob) bool {
		return x.hash == y.hash && bytes.Equal(x.spec, y.spec) && x.foldState == y.foldState
	})
}

// fullScanPrune is pruneLocked before its prefix fast path, kept as the
// reference: one pass over every job, forgetting the oldest terminal ones
// past retain.
func fullScanPrune(order []*Job, retain int) []*Job {
	excess := len(order) - retain
	var kept []*Job
	for _, j := range order {
		if excess > 0 && j.state.Terminal() {
			excess--
			continue
		}
		kept = append(kept, j)
	}
	return kept
}

func TestPruneMatchesFullScan(t *testing.T) {
	const n = 8
	lives := map[string][]int{
		"all terminal":   nil,
		"live first":     {0},
		"live middle":    {n / 2},
		"live last":      {n - 1},
		"live first+3":   {0, 3},
		"live all but 1": {0, 1, 2, 3, 4, 5, 6},
	}
	for name, live := range lives {
		for retain := 1; retain <= n+1; retain++ {
			t.Run(fmt.Sprintf("%s/retain=%d", name, retain), func(t *testing.T) {
				m := &Manager{cfg: Config{RetainJobs: retain}, jobs: map[string]*Job{}}
				for i := 0; i < n; i++ {
					j := newJob(fmt.Sprintf("job-%d", i), journalHash(fmt.Sprint(i)), nil)
					if !slices.Contains(live, i) {
						j.state = Done
					}
					m.jobs[j.id] = j
					m.order = append(m.order, j)
				}
				want := fullScanPrune(slices.Clone(m.order), retain)
				m.pruneLocked()
				if !slices.Equal(m.order, want) {
					t.Fatalf("pruned order %v, full scan keeps %v", ids(m.order), ids(want))
				}
				if len(m.jobs) != len(want) {
					t.Fatalf("%d jobs resolvable, want %d", len(m.jobs), len(want))
				}
				for _, j := range want {
					if m.jobs[j.id] != j {
						t.Fatalf("kept job %s no longer resolvable", j.id)
					}
				}
			})
		}
	}
}

func ids(js []*Job) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.id
	}
	return out
}

// TestJournalSkipFailureSemantics: the fold takes a record only once it
// is durable, a journal whose file a failed write closed reports every
// later append, and a failed Compact leaves the fold on the old file.
func TestJournalSkipFailureSemantics(t *testing.T) {
	h1, h2 := journalHash("one"), journalHash("two")
	done1 := Record{Type: recDone, Hash: h1, Spec: []byte(`"one"`)}
	done2 := Record{Type: recDone, Hash: h2, Spec: []byte(`"two"`)}

	t.Run("fsync fails on done", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: errfs.OpSync, Path: "journal.wal", After: 1})
		jnl, _, err := OpenJournal(path, inj)
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		if err := jnl.Append(Record{Type: recSubmit, Hash: h1, Spec: done1.Spec}); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(done1); err == nil {
			t.Fatal("failed fsync reported success")
		}
		if jnl.Err() == nil {
			t.Fatal("failed fsync not latched in Err()")
		}
		if err := jnl.Append(done1); err != nil {
			t.Fatalf("retry of the failed record: %v", err)
		}
		if got := inj.Count(errfs.OpWrite); got != 3 {
			t.Fatalf("%d writes, want 3: the retry of a record whose fsync failed must be written", got)
		}
		if err := jnl.Append(done1); err != nil {
			t.Fatal(err)
		}
		if got := inj.Count(errfs.OpWrite); got != 3 {
			t.Fatalf("%d writes after a durable done was appended again, want 3 (skipped)", got)
		}
	})

	t.Run("write failure elides nothing", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: errfs.OpWrite, Path: "journal.wal", After: 1})
		jnl, _, err := OpenJournal(path, inj)
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		if err := jnl.Append(done1); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(done2); err == nil {
			t.Fatal("failed write reported success")
		}
		// done1 is durable and would be skipped by a healthy journal; a
		// closed one must still say it is not persisting.
		for _, rec := range []Record{done1, done2} {
			if err := jnl.Append(rec); err == nil {
				t.Fatalf("append of %s after a write closed the file reported success", rec.Type)
			}
		}
	})

	t.Run("failed compact keeps the old fold", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: errfs.OpRename, Path: "journal.wal"})
		jnl, _, err := OpenJournal(path, inj)
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		if err := jnl.Append(done1); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Compact([]Record{done2}); err == nil {
			t.Fatal("compact with a failing rename reported success")
		}
		before := inj.Count(errfs.OpWrite)
		if err := jnl.Append(done1); err != nil {
			t.Fatal(err)
		}
		if got := inj.Count(errfs.OpWrite); got != before {
			t.Fatal("after a failed compact, a record the old file already holds was written")
		}
		if err := jnl.Append(done2); err != nil {
			t.Fatal(err)
		}
		if got := inj.Count(errfs.OpWrite); got != before+1 {
			t.Fatal("after a failed compact, a record only the failed rewrite held was skipped")
		}
		// A compact that succeeds moves the fold to the new file.
		if err := jnl.Compact([]Record{done2}); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(done1); err != nil {
			t.Fatal(err)
		}
		if got := readRecords(t, path); len(got) != 2 || got[0].Hash != h2 || got[1].Hash != h1 {
			t.Fatalf("journal after compact + append = %+v, want done two, done one", got)
		}
	})
}

// The fuzz alphabet: four hashes, each with one spec — the hash is the
// spec's hash, so two records of one hash never disagree on it — and a
// few error strings.
var (
	fuzzHashes = []string{journalHash("f0"), journalHash("f1"), journalHash("f2"), journalHash("f3")}
	fuzzErrors = []string{"", "sim blew up", "context canceled"}
	fuzzTypes  = []string{recSubmit, recStart, recDone, recFailed, recCanceled}
)

// fuzzRecords decodes two bytes per record: the first picks the type
// (mod 5) and hash (mod 4), the second whether the spec rides along and
// which error string does.
func fuzzRecords(data []byte) []Record {
	var recs []Record
	for ; len(data) >= 2 && len(recs) < 64; data = data[2:] {
		h := int(data[0]/5) % len(fuzzHashes)
		rec := Record{Type: fuzzTypes[data[0]%5], Hash: fuzzHashes[h],
			Error: fuzzErrors[int(data[1]>>1)%len(fuzzErrors)]}
		if data[1]&1 == 1 {
			rec.Spec = []byte(fmt.Sprintf(`{"h":%d}`, h))
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzJournalSkipMatchesReference: whatever Append skips, the replay of
// the bytes it left on disk equals the replay of every record it was
// handed.
func FuzzJournalSkipMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 10, 0, 10, 1, 10, 1})            // submit, start, done, cache hits
	f.Add([]byte{0, 1, 15, 2, 10, 1, 20, 4, 0, 0, 5, 0})      // failed, then hit, canceled, resubmit
	f.Add([]byte{2, 1, 7, 0, 12, 3, 17, 5, 2, 0, 1, 0, 3, 2}) // four hashes interleaved
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzRecords(data)
		path := filepath.Join(t.TempDir(), "journal.wal")
		jnl, _, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		for _, rec := range recs {
			if err := jnl.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		onDisk := readRecords(t, path)
		if got, want := replayRecords(onDisk), replayRecords(recs); !replayEqual(got, want) {
			t.Fatalf("replay of the %d records on disk\n%+v\n!= replay of the %d appended\n%+v",
				len(onDisk), got, len(recs), want)
		}
	})
}

// parentHitRecords is the cache-hit journaling rule before the skip, kept
// as the reference: every hit wrote a submit carrying the spec, then a
// done.
func parentHitRecords(hash string, spec []byte) []Record {
	return []Record{{Type: recSubmit, Hash: hash, Spec: spec}, {Type: recDone, Hash: hash}}
}

// waitTerminalRecord polls the journal at path until it holds hash's
// terminal record of type typ, and returns the journal's records then.
func waitTerminalRecord(t *testing.T, path, hash, typ string) []Record {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		recs := readRecords(t, path)
		if slices.ContainsFunc(recs, func(r Record) bool { return r.Hash == hash && r.Type == typ }) {
			return recs
		}
	}
	t.Fatalf("journal never got %s's %s record", hash, typ)
	return nil
}

// TestManagerRestartCacheHitJournal: a cache hit journals nothing for a
// hash already journaled done and one spec-carrying done otherwise, and a
// restart lists exactly what the two-record rule's journal would have.
func TestManagerRestartCacheHitJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Journal: jnl, Resume: recs, Cache: cache,
		Run: func(ctx context.Context, spec []byte, progress func(int, int)) ([]byte, error) {
			if string(spec) == `"fail"` {
				return nil, errors.New("sim blew up")
			}
			return []byte(`[]`), nil
		}})
	var ref []Record // the journal the two-record hit rule would have written
	cold := func(hash string, spec []byte, want State, terminal string) {
		t.Helper()
		j, _, err := m.Submit(hash, spec)
		if err != nil {
			t.Fatal(err)
		}
		if state := awaitTerminal(t, j); state != want {
			t.Fatalf("cold job ended %s, want %s", state, want)
		}
		// The job's state turns terminal before its record is journaled:
		// wait for that record, or it may land during the next subtest.
		recs := waitTerminalRecord(t, path, hash, terminal) // cold records are never skipped
		ref = append(ref, recs[len(ref):]...)
	}
	hit := func(hash string, spec []byte) {
		t.Helper()
		j, _, err := m.Submit(hash, spec)
		if err != nil || !j.Info().CacheHit {
			t.Fatalf("Submit of a cached spec did not hit (err=%v)", err)
		}
		ref = append(ref, parentHitRecords(hash, spec)...)
	}
	hDone, hFail, hNew := journalHash("done"), journalHash("fail"), journalHash("new")
	cold(hDone, []byte(`"done"`), Done, recDone)
	cold(hFail, []byte(`"fail"`), Failed, recFailed)

	t.Run("hits on a done hash write nothing", func(t *testing.T) {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			hit(hDone, []byte(`"done"`))
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
			t.Fatalf("5 hits on a journaled-done hash changed the journal: %d → %d bytes", len(before), len(after))
		}
	})
	appendsOne := func(hash string, spec []byte) {
		t.Helper()
		n := len(readRecords(t, path))
		hit(hash, spec)
		got := readRecords(t, path)
		want := Record{Type: recDone, Hash: hash, Spec: spec}
		if len(got) != n+1 || got[n].Type != want.Type || got[n].Hash != want.Hash || !bytes.Equal(got[n].Spec, want.Spec) {
			t.Fatalf("hit appended %+v, want exactly %+v", got[n:], want)
		}
	}
	t.Run("hit on an unseen hash appends one spec-carrying done", func(t *testing.T) {
		if err := cache.Put(hNew, []byte(`[]`), []byte(`"new"`)); err != nil {
			t.Fatal(err)
		}
		appendsOne(hNew, []byte(`"new"`))
		hit(hNew, []byte(`"new"`))
	})
	t.Run("hit on a failed hash appends one record", func(t *testing.T) {
		if err := cache.Put(hFail, []byte(`[]`), []byte(`"fail"`)); err != nil {
			t.Fatal(err)
		}
		appendsOne(hFail, []byte(`"fail"`))
	})

	drainAll(t, m)
	jnl.Close()
	jnl2, recs2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	noRun := func(context.Context, []byte, func(int, int)) ([]byte, error) {
		t.Error("a restart of terminal jobs ran one")
		return nil, errors.New("unreachable")
	}
	m2 := NewManager(Config{Journal: jnl2, Resume: recs2, Cache: cache, Run: noRun})
	defer drainAll(t, m2)
	mRef := NewManager(Config{Resume: ref, Cache: cache, Run: noRun})
	defer drainAll(t, mRef)
	got, want := m2.Jobs(), mRef.Jobs()
	same := func(a, b Info) bool {
		return a.Hash == b.Hash && a.State == b.State && bytes.Equal(a.Spec, b.Spec) && a.Error == b.Error
	}
	if !slices.EqualFunc(got, want, same) {
		t.Fatalf("restarted listing\n%+v\n!= listing from the two-record reference journal\n%+v", got, want)
	}
	if len(got) != 3 {
		t.Fatalf("restart lists %d jobs, want 3", len(got))
	}
}

// TestConcurrentCacheHitsJournalOnce: hits racing on one never-journaled
// hash append outside the manager lock, yet the journal's fold lets
// exactly one of them write.
func TestConcurrentCacheHitsJournalOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	cache, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	h, spec := journalHash("hot"), []byte(`"hot"`)
	if err := cache.Put(h, []byte(`[]`), spec); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Journal: jnl, Resume: recs, Cache: cache, RetainJobs: 4,
		Run: func(context.Context, []byte, func(int, int)) ([]byte, error) {
			return nil, errors.New("only cached specs are submitted")
		}})
	defer drainAll(t, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if j, _, err := m.Submit(h, spec); err != nil || !j.Info().CacheHit {
					t.Errorf("concurrent hit: err=%v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := readRecords(t, path); len(got) != 1 || got[0].Type != recDone || !bytes.Equal(got[0].Spec, spec) {
		t.Fatalf("160 concurrent hits journaled %+v, want one done carrying the spec", got)
	}
	if n := len(m.Jobs()); n != 4 {
		t.Fatalf("%d jobs retained, want RetainJobs=4", n)
	}
}
