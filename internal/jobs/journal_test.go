package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/errfs"
)

func journalHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// drainAll shuts a manager down with a generous deadline.
func drainAll(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Drain(ctx)
}

// awaitTerminal blocks until the job ends, returning its final state.
func awaitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	from := 0
	for {
		events, _, terminal, err := j.NextRaw(ctx, from)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		from += len(events)
		if terminal {
			return j.Info().State
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(recs))
	}
	h1, h2 := journalHash("a"), journalHash("b")
	want := []Record{
		{Type: recSubmit, Hash: h1, Spec: []byte(`{"kind":"a"}`)},
		{Type: recStart, Hash: h1},
		{Type: recDone, Hash: h1},
		{Type: recSubmit, Hash: h2, Spec: []byte(`{"kind":"b"}`)},
		{Type: recFailed, Hash: h2, Error: "sim blew up"},
	}
	for _, rec := range want {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	jnl2, got, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Hash != want[i].Hash ||
			string(got[i].Spec) != string(want[i].Spec) || got[i].Error != want[i].Error {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalTornTailTruncated: a record torn mid-append (the kill-9
// case) is discarded on recovery, the intact prefix survives, and the
// file is truncated so later appends land on a record boundary.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := Record{Type: recSubmit, Hash: journalHash("a"), Spec: []byte(`{}`)}
	if err := jnl.Append(good); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	tears := map[string]func(intact []byte) []byte{
		"no newline": func(b []byte) []byte {
			line, _ := encodeLine(Record{Type: recStart, Hash: journalHash("a")})
			return append(b, line[:len(line)-3]...)
		},
		"bad checksum": func(b []byte) []byte {
			line, _ := encodeLine(Record{Type: recStart, Hash: journalHash("a")})
			line[0] ^= 'f' // corrupt the crc field
			return append(b, line...)
		},
		"flipped payload bit": func(b []byte) []byte {
			line, _ := encodeLine(Record{Type: recStart, Hash: journalHash("a")})
			line[12]++
			return append(b, line...)
		},
		"garbage": func(b []byte) []byte {
			return append(b, []byte("not a record\n")...)
		},
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			intact, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := filepath.Join(t.TempDir(), "journal.wal")
			if err := os.WriteFile(torn, tear(append([]byte(nil), intact...)), 0o644); err != nil {
				t.Fatal(err)
			}
			jnl, recs, err := OpenJournal(torn, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			if len(recs) != 1 || recs[0].Type != recSubmit {
				t.Fatalf("recovered %+v, want just the intact submit record", recs)
			}
			data, err := os.ReadFile(torn)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) != int64(len(intact)) {
				t.Fatalf("file is %d bytes after recovery, want truncated to %d", len(data), len(intact))
			}
			// The truncated journal must accept appends cleanly.
			if err := jnl.Append(Record{Type: recDone, Hash: journalHash("a")}); err != nil {
				t.Fatal(err)
			}
			_, recs2, err := OpenJournal(torn, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs2) != 2 {
				t.Fatalf("after post-recovery append, recovered %d records, want 2", len(recs2))
			}
		})
	}
}

// TestJournalShortWriteRecovers drives the torn tail through the fault
// injector rather than hand-crafting bytes: an EIO mid-append leaves a
// genuine partial record that the next open truncates away.
func TestJournalShortWriteRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: errfs.OpWrite, Path: "journal.wal", After: 1, Short: 20})
	jnl, _, err := OpenJournal(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(Record{Type: recSubmit, Hash: journalHash("a"), Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	err = jnl.Append(Record{Type: recStart, Hash: journalHash("a")})
	if err == nil {
		t.Fatal("short write reported success")
	}
	if jnl.Err() == nil {
		t.Fatal("append failure not latched in Err()")
	}
	// Later appends must not land after the torn bytes.
	if err := jnl.Append(Record{Type: recDone, Hash: journalHash("a")}); err == nil {
		t.Fatal("append after a torn write reported success")
	}

	_, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != recSubmit {
		t.Fatalf("recovered %+v, want just the pre-tear record", recs)
	}
}

// TestJournalEIOStormKeepsManagerServing: with the journal disk
// persistently failing, jobs still run to completion — durability
// degrades, availability does not — and the failure is latched.
func TestJournalEIOStormKeepsManagerServing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	inj := errfs.Inject(errfs.OS{}, errfs.Fault{Op: errfs.OpSync, Path: "journal.wal", Persistent: true, Err: syscall.EIO})
	jnl, recs, err := OpenJournal(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Journal: jnl,
		Resume:  recs,
		Run: func(ctx context.Context, spec []byte, progress func(int, int)) ([]byte, error) {
			return []byte(`[]`), nil
		},
	})
	defer drainAll(t, m)
	j, created, err := m.Submit(journalHash("stormy"), []byte(`{}`))
	if err != nil || !created {
		t.Fatalf("Submit under journal EIO storm: created=%v err=%v", created, err)
	}
	if state := awaitTerminal(t, j); state != Done {
		t.Fatalf("job under journal EIO storm ended %s, want done", state)
	}
	if jnl.Err() == nil {
		t.Fatal("journal EIO storm not latched in Err()")
	}
}

// managerPair spins up a manager journaled at path whose runner blocks
// until released, for crash/restart choreography.
type gatedRunner struct {
	started chan string // receives each hash as its run begins
	release chan struct{}
	ran     atomic.Int32
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{started: make(chan string, 16), release: make(chan struct{})}
}

func (g *gatedRunner) run(ctx context.Context, spec []byte, progress func(int, int)) ([]byte, error) {
	g.ran.Add(1)
	select {
	case g.started <- string(spec):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case <-g.release:
		return []byte(fmt.Sprintf(`{"from":%q}`, spec)), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestManagerRestartResumesLiveJobs is the heart of the tentpole at the
// package level: jobs queued or running when the manager dies come back
// on the next NewManager over the same journal — re-run when their
// result is missing, served from the cache when it already landed — and
// terminal jobs are re-listed without re-running.
func TestManagerRestartResumesLiveJobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	cacheDir := filepath.Join(dir, "cache")

	jnl, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache1, err := NewCache(1<<20, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGatedRunner()
	m1 := NewManager(Config{Workers: 1, Journal: jnl, Resume: recs, Cache: cache1, Run: gate.run})

	hDone, hRunning, hQueued := journalHash("done"), journalHash("running"), journalHash("queued")
	jDone, _, err := m1.Submit(hDone, []byte(`"done"`))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	close(gate.release) // let the first job finish
	if state := awaitTerminal(t, jDone); state != Done {
		t.Fatalf("first job ended %s", state)
	}

	// Re-arm the gate so the next two jobs hang live: one running, one
	// stuck behind the single worker.
	gate.release = make(chan struct{})
	if _, _, err := m1.Submit(hRunning, []byte(`"running"`)); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	if _, _, err := m1.Submit(hQueued, []byte(`"queued"`)); err != nil {
		t.Fatal(err)
	}
	// Kill-9 model: the process vanishes without Drain. Just abandon m1
	// (its goroutines die with the test) and re-open the journal.
	jnl.Close()

	jnl2, recs2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	cache2, err := NewCache(1<<20, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	gate2 := newGatedRunner()
	close(gate2.release)
	m2 := NewManager(Config{Workers: 2, Journal: jnl2, Resume: recs2, Cache: cache2, Run: gate2.run})
	defer drainAll(t, m2)

	byHash := map[string]Info{}
	for _, info := range m2.Jobs() {
		byHash[info.Hash] = info
	}
	if len(byHash) != 3 {
		t.Fatalf("restarted manager lists %d jobs, want 3: %+v", len(byHash), byHash)
	}
	// The finished job: re-listed done, not re-run, served from cache.
	if got := byHash[hDone]; got.State != Done {
		t.Fatalf("finished job re-listed as %s", got.State)
	}
	if _, _, ok := m2.ResultTagged(hDone); !ok {
		t.Fatal("finished job's result missing from restarted cache")
	}
	// The live jobs: resubmitted and completing.
	for _, h := range []string{hRunning, hQueued} {
		j, ok := m2.Get(byHash[h].ID)
		if !ok {
			t.Fatalf("job %s not resolvable by id", h)
		}
		if state := awaitTerminal(t, j); state != Done {
			t.Fatalf("resumed job %s ended %s, want done", h, state)
		}
	}
	if n := gate2.ran.Load(); n != 2 {
		t.Fatalf("restart re-ran %d jobs, want exactly the 2 lost ones", n)
	}
}

// TestManagerRestartServesCachedLiveJobFromCache: the crash window where
// the result landed in the cache but the terminal record didn't — replay
// sees a live job, finds the cache already has its bytes, and completes
// it without running anything.
func TestManagerRestartServesCachedLiveJobFromCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	h := journalHash("landed")

	jnl, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn window directly: submit + start journaled, result
	// cached, no terminal record.
	if err := jnl.Append(Record{Type: recSubmit, Hash: h, Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(Record{Type: recStart, Hash: h}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	cache, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(h, []byte(`{"cells":[]}`), []byte(`{}`))

	jnl2, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	ran := atomic.Int32{}
	m := NewManager(Config{Journal: jnl2, Resume: recs, Cache: cache,
		Run: func(ctx context.Context, spec []byte, progress func(int, int)) ([]byte, error) {
			ran.Add(1)
			return []byte(`[]`), nil
		}})
	defer drainAll(t, m)

	infos := m.Jobs()
	if len(infos) != 1 || infos[0].State != Done || !infos[0].CacheHit {
		t.Fatalf("replayed job = %+v, want done cache hit", infos)
	}
	if ran.Load() != 0 {
		t.Fatalf("runner ran %d times for a cached result", ran.Load())
	}
}

// TestManagerReplayCompactsJournal: after restart, the journal holds one
// record per surviving job, not the whole history.
func TestManagerReplayCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	jnl, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := journalHash("busy")
	// A noisy history for one job: three full generations.
	for i := 0; i < 3; i++ {
		for _, rec := range []Record{
			{Type: recSubmit, Hash: h, Spec: []byte(`{}`)},
			{Type: recStart, Hash: h},
			{Type: recDone, Hash: h},
		} {
			if err := jnl.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	jnl.Close()

	jnl2, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("recovered %d records, want 9", len(recs))
	}
	m := NewManager(Config{Journal: jnl2, Resume: recs,
		Run: func(ctx context.Context, spec []byte, progress func(int, int)) ([]byte, error) {
			return []byte(`[]`), nil
		}})
	drainAll(t, m)
	jnl2.Close()

	_, after, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("journal holds %d records after compaction, want 1", len(after))
	}
	if after[0].Type != recDone || after[0].Hash != h || len(after[0].Spec) == 0 {
		t.Fatalf("compacted record = %+v, want done with spec", after[0])
	}
}

// TestManagerReplayRespectsRetainJobs: a journal with more terminal jobs
// than RetainJobs re-lists only the newest.
func TestManagerReplayRespectsRetainJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		h := journalHash(fmt.Sprintf("old-%d", i))
		if err := jnl.Append(Record{Type: recSubmit, Hash: h, Spec: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(Record{Type: recDone, Hash: h}); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()
	jnl2, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	m := NewManager(Config{RetainJobs: 4, Journal: jnl2, Resume: recs,
		Run: func(ctx context.Context, spec []byte, progress func(int, int)) ([]byte, error) {
			return []byte(`[]`), nil
		}})
	defer drainAll(t, m)
	infos := m.Jobs()
	if len(infos) != 4 {
		t.Fatalf("re-listed %d jobs, want RetainJobs=4", len(infos))
	}
	if infos[len(infos)-1].Hash != journalHash("old-5") {
		t.Fatal("retention dropped the newest terminal job instead of the oldest")
	}
}

// TestManagerReplayFailsSpeclessLiveJob: a start record whose submit
// record was lost cannot be re-run; it is re-listed failed, not dropped.
func TestManagerReplayFailsSpeclessLiveJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := journalHash("orphan")
	if err := jnl.Append(Record{Type: recStart, Hash: h}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	jnl2, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	m := NewManager(Config{Journal: jnl2, Resume: recs,
		Run: func(ctx context.Context, spec []byte, progress func(int, int)) ([]byte, error) {
			t.Error("specless job must not run")
			return nil, errors.New("unreachable")
		}})
	defer drainAll(t, m)
	infos := m.Jobs()
	if len(infos) != 1 || infos[0].State != Failed ||
		!strings.Contains(infos[0].Error, "spec not recovered") {
		t.Fatalf("specless live job re-listed as %+v, want failed", infos)
	}
}

// TestManagerCanceledWhileQueuedIsJournaled: cancel-before-start lands a
// terminal record, so a restart re-lists the job canceled instead of
// resurrecting it.
func TestManagerCanceledWhileQueuedIsJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGatedRunner()
	m := NewManager(Config{Workers: 1, Journal: jnl, Resume: recs, Run: gate.run})
	if _, _, err := m.Submit(journalHash("blocker"), []byte(`"blocker"`)); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	jq, _, err := m.Submit(journalHash("victim"), []byte(`"victim"`))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(jq.ID()) {
		t.Fatal("cancel refused")
	}
	close(gate.release)
	drainAll(t, m)
	jnl.Close()

	jnl2, recs2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	m2 := NewManager(Config{Journal: jnl2, Resume: recs2, Run: gate.run})
	defer drainAll(t, m2)
	for _, info := range m2.Jobs() {
		if info.Hash == journalHash("victim") {
			if info.State != Canceled {
				t.Fatalf("canceled-while-queued job re-listed as %s", info.State)
			}
			return
		}
	}
	t.Fatal("canceled job missing from restarted listing")
}

// submitInstantJobs submits n distinct specs to m one at a time, each
// once the last one's worker is done with it, so every submit finds a
// worker idle and racing it to the journal.
func submitInstantJobs(t *testing.T, m *Manager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		spec := fmt.Sprintf(`"instant-%d"`, i)
		j, _, err := m.Submit(journalHash(spec), []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if state := awaitTerminal(t, j); state != Done {
			t.Fatalf("job %s ended %s", j.Info().Hash, state)
		}
		// The worker forgets the job last, after journaling its end.
		for busy := true; busy; time.Sleep(50 * time.Microsecond) {
			m.mu.Lock()
			busy = len(m.inflight) > 0
			m.mu.Unlock()
		}
	}
}

// TestSubmitJournalsBeforeRun: a job's submit record is on disk before
// its run starts, ahead of every other record of its hash: a worker's
// start or done record never precedes it.
func TestSubmitJournalsBeforeRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jnl, recs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	var early atomic.Int32
	var read int64 // the journal bytes earlier runs decoded; one worker runs them in turn
	m := NewManager(Config{Journal: jnl, Resume: recs,
		Run: func(_ context.Context, spec []byte, _ func(int, int)) ([]byte, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
				return nil, err
			}
			// Every record of this job's hash lies past what earlier runs read.
			recs, intact := decodeRecords(data[read:])
			read += intact
			hash := journalHash(string(spec))
			if i := slices.IndexFunc(recs, func(r Record) bool { return r.Hash == hash }); i < 0 || recs[i].Type != recSubmit {
				early.Add(1)
			}
			return []byte(`[]`), nil
		}})
	submitInstantJobs(t, m, 200)
	drainAll(t, m)
	if n := early.Load(); n != 0 {
		t.Fatalf("%d of 200 jobs started before their submit record was journaled", n)
	}
}

// TestManagerRestartRunsNoFinishedJob: jobs that finished before a clean
// shutdown stay finished across a restart, even with nothing cached: the
// journal alone says they are done.
func TestManagerRestartRunsNoFinishedJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	var runs atomic.Int32
	run := func(context.Context, []byte, func(int, int)) ([]byte, error) {
		runs.Add(1)
		return []byte(`[]`), nil
	}
	start := func() (*Manager, *Journal) {
		jnl, recs, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := NewCache(1<<20, "")
		if err != nil {
			t.Fatal(err)
		}
		return NewManager(Config{Journal: jnl, Resume: recs, Cache: cache, Run: run}), jnl
	}
	m, jnl := start()
	submitInstantJobs(t, m, 200)
	drainAll(t, m)
	jnl.Close()
	before := runs.Load()

	m, jnl = start()
	defer jnl.Close()
	drainAll(t, m)
	if after := runs.Load(); after != before {
		t.Fatalf("a restart ran %d of the %d finished jobs again", after-before, before)
	}
}
