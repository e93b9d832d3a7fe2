package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errfs"
)

// hashOf mints a valid content hash from any string.
func hashOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// waitTerminal tails a job's event stream to its end and returns every
// event seen, proving Next's replay+tail contract along the way.
func waitTerminal(t *testing.T, j *Job) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var all []Event
	for {
		events, _, terminal, err := j.NextRaw(ctx, len(all))
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for i, e := range events {
			if e.Seq != len(all)+i {
				t.Fatalf("event sequence gap: got seq %d at position %d", e.Seq, len(all)+i)
			}
		}
		all = append(all, events...)
		if terminal {
			return all
		}
	}
}

func TestJobLifecycleAndEventStream(t *testing.T) {
	var ran atomic.Int32
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			ran.Add(1)
			progress(1, 2)
			progress(2, 2)
			return []byte(`["ok"]`), nil
		},
	})
	defer m.Drain(context.Background())

	j, created, err := m.Submit(hashOf("a"), []byte(`{"spec":1}`))
	if err != nil || !created {
		t.Fatalf("Submit = %v, created=%v", err, created)
	}
	events := waitTerminal(t, j)
	wantStates := []State{Queued, Running, Done}
	var gotStates []State
	var progress []int
	for _, e := range events {
		switch e.Type {
		case "state":
			gotStates = append(gotStates, e.State)
		case "progress":
			progress = append(progress, e.Done)
		}
	}
	if fmt.Sprint(gotStates) != fmt.Sprint(wantStates) {
		t.Errorf("states = %v, want %v", gotStates, wantStates)
	}
	if fmt.Sprint(progress) != "[1 2]" {
		t.Errorf("progress = %v, want [1 2]", progress)
	}
	final := events[len(events)-1]
	if final.Result != hashOf("a") {
		t.Errorf("terminal event result = %q, want the spec hash", final.Result)
	}
	info := j.Info()
	if info.State != Done || info.CellsDone != 2 || info.CellsTotal != 2 || info.Error != "" {
		t.Errorf("Info = %+v", info)
	}
	if info.StartedNs == 0 || info.FinishedNs == 0 || info.CreatedNs == 0 {
		t.Errorf("timestamps not stamped: %+v", info)
	}
	if ran.Load() != 1 {
		t.Errorf("runner ran %d times, want 1", ran.Load())
	}
}

func TestSubmitCacheHitRunsNothing(t *testing.T) {
	cache, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	m := NewManager(Config{
		Workers: 1,
		Cache:   cache,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			ran.Add(1)
			return []byte("result"), nil
		},
	})
	defer m.Drain(context.Background())

	h := hashOf("cached")
	j1, _, err := m.Submit(h, []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	if ran.Load() != 1 {
		t.Fatalf("first submit ran %d times", ran.Load())
	}

	j2, created, err := m.Submit(h, []byte("{}"))
	if err != nil || !created {
		t.Fatalf("second Submit = %v, created=%v", err, created)
	}
	info := j2.Info()
	if info.State != Done || !info.CacheHit {
		t.Errorf("cache-hit job = %+v, want Done with CacheHit", info)
	}
	if ran.Load() != 1 {
		t.Errorf("cache hit ran the runner: %d executions", ran.Load())
	}
	events := waitTerminal(t, j2)
	if events[len(events)-1].Result != h {
		t.Error("cache-hit terminal event must carry the result hash")
	}
	if got, _, ok := m.ResultTagged(h); !ok || string(got) != "result" {
		t.Errorf("Result(%s) = %q, %v", h, got, ok)
	}
}

func TestSubmitDedupesInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			once.Do(func() { close(started) })
			<-release
			return []byte("r"), nil
		},
	})
	free := sync.OnceFunc(func() { close(release) })
	defer m.Drain(context.Background()) // LIFO: free first, then drain
	defer free()

	h := hashOf("dup")
	j1, created1, err := m.Submit(h, []byte("{}"))
	if err != nil || !created1 {
		t.Fatal(err)
	}
	<-started
	j2, created2, err := m.Submit(h, []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if created2 || j2 != j1 {
		t.Errorf("in-flight submit created a second job (created=%v, same=%v)", created2, j2 == j1)
	}
	// A different hash is genuinely new work.
	j3, created3, err := m.Submit(hashOf("other"), []byte("{}"))
	if err != nil || !created3 || j3 == j1 {
		t.Errorf("distinct hash must create a distinct job")
	}
	free()
	waitTerminal(t, j1)
	waitTerminal(t, j3)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var startOnce, releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			startOnce.Do(func() { close(started) })
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("stopped: %w", ctx.Err())
			case <-release:
				return []byte("r"), nil
			}
		},
	})
	defer m.Drain(context.Background()) // LIFO: free first, then drain
	defer free()

	running, _, err := m.Submit(hashOf("running"), []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit(hashOf("queued"), []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}

	if !m.Cancel(queued.ID()) {
		t.Fatal("Cancel(queued) = false")
	}
	events := waitTerminal(t, queued)
	if s := events[len(events)-1].State; s != Canceled {
		t.Errorf("queued job ended %q, want canceled", s)
	}

	if !m.Cancel(running.ID()) {
		t.Fatal("Cancel(running) = false")
	}
	events = waitTerminal(t, running)
	last := events[len(events)-1]
	if last.State != Canceled || last.Error == "" {
		t.Errorf("running job ended %+v, want canceled with an error", last)
	}
	// A canceled hash is no longer in flight: resubmit creates a new job,
	// which (with the gate now open) runs to completion.
	free()
	j, created, err := m.Submit(hashOf("queued"), []byte("{}"))
	if err != nil || !created {
		t.Fatalf("resubmit after cancel: created=%v err=%v", created, err)
	}
	events = waitTerminal(t, j)
	if s := events[len(events)-1].State; s != Done {
		t.Errorf("resubmitted job ended %q, want done", s)
	}

	if m.Cancel("job-999") {
		t.Error("Cancel of unknown id = true")
	}
}

func TestFailedJobCarriesError(t *testing.T) {
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			return nil, errors.New("boom")
		},
	})
	defer m.Drain(context.Background())
	j, _, err := m.Submit(hashOf("fail"), []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	events := waitTerminal(t, j)
	last := events[len(events)-1]
	if last.State != Failed || last.Error != "boom" {
		t.Errorf("terminal event = %+v, want failed/boom", last)
	}
	if info := j.Info(); info.State != Failed || info.Error != "boom" {
		t.Errorf("Info = %+v", info)
	}
}

func TestQueueFullReturnsErrBusy(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	m := NewManager(Config{
		Workers:    1,
		QueueDepth: 1,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			once.Do(func() { close(started) })
			<-release
			return []byte("r"), nil
		},
	})
	defer m.Drain(context.Background()) // LIFO: release first, then drain
	defer close(release)

	if _, _, err := m.Submit(hashOf("s1"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; queue now empty
	if _, _, err := m.Submit(hashOf("s2"), []byte("{}")); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, _, err := m.Submit(hashOf("s3"), []byte("{}")); !errors.Is(err, ErrBusy) {
		t.Errorf("overflow Submit error = %v, want ErrBusy", err)
	}
}

func TestDrainFinishesQueuedJobsAndStopsIntake(t *testing.T) {
	var ran atomic.Int32
	m := NewManager(Config{
		Workers: 2,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			ran.Add(1)
			return []byte("r"), nil
		},
	})
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, _, err := m.Submit(hashOf(fmt.Sprint("drain-", i)), []byte("{}"))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	m.Drain(context.Background())
	for _, j := range jobs {
		if s := j.Info().State; s != Done {
			t.Errorf("job %s ended %q after graceful drain, want done", j.ID(), s)
		}
	}
	if ran.Load() != 5 {
		t.Errorf("drain ran %d jobs, want 5", ran.Load())
	}
	if _, _, err := m.Submit(hashOf("late"), []byte("{}")); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain Submit error = %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	m.Drain(context.Background())
}

func TestDrainDeadlineCancelsRunningJobs(t *testing.T) {
	started := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			close(started)
			<-ctx.Done() // honors cancellation, never finishes on its own
			return nil, ctx.Err()
		},
	})
	j, _, err := m.Submit(hashOf("stuck"), []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	m.Drain(ctx)
	if s := j.Info().State; s != Canceled {
		t.Errorf("stuck job ended %q after forced drain, want canceled", s)
	}
}

// TestRetainJobsBoundsMemory: terminal jobs are forgotten oldest-first
// past RetainJobs; live jobs and the newest survive, and evicted ids no
// longer resolve (results stay addressable via the cache).
func TestRetainJobsBoundsMemory(t *testing.T) {
	cache, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Workers:    1,
		RetainJobs: 2,
		Cache:      cache,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			return []byte("r"), nil
		},
	})
	defer m.Drain(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		j, _, err := m.Submit(hashOf(fmt.Sprint("retain-", i)), []byte("{}"))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID())
	}
	if n := len(m.Jobs()); n > 3 {
		t.Errorf("manager retains %d jobs, want <= RetainJobs+1 (3)", n)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest terminal job survived pruning")
	}
	if _, ok := m.Get(ids[4]); !ok {
		t.Error("newest job was pruned")
	}
	// Evicted jobs' results still serve by content hash.
	if _, _, ok := m.ResultTagged(hashOf("retain-0")); !ok {
		t.Error("evicted job's cached result lost")
	}
	// Cache-hit resubmissions (terminal at birth) are pruned too, so a
	// hot spec cannot grow the job table.
	for i := 0; i < 10; i++ {
		j, _, err := m.Submit(hashOf("retain-4"), []byte("{}"))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	if n := len(m.Jobs()); n > 3 {
		t.Errorf("cache-hit submissions grew the job table to %d", n)
	}
}

// TestEventReplayOutlivesJobEviction: a subscriber holding a *Job handle
// can replay the full event stream — from any offset, including past the
// end — even after RetainJobs pruned the job from the manager's table.
// Eviction forgets the ID, not the history a live handle points at; a
// consumer that only remembered the ID must re-fetch by content hash.
func TestEventReplayOutlivesJobEviction(t *testing.T) {
	cache, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Workers:    1,
		RetainJobs: 1,
		Cache:      cache,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			progress(1, 1)
			return []byte(`["evict-me"]`), nil
		},
	})
	defer m.Drain(context.Background())

	j, _, err := m.Submit(hashOf("evicted"), []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	history := waitTerminal(t, j)

	// Push enough newer jobs through that pruning must drop the first.
	for i := 0; i < 4; i++ {
		jn, _, err := m.Submit(hashOf(fmt.Sprint("filler-", i)), []byte("{}"))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, jn)
	}
	if _, ok := m.Get(j.ID()); ok {
		t.Fatal("precondition: the first job should have been pruned")
	}

	// Full replay from zero on the retained handle, identical to the live
	// stream, delivered terminal in one call.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	replay, _, terminal, err := j.NextRaw(ctx, 0)
	if err != nil || !terminal {
		t.Fatalf("replay after eviction: terminal=%v err=%v", terminal, err)
	}
	if fmt.Sprint(replay) != fmt.Sprint(history) {
		t.Errorf("replayed events differ from the live stream:\n got %v\nwant %v", replay, history)
	}
	// Resuming PAST the end of a terminal stream ends cleanly: no events,
	// terminal true, no error, no block.
	past, _, terminal, err := j.NextRaw(ctx, len(history)+50)
	if len(past) != 0 || !terminal || err != nil {
		t.Errorf("Next past the end = (%v, %v, %v), want (none, true, nil)", past, terminal, err)
	}
	// The evicted job's result is still addressable by content.
	if data, _, ok := m.ResultTagged(hashOf("evicted")); !ok || string(data) != `["evict-me"]` {
		t.Errorf("evicted job's result = %q, %v; want the cached bytes", data, ok)
	}
}

func TestNextHonorsContext(t *testing.T) {
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	j, _, err := m.Submit(hashOf("wait"), []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Skip far past the available events; the job never terminates on its
	// own, so only ctx can release us.
	if _, _, _, err := j.NextRaw(ctx, 100); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Next past the stream end = %v, want DeadlineExceeded", err)
	}
	m.Cancel(j.ID())
	m.Drain(context.Background())
}

// blockingFS parks every CreateTemp — the first step of a store write —
// until release closes, signalling entered as it does: a disk whose
// fsyncs take as long as the test wants.
type blockingFS struct {
	errfs.OS
	entered chan struct{}
	release chan struct{}
}

func (b blockingFS) CreateTemp(dir, pattern string) (errfs.File, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.OS.CreateTemp(dir, pattern)
}

// TestRunJobStoresResultOutsideJobLock: a finished run's durable Put
// happens before the job's lock is taken, so a reader of the job (GET
// /jobs/{id}, an event stream, Cancel) never waits behind its fsyncs, and
// before the Done event, so a job seen Done has its result on disk.
func TestRunJobStoresResultOutsideJobLock(t *testing.T) {
	dir := t.TempDir()
	fsys := blockingFS{entered: make(chan struct{}, 1), release: make(chan struct{})}
	cache, err := NewCacheFS(1<<20, dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Workers: 1, Cache: cache,
		Run: func(context.Context, []byte, func(int, int)) ([]byte, error) { return []byte(`[1]`), nil }})
	defer drainAll(t, m)
	release := sync.OnceFunc(func() { close(fsys.release) })
	defer release()

	spec := []byte(`{"workload":"zipf"}`)
	hash := errfs.SumHex(spec)
	j, _, err := m.Submit(hash, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-fsys.entered // the result's Put is parked in its disk write
	infos := make(chan Info, 1)
	go func() { infos <- j.Info() }()
	select {
	case info := <-infos:
		if info.State != Running {
			t.Errorf("job is %s while its result is being stored, want running", info.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Info blocked behind the result's disk write")
	}
	release()
	if events := waitTerminal(t, j); events[len(events)-1].State != Done {
		t.Fatalf("job ended %+v", events[len(events)-1])
	}
	if _, err := os.Stat(filepath.Join(dir, hash+".entry")); err != nil {
		t.Errorf("job is Done but its result is not on disk: %v", err)
	}
}
