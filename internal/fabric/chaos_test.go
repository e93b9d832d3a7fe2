package fabric

// The multi-daemon chaos harness: a coordinator and several workers run
// IN ONE PROCESS, wired through an in-memory transport mesh that can
// kill hosts mid-shard, while a seeded Chaos transport drops, delays,
// and duplicates the coordinator's messages. The acceptance criterion
// everything here serves: however the fleet is tortured, the merged
// sweep JSON is byte-identical to a single-process run, and a resubmit
// after recovery is a pure cache hit that runs zero cells.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/jobs"
)

// mesh routes fabric HTTP by host name to in-process handlers. Killing a
// host makes it unreachable; a request already executing when its host
// dies completes server-side but its RESPONSE is lost — exactly the
// worker-crashed-after-computing window at-most-once commit exists for.
type mesh struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
	dead  map[string]bool
}

func newMesh() *mesh {
	return &mesh{hosts: map[string]http.Handler{}, dead: map[string]bool{}}
}

func (m *mesh) add(host string, h http.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hosts[host] = h
}

func (m *mesh) kill(host string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead[host] = true
}

func (m *mesh) alive(host string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hosts[host] != nil && !m.dead[host]
}

func (m *mesh) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	m.mu.Lock()
	h := m.hosts[host]
	dead := m.dead[host]
	m.mu.Unlock()
	if h == nil || dead {
		return nil, fmt.Errorf("mesh: host %s unreachable", host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	m.mu.Lock()
	dead = m.dead[host]
	m.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("mesh: host %s died before replying", host)
	}
	return rec.Result(), nil
}

// countRunner counts what the coordinator's in-process executor is
// handed: runs is local cell groups (the queue drained locally, or one
// verified cell), cells the cells they completed. Workers count cells in
// testWorker.runner; a wrapped jobs.Runner counts whole sweeps.
type countRunner struct {
	runs, cells atomic.Int32
}

func (c *countRunner) wrapCells(inner GroupRunner) GroupRunner {
	return func(ctx context.Context, spec []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		c.runs.Add(1)
		return inner(ctx, spec, cells, func(cr hybridtier.CellResult, single []byte) {
			c.cells.Add(1)
			onCell(cr, single)
		})
	}
}

func (c *countRunner) wrap(inner jobs.Runner) jobs.Runner {
	return func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
		c.runs.Add(1)
		return inner(ctx, spec, progress)
	}
}

// testWorker is one fleet member under test.
type testWorker struct {
	host    string
	mesh    *mesh
	cells   atomic.Int32 // cells fully executed
	started atomic.Int32 // cell executions begun
	// killAfter, when positive, kills this worker's host right after it
	// finishes executing that many cells — its in-flight shard's response
	// is then lost in the mesh.
	killAfter int32
	// slowFirst, when set, makes this worker's FIRST cell hang that long
	// before executing — the straggler the steal path exists for.
	slowFirst time.Duration
	// gate, when set, blocks each worker's first cell until every gated
	// worker has been dispatched one — pinning work distribution that
	// scheduling races would otherwise leave to chance.
	gate *startGate
	// groupErr, when set, fails every shard's cell group without running
	// it: the worker answers each cell with this error.
	groupErr error
}

// startGate holds early arrivals until `need` workers have shown up.
type startGate struct {
	need    int32
	arrived atomic.Int32
	ch      chan struct{}
}

func newStartGate(need int) *startGate {
	return &startGate{need: int32(need), ch: make(chan struct{})}
}

// arrive gives up with ctx: an executor whose sweep or shard RPC ended must
// not sit here waiting for an arrival that may never come.
func (g *startGate) arrive(ctx context.Context) {
	if g.arrived.Add(1) == g.need {
		close(g.ch)
	}
	select {
	case <-g.ch:
	case <-ctx.Done():
	}
}

func (tw *testWorker) runner() GroupRunner {
	inner := LocalCells(1)
	return func(ctx context.Context, spec []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		if tw.groupErr != nil {
			return tw.groupErr
		}
		if tw.started.Add(int32(len(cells))) == int32(len(cells)) {
			if tw.gate != nil {
				tw.gate.arrive(ctx)
			}
			if tw.slowFirst > 0 {
				// Give up with the shard RPC: a straggler that outlived its
				// test would run cells under whatever test came next.
				select {
				case <-time.After(tw.slowFirst):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		return inner(ctx, spec, cells, func(cr hybridtier.CellResult, single []byte) {
			if cr.Err == "" {
				n := tw.cells.Add(1)
				if k := atomic.LoadInt32(&tw.killAfter); k > 0 && n >= k {
					tw.mesh.kill(tw.host)
				}
			}
			onCell(cr, single)
		})
	}
}

// testFleet is a coordinator plus n workers on a shared mesh.
type testFleet struct {
	mesh  *mesh
	coord *Coordinator
	cache *jobs.Cache
	local *countRunner
	chaos *Chaos
	wks   []*testWorker
}

func (f *testFleet) workerCells() int32 {
	var n int32
	for _, tw := range f.wks {
		n += tw.cells.Load()
	}
	return n
}

// newFleet assembles the in-process fleet. plan non-nil interposes Chaos
// on the coordinator's transport. heartbeat runs each worker's real Join
// loop (fast interval) so chaos-presumed-dead workers resurrect; without
// it workers register once and a markDead is forever.
func newFleet(t *testing.T, nWorkers int, plan *ChaosPlan, heartbeat bool, tweaks ...func(*Config)) *testFleet {
	t.Helper()
	ms := newMesh()
	cache, err := jobs.NewCache(64<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{mesh: ms, cache: cache, local: &countRunner{}}
	var tr http.RoundTripper = ms
	if plan != nil {
		f.chaos = NewChaos(ms, *plan)
		tr = f.chaos
	}
	cfg := Config{
		Transport:     tr,
		Cache:         cache,
		Cells:         f.local.wrapCells(LocalCells(2)),
		HeartbeatTTL:  time.Hour, // liveness is driven by the test, not the clock
		ShardTimeout:  time.Minute,
		MaxShardCells: 2, // small shards: more scheduling, more failure windows
	}
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	f.coord = NewCoordinator(cfg)
	f.cache = cfg.Cache // a tweak may have swapped in an instrumented one
	f.cache.SetRemote(f.coord.ProbeWorkers)
	ms.add("coord", f.coord.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := range nWorkers {
		tw := &testWorker{host: fmt.Sprintf("w%d", i), mesh: ms}
		wcache, err := jobs.NewCache(64<<20, "")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(WorkerConfig{
			Self:        "http://" + tw.host,
			Coordinator: "http://coord",
			Transport:   ms, // heartbeats ride the raw mesh; chaos torments the coordinator's side
			Cells:       tw.runner(),
			Cache:       wcache,
			Interval:    2 * time.Millisecond,
		})
		wcache.SetRemote(w.ProbeCoordinator)
		ms.add(tw.host, w.Handler())
		f.wks = append(f.wks, tw)
		if heartbeat {
			go w.Join(ctx)
		} else {
			f.register(t, tw.host)
		}
	}
	if heartbeat {
		deadline := time.Now().Add(10 * time.Second)
		for f.coord.Status().Live < nWorkers {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d workers joined", f.coord.Status().Live, nWorkers)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return f
}

// register posts one registration straight through the raw mesh.
func (f *testFleet) register(t *testing.T, host string) {
	t.Helper()
	body, _ := json.Marshal(registerRequest{URL: "http://" + host})
	req, err := http.NewRequest(http.MethodPost, "http://coord/fabric/register", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.mesh.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", host, resp.StatusCode)
	}
}

// runFleet executes a canonical spec through the coordinator's Runner and
// returns the merged bytes.
func (f *testFleet) runFleet(t *testing.T, spec []byte) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var lastDone, lastTotal int
	var mu sync.Mutex
	out, err := f.coord.Runner()(ctx, spec, func(done, total int) {
		mu.Lock()
		lastDone, lastTotal = done, total
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if lastDone != lastTotal {
		t.Errorf("final progress %d/%d, want complete", lastDone, lastTotal)
	}
	return out
}

func TestFleetSweepIsByteIdenticalToLocal(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)
	f := newFleet(t, 3, nil, false)

	got := f.runFleet(t, spec)
	if !bytes.Equal(got, expected) {
		t.Errorf("fleet sweep differs from local run:\n got %s\nwant %s", got, expected)
	}
	if runs := f.local.runs.Load(); runs != 0 {
		t.Errorf("coordinator ran %d specs locally; the fleet should have taken everything", runs)
	}
	if n := f.workerCells(); n != 8 {
		t.Errorf("workers executed %d cells, want exactly 8 (one per cell, no waste on a healthy fleet)", n)
	}
}

func TestNoLiveWorkersDelegatesWholeSweepLocally(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)
	f := newFleet(t, 0, nil, false)

	got := f.runFleet(t, spec)
	if !bytes.Equal(got, expected) {
		t.Errorf("workerless sweep differs from local run")
	}
	if runs := f.local.runs.Load(); runs != 1 {
		t.Errorf("local runs = %d, want exactly 1 cell group holding the whole sweep", runs)
	}
}

func TestWorkerKilledMidShardRecoversByteIdentically(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)
	f := newFleet(t, 2, nil, false)
	// w0 dies the moment it has computed its first cell: the shard's
	// response is lost, so the coordinator saw NOTHING from it. The gate
	// guarantees w0 is actually dispatched a cell before w1 can drain the
	// queue — without it a fast w1 could finish the sweep alone and the
	// test would prove nothing.
	gate := newStartGate(2)
	f.wks[0].gate = gate
	f.wks[1].gate = gate
	f.wks[0].killAfter = 1

	got := f.runFleet(t, spec)
	if !bytes.Equal(got, expected) {
		t.Errorf("sweep after worker loss differs from local run:\n got %s\nwant %s", got, expected)
	}
	if f.mesh.alive("w0") {
		t.Fatal("test wiring: w0 was never killed")
	}
	if n := f.wks[1].cells.Load(); n != 8 {
		t.Errorf("surviving worker executed %d cells, want all 8 (w0's commits were all lost in flight)", n)
	}
	if runs := f.local.runs.Load(); runs != 0 {
		t.Errorf("coordinator fell back to %d local runs with a worker still live", runs)
	}
	st := f.coord.Status()
	for _, ws := range st.Workers {
		if ws.URL == "http://w0" && ws.Live {
			t.Error("lost worker still reported live after its shard RPC failed")
		}
	}
}

func TestWholeFleetDyingMidSweepFallsBackLocally(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)
	f := newFleet(t, 2, nil, false)
	f.wks[0].killAfter = 1
	f.wks[1].killAfter = 1

	got := f.runFleet(t, spec)
	if !bytes.Equal(got, expected) {
		t.Errorf("sweep after total fleet loss differs from local run")
	}
	if runs := f.local.runs.Load(); runs == 0 {
		t.Error("both workers died yet nothing ran locally — who finished the sweep?")
	}
}

func TestChaosStormStaysByteIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := canonical(t, testSpec())
			expected := localRun(t, spec)
			f := newFleet(t, 3, &ChaosPlan{
				Seed:      seed,
				Drop:      0.15,
				DropReply: 0.15,
				Dup:       0.2,
				DelayProb: 0.25,
				DelayMax:  2 * time.Millisecond,
			}, true) // heartbeats resurrect chaos-presumed-dead workers

			got := f.runFleet(t, spec)
			if !bytes.Equal(got, expected) {
				t.Errorf("chaos sweep differs from local run:\n got %s\nwant %s", got, expected)
			}
			if f.chaos.Faults() == 0 {
				t.Error("chaos injected no faults — the storm tested nothing")
			}
		})
	}
}

// TestChaosTrackerSpecStaysByteIdentical extends the storm pin to a
// tracker-bearing spec: a spec-level forced tracker canonicalizes into
// per-policy "Name@tracker" qualifiers, and those qualified cells must
// shard, dedupe, and merge to the local run's exact bytes under the same
// fault storm as the PEBS-only grid — the cell content addresses cover
// the canonical qualifiers, so nothing downstream may treat them
// specially.
func TestChaosTrackerSpecStaysByteIdentical(t *testing.T) {
	s := testSpec()
	s.Policies = []hybridtier.PolicyName{"Heat-Idle", "LRU", "Memtis"}
	s.Tracker = "idlepage" // folds: Heat-Idle stays bare, LRU and Memtis gain @idlepage
	s.Seeds = []uint64{1}
	spec := canonical(t, s)
	expected := localRun(t, spec)
	f := newFleet(t, 3, &ChaosPlan{
		Seed:      5,
		Drop:      0.15,
		DropReply: 0.15,
		Dup:       0.2,
		DelayProb: 0.25,
		DelayMax:  2 * time.Millisecond,
	}, true)

	got := f.runFleet(t, spec)
	if !bytes.Equal(got, expected) {
		t.Errorf("tracker-bearing chaos sweep differs from local run:\n got %s\nwant %s", got, expected)
	}
	if f.chaos.Faults() == 0 {
		t.Error("chaos injected no faults — the storm tested nothing")
	}
}

func TestResubmitAfterFleetLossIsFullCacheHit(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)
	f := newFleet(t, 2, nil, false)

	// Jobs flow through a real manager so the sweep-level cache and the
	// zero-cells contract are the production ones.
	sweeps := &countRunner{}
	m := jobs.NewManager(jobs.Config{
		Workers: 1,
		Run:     sweeps.wrap(f.coord.Runner()),
		Cache:   f.cache,
	})
	t.Cleanup(func() { drain(m) })

	hash := hybridtier.HashCanonicalJSON(spec)
	job, created, err := m.Submit(hash, spec)
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if got := waitTerminal(t, job); got != jobs.Done {
		t.Fatalf("first job ended %s: %s", got, job.Info().Error)
	}
	if ran := f.workerCells(); ran != 8 {
		t.Fatalf("first run executed %d worker cells, want 8", ran)
	}

	// The fleet burns down...
	f.mesh.kill("w0")
	f.mesh.kill("w1")

	// ...and the resubmitted spec never notices: served from the cache,
	// zero sweeps started, zero cells executed anywhere. (Submit still
	// reports created=true — a cache hit mints a fresh job born Done.)
	job2, _, err := m.Submit(hash, spec)
	if err != nil {
		t.Fatal(err)
	}
	info := job2.Info()
	if info.State != jobs.Done || !info.CacheHit {
		t.Errorf("resubmit state=%s cacheHit=%v, want done cache hit", info.State, info.CacheHit)
	}
	if got := sweeps.runs.Load(); got != 1 {
		t.Errorf("sweep runner ran %d times, want 1 (resubmit must not re-run)", got)
	}
	if got := f.workerCells(); got != 8 {
		t.Errorf("worker cells after resubmit = %d, want still 8 — zero cells re-run", got)
	}
	if data, ok := f.cache.Get(hash); !ok || !bytes.Equal(data, expected) {
		t.Error("cached sweep result missing or differs from the local run")
	}
}

func TestConcurrentIdenticalSweepsShareCellExecutions(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)
	f := newFleet(t, 1, nil, false)

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			out, err := f.coord.Runner()(ctx, spec, nil)
			if err != nil {
				t.Errorf("sweep %d: %v", i, err)
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	for i, out := range results {
		if !bytes.Equal(out, expected) {
			t.Errorf("concurrent sweep %d differs from local run", i)
		}
	}
	// The claim table means the two sweeps shared one execution per cell.
	if n := f.workerCells(); n != 8 {
		t.Errorf("worker executed %d cells for two identical concurrent sweeps, want 8", n)
	}
}

func TestOverlappingSweepReusesCommittedCells(t *testing.T) {
	f := newFleet(t, 2, nil, false)
	first := canonical(t, testSpec())
	f.runFleet(t, first)
	if n := f.workerCells(); n != 8 {
		t.Fatalf("first sweep executed %d cells, want 8", n)
	}

	// A wider sweep sharing 8 of its 12 cells: only the 4 new cells run.
	wider := testSpec()
	wider.Seeds = append(wider.Seeds, 3)
	spec := canonical(t, wider)
	expected := localRun(t, spec)
	got := f.runFleet(t, spec)
	if !bytes.Equal(got, expected) {
		t.Errorf("overlapping sweep differs from local run")
	}
	if n := f.workerCells(); n != 12 {
		t.Errorf("total worker cells = %d, want 12 — the 8 shared cells must come from the cell cache", n)
	}
}

func TestStragglerCellIsStolenAndLateCommitDropped(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)
	f := newFleet(t, 2, nil, false, func(c *Config) {
		c.StealAfter = 15 * time.Millisecond
		c.ShardTimeout = 250 * time.Millisecond
	})
	// w0 hangs on its first cell for far longer than the whole sweep; the
	// steal threshold passes, w1 re-runs the cell, and the sweep finishes
	// without w0 contributing anything. The gate pins the distribution:
	// both workers are dispatched a first cell before either proceeds.
	gate := newStartGate(2)
	f.wks[0].gate = gate
	f.wks[1].gate = gate
	f.wks[0].slowFirst = 5 * time.Second

	start := time.Now()
	got := f.runFleet(t, spec)
	if !bytes.Equal(got, expected) {
		t.Errorf("sweep with a straggler differs from local run:\n got %s\nwant %s", got, expected)
	}
	if d := time.Since(start); d >= f.wks[0].slowFirst {
		t.Errorf("sweep took %s — it waited for the straggler instead of stealing around it", d)
	}
	if n := f.wks[1].cells.Load(); n != 8 {
		t.Errorf("healthy worker executed %d cells, want 8 (7 of its own + the stolen one)", n)
	}
	if n := f.wks[0].started.Load(); n != 1 {
		t.Errorf("straggler started %d cells, want 1", n)
	}
	var credited int64
	for _, ws := range f.coord.Status().Workers {
		credited += ws.CommittedCells
	}
	if credited != 8 {
		t.Errorf("workers credited with %d commits, want exactly 8 — duplicates must not double-commit", credited)
	}
}

func TestHeartbeatTTLExpiresAndRejoinRevives(t *testing.T) {
	ms := newMesh()
	cache, err := jobs.NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Config{
		Cache:        cache,
		Cells:        LocalCells(1),
		HeartbeatTTL: 30 * time.Millisecond,
	})
	ms.add("coord", coord.Handler())
	f := &testFleet{mesh: ms, coord: coord}

	f.register(t, "w0")
	if live := coord.Status().Live; live != 1 {
		t.Fatalf("after register: live = %d, want 1", live)
	}
	time.Sleep(90 * time.Millisecond)
	if live := coord.Status().Live; live != 0 {
		t.Errorf("after 3×TTL of silence: live = %d, want 0", live)
	}
	f.register(t, "w0")
	if live := coord.Status().Live; live != 1 {
		t.Errorf("after re-register: live = %d, want 1 — rejoin must revive", live)
	}
}

// waitTerminal consumes a job's event stream to its terminal state.
func waitTerminal(t *testing.T, j *jobs.Job) jobs.State {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	from := 0
	for {
		events, _, terminal, err := j.NextRaw(ctx, from)
		if err != nil {
			t.Fatalf("event stream: %v", err)
		}
		from += len(events)
		if terminal {
			return j.Info().State
		}
	}
}
