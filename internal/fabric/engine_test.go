package fabric

// The engine's commit rules and its in-process executor, pinned where the
// chaos suite only implies them: what is written through and what never
// is, what the local executor runs when it takes over from a fleet, and
// what a failed cell — reported by a worker or produced in process —
// does to the sweep and to the cache.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/errfs"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/registry/registrytest"
	"repro/internal/trace"
)

// widerSpec is testSpec plus one seed: 12 cells, 8 of them testSpec's.
func widerSpec(t *testing.T) []byte {
	t.Helper()
	wider := testSpec()
	wider.Seeds = append(wider.Seeds, 3)
	return canonical(t, wider)
}

// TestFleetCommitNeverWritesCacheHitsBack counts the renames (one per
// Cache.Put) on a coordinator's store while live workers run its sweeps:
// a cell is written through when it is computed, and a cell read out of
// the cache is not written again — which a coordinator with workers used
// to do for every hit, 12 extra Puts for the second sweep here.
func TestFleetCommitNeverWritesCacheHitsBack(t *testing.T) {
	fsys := errfs.Inject(errfs.OS{})
	cache, err := jobs.NewCacheFS(64<<20, t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, 2, nil, false, func(c *Config) { c.Cache = cache })
	const perPut = 1 // one entry file, one atomic rename

	f.runFleet(t, canonical(t, testSpec()))
	if got := fsys.Count(errfs.OpRename); got != 8*perPut {
		t.Errorf("an 8-cell fleet sweep cost %d renames, want %d (one Put per cell)", got, 8*perPut)
	}
	before := fsys.Count(errfs.OpRename)
	spec := widerSpec(t)
	if got := f.runFleet(t, spec); !bytes.Equal(got, localRun(t, spec)) {
		t.Error("widened sweep differs from local run")
	}
	if got := fsys.Count(errfs.OpRename) - before; got != 4*perPut {
		t.Errorf("the widened sweep cost %d renames, want %d: 4 new cells stored, 8 cached cells left alone",
			got, 4*perPut)
	}
	if runs := f.local.runs.Load(); runs != 0 {
		t.Errorf("coordinator ran %d local cell groups under a healthy fleet", runs)
	}
}

// TestOverlappingSweepsOnLoneDaemonShareCellExecutions: the claim table
// is the engine's, not the fleet's — two concurrent sweeps on a daemon
// with no workers run each shared cell once. The gate holds the first
// sweep's cell group until the second sweep has claimed what is left and
// brought a group of its own, so the overlap is certain.
func TestOverlappingSweepsOnLoneDaemonShareCellExecutions(t *testing.T) {
	narrow, wide := canonical(t, testSpec()), widerSpec(t)
	local := &countRunner{}
	gate := newStartGate(2)
	inner := local.wrapCells(LocalCells(2))
	cache, err := jobs.NewCache(64<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	engine := NewCoordinator(Config{Cache: cache, Cells: func(ctx context.Context, spec []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		gate.arrive(ctx)
		return inner(ctx, spec, cells, onCell)
	}})

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	sweep := func(k int, spec []byte) {
		defer wg.Done()
		out, err := engine.RunSweep(context.Background(), spec, nil)
		if err != nil {
			t.Errorf("sweep %d: %v", k, err)
		}
		results[k] = out
	}
	wg.Add(2)
	go sweep(0, narrow)
	for deadline := time.Now().Add(10 * time.Second); gate.arrived.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first sweep never reached the executor")
		}
		time.Sleep(time.Millisecond)
	}
	go sweep(1, wide)
	wg.Wait()

	if !bytes.Equal(results[0], localRun(t, narrow)) || !bytes.Equal(results[1], localRun(t, wide)) {
		t.Error("overlapping sweeps differ from their local runs")
	}
	if groups, cells := local.runs.Load(), local.cells.Load(); groups != 2 || cells != 12 {
		t.Errorf("two overlapping sweeps ran %d cells in %d groups, want 12 cells (8 shared, run once) in 2 groups",
			cells, groups)
	}
}

// TestFleetDyingMidSweepDrainsTheRestLocally: when the last worker is
// lost the run carries on — the cells the fleet committed stay committed,
// the in-process executor takes only what is left, as one group, and the
// progress stream neither drops nor starts over.
func TestFleetDyingMidSweepDrainsTheRestLocally(t *testing.T) {
	spec := canonical(t, testSpec())
	f := newFleet(t, 2, nil, false)
	// One-cell shards (8 cells over 2 workers): each worker delivers two
	// cells, then dies having computed a third whose answer is lost.
	f.wks[0].killAfter = 3
	f.wks[1].killAfter = 3

	var mu sync.Mutex
	var reports []int
	out, err := f.coord.RunSweep(context.Background(), spec, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != 8 {
			t.Errorf("progress total = %d, want 8", total)
		}
		reports = append(reports, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, localRun(t, spec)) {
		t.Error("sweep finished locally differs from local run")
	}
	var credited int64
	for _, ws := range f.coord.Status().Workers {
		credited += ws.CommittedCells
	}
	if credited == 0 {
		t.Fatal("test wiring: the fleet committed nothing before it died")
	}
	if groups, cells := f.local.runs.Load(), int64(f.local.cells.Load()); groups != 1 || cells != 8-credited {
		t.Errorf("local executor ran %d cells in %d groups, want the %d the fleet never committed, in 1 group",
			cells, groups, 8-credited)
	}
	mu.Lock()
	defer mu.Unlock()
	for k := 1; k < len(reports); k++ {
		if reports[k] < reports[k-1] {
			t.Fatalf("progress went backwards: %v", reports)
		}
	}
	if len(reports) == 0 || reports[len(reports)-1] != 8 {
		t.Errorf("progress %v does not end at 8", reports)
	}
}

// TestWorkerReportedFailureIsVerifiedLocally: a worker that answers a
// cell with an error is not believed — the cell runs again on the
// in-process executor, one cell per group. If the failure reproduces the
// sweep fails with the local error; if it does not, it was the worker's
// problem and the local result commits.
func TestWorkerReportedFailureIsVerifiedLocally(t *testing.T) {
	spec := canonical(t, testSpec())

	t.Run("does not reproduce", func(t *testing.T) {
		f := newFleet(t, 1, nil, false)
		f.wks[0].groupErr = errors.New("worker disk on fire")
		if got := f.runFleet(t, spec); !bytes.Equal(got, localRun(t, spec)) {
			t.Error("sweep verified locally differs from local run")
		}
		if groups, cells := f.local.runs.Load(), f.local.cells.Load(); groups != 8 || cells != 8 {
			t.Errorf("local executor verified %d cells in %d groups, want 8 one-cell groups", cells, groups)
		}
		if n := f.workerCells(); n != 0 {
			t.Errorf("the failing worker executed %d cells", n)
		}
	})

	t.Run("reproduces", func(t *testing.T) {
		f := newFleet(t, 1, nil, false, func(c *Config) {
			c.Cells = func(context.Context, []byte, []int, func(hybridtier.CellResult, []byte)) error {
				return errors.New("local: spec cannot run here either")
			}
		})
		f.wks[0].groupErr = errors.New("worker: spec cannot run")
		_, err := f.coord.RunSweep(context.Background(), spec, nil)
		if err == nil || err.Error() != "local: spec cannot run here either" {
			t.Errorf("sweep error = %v, want the local executor's", err)
		}
	})
}

// TestFailedCellIsMergedButNeverStored: a cell that ends in an error is
// data — it sits in the merged bytes exactly as a plain Sweep.Run renders
// it — but the cache never holds it, so a later sweep runs it again.
func TestFailedCellIsMergedButNeverStored(t *testing.T) {
	registrytest.WithWorkloads(t, registry.WorkloadEntry{
		Name: "odd-seeds-only", Doc: "test: Zipf that fails to build for even seeds",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			if p.Seed%2 == 0 {
				return nil, errors.New("odd-seeds-only: even seed")
			}
			return trace.NewZipfSource("odd-seeds-only", 1024, 1.0, 0, p.Seed), nil
		},
	})
	spec := canonical(t, hybridtier.SweepSpec{
		Workload: "odd-seeds-only",
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, "LRU"},
		Seeds:    []uint64{1, 2},
		Ops:      4_000,
	})
	want := localRun(t, spec)
	if !bytes.Contains(want, []byte("odd-seeds-only: even seed")) {
		t.Fatalf("test wiring: the reference run has no failed cell: %s", want)
	}
	cache, err := jobs.NewCache(64<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	engine := NewCoordinator(Config{Cache: cache, Cells: LocalCells(2)})
	got, err := engine.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep with failed cells differs from local run:\n got %s\nwant %s", got, want)
	}
	_, plans, err := hybridtier.CellPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		_, stored := cache.GetLocal(p.Hash)
		if failed := p.Cell.Seed%2 == 0; stored == failed {
			t.Errorf("cell %d (seed %d): stored = %v, want %v", p.Cell.Index, p.Cell.Seed, stored, !failed)
		}
	}
}

// TestCanceledOwnerHandsItsClaimsToTheWaitingSweep: a sweep riding on
// another sweep's claims does not die with it — when the owner is
// canceled its claims are abandoned, the waiter takes them over and runs
// the cells itself.
func TestCanceledOwnerHandsItsClaimsToTheWaitingSweep(t *testing.T) {
	spec := canonical(t, testSpec())
	local := &countRunner{}
	inner := local.wrapCells(LocalCells(2))
	entered := make(chan struct{}, 2)
	hold := make(chan struct{})
	engine := NewCoordinator(Config{Cells: func(ctx context.Context, spec []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		// Non-blocking: the waiter may take the abandoned claims over in
		// more Cells calls than the test receives from entered.
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-hold:
		case <-ctx.Done():
			return ctx.Err()
		}
		return inner(ctx, spec, cells, onCell)
	}})

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := engine.RunSweep(ownerCtx, spec, nil)
		ownerErr <- err
	}()
	<-entered // the owner holds all 8 claims and sits in the executor

	var waiterOut []byte
	waiterErr := make(chan error, 1)
	go func() {
		var err error
		waiterOut, err = engine.RunSweep(context.Background(), spec, nil)
		waiterErr <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		engine.mu.Lock()
		waiting := 0
		for _, cl := range engine.claims {
			waiting += len(cl.waiters)
		}
		engine.mu.Unlock()
		if waiting == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the second sweep is waiting on %d claims, want 8", waiting)
		}
	}

	cancelOwner()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled owner returned %v, want context.Canceled", err)
	}
	<-entered // the waiter took the claims over and reached the executor
	close(hold)
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiting sweep: %v", err)
	}
	if !bytes.Equal(waiterOut, localRun(t, spec)) {
		t.Error("the sweep that took the claims over differs from local run")
	}
	if cells := local.cells.Load(); cells != 8 {
		t.Errorf("%d cells ran, want 8: none under the canceled owner, each once under the waiter", cells)
	}
	engine.mu.Lock()
	defer engine.mu.Unlock()
	if n := len(engine.claims); n != 0 {
		t.Errorf("%d claims outlived both sweeps", n)
	}
}

// TestClaimTakenAfterTheRunEndedIsGivenBack: an await that wins an
// abandoned claim just as its own run returns must not keep it — nothing
// would ever release it, and every later sweep of that cell would wait
// forever.
func TestClaimTakenAfterTheRunEndedIsGivenBack(t *testing.T) {
	engine := NewCoordinator(Config{Cells: LocalCells(1)})
	r, err := engine.newRun(context.Background(), canonical(t, testSpec()))
	if err != nil {
		t.Fatal(err)
	}
	hash := r.plans[0].Hash
	if _, owned := engine.claimCell(hash); !owned {
		t.Fatal("test wiring: the cell was already claimed")
	}
	ch, owned := engine.claimCell(hash)
	if owned {
		t.Fatal("test wiring: a second claim was granted")
	}
	r.closed = true // resolve has returned
	done := make(chan struct{})
	go func() { r.await(0, ch); close(done) }()
	engine.releaseCell(hash, nil) // the other owner abandons
	<-done
	if _, owned := engine.claimCell(hash); !owned {
		t.Error("the ended run kept the claim it took over")
	}
}
