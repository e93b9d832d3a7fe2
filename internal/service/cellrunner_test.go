package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/errfs"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/registry/registrytest"
	"repro/internal/trace"
)

// cellTestSpec is a 4-cell grid (2 policies × 2 seeds), canonicalized.
func cellTestSpec(t *testing.T) []byte {
	t.Helper()
	canonical, err := testSpec().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return canonical
}

func newCellCache(t *testing.T) *jobs.Cache {
	t.Helper()
	c, err := jobs.NewCache(64<<20, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCellRunnerMatchesRunnerAndPopulatesCache: a cold cache produces
// bytes identical to the plain whole-sweep Runner while writing every
// cell through to the cache under its content address.
func TestCellRunnerMatchesRunnerAndPopulatesCache(t *testing.T) {
	canonical := cellTestSpec(t)
	want, err := Runner(2)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}

	cache := newCellCache(t)
	got, err := CellRunner(2, cache)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CellRunner bytes diverge from Runner:\n got %s\nwant %s", got, want)
	}

	_, plans, err := hybridtier.CellPlans(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("test spec plans %d cells, want 4", len(plans))
	}
	for i, p := range plans {
		single, ok := cache.GetLocal(p.Hash)
		if !ok {
			t.Fatalf("cell %d not written through to the cache", i)
		}
		element, err := hybridtier.ReindexCellJSON(single, p.Cell.Index)
		if err != nil {
			t.Fatalf("cell %d cached bytes malformed: %v", i, err)
		}
		if !bytes.Contains(want, element) {
			t.Errorf("cell %d cached bytes not a slice of the whole-sweep result", i)
		}
	}
}

// TestCellRunnerResumesFromPartialCache: with some cells already cached
// (the state a SIGKILLed daemon leaves behind), only the missing cells
// execute — proven by mtimes on the cached entries staying untouched —
// and the merged output is byte-identical to an uninterrupted run.
func TestCellRunnerResumesFromPartialCache(t *testing.T) {
	canonical := cellTestSpec(t)
	want, err := Runner(2)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, plans, err := hybridtier.CellPlans(canonical)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-seed cells 0 and 2 the way a crashed run's write-through would
	// have: as canonical singleton bytes under the cell address. Poison the
	// seeded Result so a re-run (which would compute honest bytes) is
	// detectable in the merged output.
	dir := t.TempDir()
	cache, err := jobs.NewCache(64<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := map[int][]byte{}
	for _, i := range []int{0, 2} {
		single, err := CellRunner(1, nil)(context.Background(), plans[i].Spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(plans[i].Hash, single, plans[i].Spec); err != nil {
			t.Fatal(err)
		}
		seeded[i] = single
	}
	var ran []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		ran = append(ran, e.Name())
	}
	preSeedFiles := len(ran)

	var progMu sync.Mutex
	var lastDone, firstDone, total int
	first := true
	progress := func(d, tot int) {
		progMu.Lock()
		if first {
			firstDone, first = d, false
		}
		lastDone, total = d, tot
		progMu.Unlock()
	}
	got, err := CellRunner(2, cache)(context.Background(), canonical, progress)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed bytes diverge from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if firstDone != 2 || lastDone != 4 || total != 4 {
		t.Errorf("progress first=%d last=%d/%d, want the cached head start 2 then 4/4",
			firstDone, lastDone, total)
	}
	// The seeded cells were served, not re-run: their cached bytes are
	// unchanged and the merged result embeds their reindexed forms.
	for i, single := range seeded {
		now, ok := cache.GetLocal(plans[i].Hash)
		if !ok || !bytes.Equal(now, single) {
			t.Errorf("seeded cell %d rewritten during resume", i)
		}
	}
	// The two missing cells were written through.
	for _, i := range []int{1, 3} {
		if _, ok := cache.GetLocal(plans[i].Hash); !ok {
			t.Errorf("missing cell %d not written through during resume", i)
		}
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	grew := 0
	for _, e := range entries {
		if !e.IsDir() {
			grew++
		}
	}
	if grew != preSeedFiles+2 { // 2 new entry files
		t.Errorf("resume left %d files, want %d (the 2 missing cells' entries)", grew, preSeedFiles+2)
	}
}

// TestCellRunnerAllCached: every cell cached → no execution at all, just
// merge. Proven by handing the runner a spec whose workload would fail to
// build: serving it anyway means nothing ran.
func TestCellRunnerAllCached(t *testing.T) {
	canonical := cellTestSpec(t)
	want, err := Runner(2)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, plans, err := hybridtier.CellPlans(canonical)
	if err != nil {
		t.Fatal(err)
	}
	cache := newCellCache(t)
	for _, p := range plans {
		single, err := CellRunner(1, nil)(context.Background(), p.Spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(p.Hash, single, p.Spec); err != nil {
			t.Fatal(err)
		}
	}
	// Canceled context: any attempt to actually run a cell would fail.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := CellRunner(2, cache)(ctx, canonical, nil)
	if err != nil {
		t.Fatalf("fully-cached sweep should serve without running: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fully-cached merge diverges:\n got %s\nwant %s", got, want)
	}
}

// TestCellRunnerFailedSweepCachesNothing: a sweep that fails before its
// cells run (here: a corpus hash this process does not hold) must not
// leave partial entries in the cache.
func TestCellRunnerFailedSweepCachesNothing(t *testing.T) {
	spec := testSpec()
	spec.Workload = "corpus:" + strings.Repeat("ab", 32)
	spec.Params = nil
	spec.Seeds = []uint64{1}
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := jobs.NewCache(64<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CellRunner(2, cache)(context.Background(), canonical, nil); err == nil {
		t.Fatal("sweep over an absent corpus trace reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed sweep left %d cache files", len(entries))
	}
}

// TestCellRunnerNilCacheDegradesToRunner: the nil-cache escape hatch is
// exactly Runner.
func TestCellRunnerNilCacheDegradesToRunner(t *testing.T) {
	canonical := cellTestSpec(t)
	want, err := Runner(2)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CellRunner(2, nil)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("nil-cache CellRunner diverges from Runner")
	}
}

// inflight is the "inflight-zipf" workload: a Zipf source that counts how
// many instances are open at once. A sweep builds one per running cell and
// closes it when the cell ends, so the high-water mark is the number of
// cells the runner had in flight.
var inflight struct{ open, max atomic.Int32 }

type inflightZipf struct{ *trace.ZipfSource }

func (inflightZipf) Close() error { inflight.open.Add(-1); return nil }

// ClockFree withdraws the embedded Zipf's promise, so no sweep shares a
// stream of it: every cell builds — and is counted holding — its own.
func (inflightZipf) ClockFree() bool { return false }

func registerInflight(t *testing.T) {
	registrytest.WithWorkloads(t, registry.WorkloadEntry{
		Name: "inflight-zipf", Doc: "test: Zipf that counts concurrently open instances",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			n := inflight.open.Add(1)
			for {
				m := inflight.max.Load()
				if n <= m || inflight.max.CompareAndSwap(m, n) {
					break
				}
			}
			// Hold the slot long enough that an unbounded pool would
			// have every cell open before the first one closes.
			time.Sleep(2 * time.Millisecond)
			return inflightZipf{trace.NewZipfSource("inflight-zipf", 1024, 1.0, 0, p.Seed)}, nil
		},
	})
	inflight.open.Store(0)
	inflight.max.Store(0)
}

// TestCellRunnerResumeBoundsCellsInFlight: with the default
// -sweep-workers 0, a resume runs its missing cells across GOMAXPROCS
// workers like any sweep — not one goroutine, generator and 2.5 MB scratch
// per missing cell, which is what resumeSweep's private pool used to do.
func TestCellRunnerResumeBoundsCellsInFlight(t *testing.T) {
	registerInflight(t)
	spec := hybridtier.SweepSpec{
		Workload: "inflight-zipf",
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, "LRU"},
		Seeds:    []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Ops:      2_000,
	}
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner(1)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, plans, err := hybridtier.CellPlans(canonical)
	if err != nil {
		t.Fatal(err)
	}
	cache := newCellCache(t)
	single, err := Runner(1)(context.Background(), plans[0].Spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(plans[0].Hash, single, plans[0].Spec); err != nil {
		t.Fatal(err)
	}

	inflight.max.Store(0)
	got, err := CellRunner(0, cache)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed bytes diverge from an uninterrupted run")
	}
	if max, limit := int(inflight.max.Load()), runtime.GOMAXPROCS(0); max < 1 || max > limit {
		t.Errorf("resume of %d cells had %d in flight at once, want 1..GOMAXPROCS=%d",
			len(plans)-1, max, limit)
	}
}

// TestEachResultIsStoredOncePerDaemon counts the store's renames (one per
// atomic write, one per Cache.Put) under a job manager running the cell
// engine: every cell of a sweep is written through exactly once and the
// merged result once; a one-cell sweep — whose cell address IS the sweep's
// — is stored by the manager alone, not by the runner first. The claim
// holds for a lone daemon, whose in-process executor runs the cells, and
// for a coordinator whose live worker does.
func TestEachResultIsStoredOncePerDaemon(t *testing.T) {
	t.Run("lone daemon", func(t *testing.T) {
		testEachResultIsStoredOnce(t, func(cache *jobs.Cache) jobs.Runner { return CellRunner(2, cache) })
	})
	t.Run("coordinator with a worker", func(t *testing.T) {
		testEachResultIsStoredOnce(t, func(cache *jobs.Cache) jobs.Runner {
			coord := fabric.NewCoordinator(fabric.Config{Cache: cache, Cells: fabric.LocalCells(2)})
			csrv := httptest.NewServer(coord.Handler())
			t.Cleanup(csrv.Close)
			wsrv := httptest.NewUnstartedServer(nil)
			wk := fabric.NewWorker(fabric.WorkerConfig{
				Self: "http://" + wsrv.Listener.Addr().String(), Coordinator: csrv.URL,
				Cells: fabric.LocalCells(1),
			})
			wsrv.Config.Handler = wk.Handler()
			wsrv.Start()
			t.Cleanup(wsrv.Close)
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			go wk.Join(ctx)
			for deadline := time.Now().Add(10 * time.Second); coord.Status().Live == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the worker never joined")
				}
				time.Sleep(time.Millisecond)
			}
			t.Cleanup(func() {
				if st := coord.Status(); st.Workers[0].CommittedCells != 4 {
					t.Errorf("the worker committed %d cells, want the four-cell sweep's 4", st.Workers[0].CommittedCells)
				}
			})
			return coord.Runner()
		})
	})
}

func testEachResultIsStoredOnce(t *testing.T, runner func(*jobs.Cache) jobs.Runner) {
	fsys := errfs.Inject(errfs.OS{})
	cache, err := jobs.NewCacheFS(64<<20, t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Config{Workers: 1, Run: runner(cache), Cache: cache})
	defer Drain(m, 30*time.Second)
	run := func(spec hybridtier.SweepSpec) {
		t.Helper()
		canonical, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := m.Submit(hybridtier.HashCanonicalJSON(canonical), canonical)
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; ; {
			events, _, terminal, err := j.NextRaw(context.Background(), from)
			if err != nil {
				t.Fatal(err)
			}
			if from += len(events); terminal {
				break
			}
		}
		if st := j.Info().State; st != jobs.Done {
			t.Fatalf("job ended %s: %s", st, j.Info().Error)
		}
	}
	const perPut = 1 // one entry file, one atomic rename

	one := testSpec()
	one.Policies, one.Seeds = one.Policies[:1], one.Seeds[:1]
	run(one)
	if got := fsys.Count(errfs.OpRename); got != perPut {
		t.Errorf("a one-cell sweep cost %d renames, want %d (one Put)", got, perPut)
	}

	before := fsys.Count(errfs.OpRename)
	four := testSpec()
	four.Ops++ // four never-seen cells
	run(four)
	if got := fsys.Count(errfs.OpRename) - before; got != (4+1)*perPut {
		t.Errorf("a four-cell sweep cost %d renames, want %d (four cells and the merged result, once each)",
			got, (4+1)*perPut)
	}
}
