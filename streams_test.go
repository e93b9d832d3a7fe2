package hybridtier

// The keyed stream cache and cell-group execution (streams.go,
// Sweep.RunCells). A counting clock-free workload registered next to the
// built-ins says how often a sweep really built — and so generated — its
// workload; every case also compares result bytes with cells generated
// live, one Experiment each, so a cached, forked or evicted stream that
// replays anything else fails here.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/registry"
	"repro/internal/registry/registrytest"
	"repro/internal/trace"
	"repro/internal/workloads/cachelib"
)

// countZipf is the "count-zipf" workload: a Zipf source that counts its
// constructions and calls onBatch (when set) before every generated batch.
var countZipf struct {
	builds  atomic.Int64
	onBatch atomic.Pointer[func()]
}

type hookedZipf struct{ *trace.ZipfSource }

func (h hookedZipf) NextBatch(dst []trace.Access, max int) []trace.Access {
	if fn := countZipf.onBatch.Load(); fn != nil {
		(*fn)()
	}
	return h.ZipfSource.NextBatch(dst, max)
}

// counted wraps a workload constructor so each construction bumps
// countZipf.builds.
func counted(build registry.WorkloadFactory) registry.WorkloadFactory {
	return func(p registry.WorkloadParams) (trace.Source, error) {
		countZipf.builds.Add(1)
		return build(p)
	}
}

// freshStreams gives the test an empty stream cache of the given budget
// and a registry that resolves count-zipf and count-shift, and zeroes the
// build counter.
func freshStreams(t *testing.T, budget int) {
	t.Helper()
	pages := func(p registry.WorkloadParams) int {
		if p.Pages <= 0 {
			return 4096
		}
		return p.Pages
	}
	registrytest.WithWorkloads(t, registry.WorkloadEntry{
		Name: "count-zipf", Doc: "test: Zipf that counts its constructions",
		New: counted(func(p registry.WorkloadParams) (trace.Source, error) {
			return hookedZipf{trace.NewZipfSource("count-zipf", pages(p), 1.0, 0.1, p.Seed)}, nil
		}),
	}, registry.WorkloadEntry{
		// Records — a size no Zipf source reads — is how many ops pass
		// before the shift: 0 shifts on the very first op.
		Name: "count-shift", Doc: "test: shifting Zipf that counts its constructions",
		New: counted(func(p registry.WorkloadParams) (trace.Source, error) {
			return trace.NewShiftingZipfSource("count-shift", pages(p), 1.0, p.Seed, int64(p.Records), 2.0/3.0), nil
		}),
	})
	old := streams
	streams = newStreamCache(budget)
	countZipf.builds.Store(0)
	countZipf.onBatch.Store(nil)
	t.Cleanup(func() {
		streams = old
		countZipf.onBatch.Store(nil)
	})
}

// countSweep is a 12-cell single-seed sweep (3 policies × 4 ratios) of
// count-zipf: the shape of the benchmark's cold job A.
func countSweep(policies []PolicyName, seed uint64, ops int64, params WorkloadParams) *Sweep {
	return &Sweep{
		Policies: policies,
		Ratios:   []int{16, 8, 4, 2},
		Seeds:    []uint64{seed},
		Workers:  2,
		Base: []Option{
			WithWorkloadName("count-zipf"),
			WithWorkloadParams(params),
			WithOps(ops),
		},
	}
}

var threePolicies = []PolicyName{PolicyHybridTier, PolicyMemtis, "LRU"}

// liveCells runs every cell of sw as an Experiment of its own — live
// generation, no stream shared or cached — and returns the JSON a
// Sweep.Run of the same cells must marshal to.
func liveCells(t *testing.T, sw *Sweep) []byte {
	t.Helper()
	var out []CellResult
	for _, c := range sw.Cells() {
		res, err := sw.experimentFor(c, nil, nil).Run(context.Background())
		if err != nil {
			t.Fatalf("live cell %+v: %v", c, err)
		}
		out = append(out, CellResult{Cell: c, Result: res})
	}
	return mustJSON(t, out)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runJSON(t *testing.T, sw *Sweep) []byte {
	t.Helper()
	cells, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, cells)
}

// runInGroups executes sw's cells as consecutive RunCells groups of size n
// — a fleet worker's shards — and returns the cells in sweep order.
func runInGroups(t *testing.T, sw *Sweep, n int) []byte {
	t.Helper()
	var out []CellResult
	total := len(sw.Cells())
	for lo := 0; lo < total; lo += n {
		var idxs []int
		for i := lo; i < min(lo+n, total); i++ {
			idxs = append(idxs, i)
		}
		cells, err := sw.RunCells(context.Background(), idxs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cells...)
	}
	return mustJSON(t, out)
}

func wantBuilds(t *testing.T, what string, want int64) {
	t.Helper()
	if got := countZipf.builds.Swap(0); got != want {
		t.Errorf("%s built the workload %d times, want %d", what, got, want)
	}
}

func TestRunCellsIsRunForASubset(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	for _, tc := range []struct {
		name string
		sw   *Sweep
	}{
		{"shared-stream", countSweep(threePolicies, 1, 20_000, WorkloadParams{Pages: 2048})},
		{"multi-seed", testSweep(2)},
		{"multi-seed-shifting", shiftSweep("mix:0.5*zipf,0.5*count-shift", 3_000, []uint64{1, 2, 3})},
		{"workload-func", &Sweep{
			Policies: threePolicies, Ratios: []int{8, 4}, Workers: 2,
			Base: []Option{WithOps(20_000), WithWorkloadFunc(func(seed uint64) (Workload, error) {
				return trace.NewZipfSource("fn-zipf", 2048, 1.0, 0.1, seed), nil
			})},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole, err := tc.sw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			idxs := []int{len(whole) - 1, 0, 3}
			var onCell, lastDone, lastTotal int
			sub := *tc.sw
			sub.OnCell = func(CellResult) { onCell++ }
			sub.Progress = func(done, total int) { lastDone, lastTotal = done, total }
			got, err := sub.RunCells(context.Background(), idxs)
			if err != nil {
				t.Fatal(err)
			}
			want := []CellResult{whole[idxs[0]], whole[idxs[1]], whole[idxs[2]]}
			if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
				t.Errorf("RunCells(%v) differs from the same cells of Run", idxs)
			}
			if onCell != 3 || lastDone != 3 || lastTotal != 3 {
				t.Errorf("OnCell ×%d, final Progress %d/%d; want 3 and 3/3", onCell, lastDone, lastTotal)
			}
			if _, err := tc.sw.RunCells(context.Background(), []int{len(whole)}); err == nil {
				t.Error("an index outside the sweep must be rejected")
			}
		})
	}
}

// TestStreamCacheKeyedReuse: six two-cell groups of a 12-cell sweep build
// the workload once; the same stream serves a later sweep that adds a
// policy; any change of seed, ops or a param generates anew.
func TestStreamCacheKeyedReuse(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	params := WorkloadParams{Pages: 2048}
	base := countSweep(threePolicies, 1, 20_000, params)
	want := liveCells(t, base)
	countZipf.builds.Store(0)

	if got := runInGroups(t, base, 2); !bytes.Equal(got, want) {
		t.Error("six groups of two differ from live generation")
	}
	wantBuilds(t, "a 12-cell sweep run as six groups", 1)

	wider := countSweep(append(threePolicies[:3:3], "ARC"), 1, 20_000, params)
	wantWider := liveCells(t, wider)
	countZipf.builds.Store(0)
	if got := runJSON(t, wider); !bytes.Equal(got, wantWider) {
		t.Error("the widened sweep differs from live generation")
	}
	wantBuilds(t, "a second sweep on the same workload, params, seed and ops", 0)

	for _, tc := range []struct {
		what string
		sw   *Sweep
	}{
		{"another seed", countSweep(threePolicies, 2, 20_000, params)},
		{"another op count", countSweep(threePolicies, 1, 20_001, params)},
		{"another page count", countSweep(threePolicies, 1, 20_000, WorkloadParams{Pages: 2049})},
		{"another skew", countSweep(threePolicies, 1, 20_000, WorkloadParams{Pages: 2048, Skew: 0.5})},
	} {
		want := liveCells(t, tc.sw)
		countZipf.builds.Store(0)
		if got := runJSON(t, tc.sw); !bytes.Equal(got, want) {
			t.Errorf("%s: differs from live generation", tc.what)
		}
		wantBuilds(t, tc.what, 1)
	}
	// A respelled workload name is the same stream.
	respelled := countSweep(threePolicies, 1, 20_000, params)
	respelled.Base[0] = WithWorkloadName(" ( count-zipf ) ")
	runJSON(t, respelled)
	wantBuilds(t, "a respelling of the cached workload", 0)
}

// TestStreamCacheNeverRetainsOpaqueStreams: a WithWorkloadFunc factory has
// no identity and a trace file's bytes may change under its path, so
// neither leaves anything behind — not even a "does not share" entry.
func TestStreamCacheNeverRetainsOpaqueStreams(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	var fnBuilds int
	fn := &Sweep{
		Policies: threePolicies, Ratios: []int{8, 4}, Workers: 2,
		Base: []Option{WithOps(20_000), WithWorkloadFunc(func(seed uint64) (Workload, error) {
			fnBuilds++
			return trace.NewZipfSource("fn-zipf", 2048, 1.0, 0.1, seed), nil
		})},
	}
	first := runJSON(t, fn)
	if fnBuilds != 1 {
		t.Errorf("a WithWorkloadFunc sweep built %d times, want 1 (shared within the call)", fnBuilds)
	}
	if second := runJSON(t, fn); !bytes.Equal(first, second) || fnBuilds != 2 {
		t.Errorf("second WithWorkloadFunc sweep: builds=%d (want 2: nothing retained), identical=%v",
			fnBuilds, bytes.Equal(first, second))
	}

	path := filepath.Join(t.TempDir(), "cap.htrc")
	if _, err := NewExperiment(WithWorkloadName("zipf"), WithOps(5_000), WithRecordTo(path)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	replay := &Sweep{Policies: threePolicies, Base: []Option{WithTraceFile(path)}}
	composed := &Sweep{Policies: threePolicies, Base: []Option{
		WithWorkloadName("mix:count-zipf,trace:" + path), WithOps(5_000)}}
	for _, sw := range []*Sweep{replay, composed} {
		if got, want := runJSON(t, sw), liveCells(t, sw); !bytes.Equal(got, want) {
			t.Error("trace sweep differs from live cells")
		}
	}
	if n := len(streams.entries); n != 0 {
		t.Errorf("opaque streams left %d cache entries, want none", n)
	}
}

// TestStreamCacheConcurrentSweepsGenerateOnce: sweeps racing for one key
// attach to the stream the first one packs.
func TestStreamCacheConcurrentSweepsGenerateOnce(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	sw := countSweep(threePolicies, 1, 20_000, WorkloadParams{Pages: 2048})
	want := liveCells(t, sw)
	countZipf.builds.Store(0)
	var wg sync.WaitGroup
	results := make([][]byte, 6)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp := *sw
			cells, err := cp.Run(context.Background())
			if err == nil {
				results[i], _ = json.Marshal(cells)
			}
		}()
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Errorf("concurrent sweep %d differs from live generation", i)
		}
	}
	wantBuilds(t, "six concurrent sweeps on one key", 1)
}

// TestStreamCacheEvictionSparesStreamsInUse: a stream evicted while a
// sweep's forks are mid-replay stays intact. Eviction only unlinks it from
// the cache; the forks' references, not a count, keep its arrays alive
// until the garbage collector may reclaim them.
func TestStreamCacheEvictionSparesStreamsInUse(t *testing.T) {
	const ops = 20_000
	// Room for one stream (≈1 access per op), not two.
	freshStreams(t, ops+ops/2)
	params := WorkloadParams{Pages: 2048}
	victim := countSweep(threePolicies, 1, ops, params)
	want := liveCells(t, victim)
	evictors := []*Sweep{
		countSweep(threePolicies, 2, ops, params),
		countSweep(threePolicies, 3, ops, params),
		countSweep(threePolicies, 4, ops, params),
	}
	victim.Workers = 1
	fired := false
	victim.OnCell = func(CellResult) {
		if fired {
			return
		}
		fired = true
		// The victim's first cell is done and eleven are to come. Each
		// evictor generates a stream, pushing the previous one out: the
		// victim's first (still read by its forks), then idle ones.
		for _, sw := range evictors {
			runJSON(t, sw)
		}
		if _, cached := streams.entries[streamKey{"count-zipf", WorkloadParams{Pages: 2048, Seed: 1}, ops}]; cached {
			t.Error("test wiring: the victim's stream was not evicted")
		}
	}
	if got := runJSON(t, victim); !bytes.Equal(got, want) {
		t.Error("a sweep whose stream was evicted mid-replay differs from live generation")
	}
	if streams.retained > streams.budget {
		t.Errorf("cache retains %d accesses, budget %d", streams.retained, streams.budget)
	}
	// The evictors' results are as good as live ones.
	for i, sw := range evictors {
		if got, want := runJSON(t, sw), liveCells(t, sw); !bytes.Equal(got, want) {
			t.Errorf("evictor %d differs from live generation", i)
		}
	}
}

// TestStreamCacheCanceledGenerationCachesNothing: a sweep canceled while
// its stream generates leaves no entry, and the next sweep generates and
// succeeds.
func TestStreamCacheCanceledGenerationCachesNothing(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	sw := countSweep(threePolicies, 1, 50_000, WorkloadParams{Pages: 2048})
	want := liveCells(t, sw)
	countZipf.builds.Store(0)

	ctx, cancel := context.WithCancel(context.Background())
	batches := 0
	hook := func() {
		if batches++; batches == 3 {
			cancel()
		}
	}
	countZipf.onBatch.Store(&hook)
	if _, err := sw.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
	countZipf.onBatch.Store(nil)
	if batches > 4 {
		t.Errorf("generation ran %d batches past a cancel at the third", batches-3)
	}
	if n := len(streams.entries); n != 0 {
		t.Fatalf("canceled generation left %d cache entries", n)
	}
	countZipf.builds.Store(0)
	if got := runJSON(t, sw); !bytes.Equal(got, want) {
		t.Error("the sweep after a canceled one differs from live generation")
	}
	wantBuilds(t, "the sweep after a canceled generation", 1)
}

// TestStreamCacheOverBudgetStreamIsAttemptedOnce: a stream longer than the
// budget falls back to live generation in every cell, and the cache
// remembers that, so no later sweep — or shard — generates it again only to
// throw it away.
func TestStreamCacheOverBudgetStreamIsAttemptedOnce(t *testing.T) {
	const ops = 20_000
	freshStreams(t, ops/2)
	sw := countSweep(threePolicies, 1, ops, WorkloadParams{Pages: 2048})
	want := liveCells(t, sw)
	cells := int64(len(sw.Cells()))
	countZipf.builds.Store(0)

	if got := runJSON(t, sw); !bytes.Equal(got, want) {
		t.Error("over-budget sweep differs from live generation")
	}
	wantBuilds(t, "the first over-budget sweep (one attempt, then every cell live)", 1+cells)
	if got := runInGroups(t, sw, 2); !bytes.Equal(got, want) {
		t.Error("over-budget sweep in groups differs from live generation")
	}
	wantBuilds(t, "the same sweep again, in six groups (no further attempt)", cells)
	if streams.retained != 0 {
		t.Errorf("an over-budget stream left %d accesses retained", streams.retained)
	}
}

// TestStreamAbandonedMidPackRerunsItsCells: a stream that outgrows the
// cache's budget only after it has published its first chunk — 270k
// one-access ops, then denser CacheLib ops — has cells replaying it when it
// is abandoned. They have reported nothing, run again on live generation,
// and the sweep marshals to the bytes of an all-live run; the cache
// remembers the key as not sharing.
func TestStreamAbandonedMidPackRerunsItsCells(t *testing.T) {
	const ops = 280_000
	freshStreams(t, ops)
	params := WorkloadParams{Pages: 2048, CacheObjects: 500}
	sw := &Sweep{
		Policies: []PolicyName{PolicyHybridTier, "LRU"},
		Workers:  2,
		Base: []Option{
			WithWorkloadName("phases:count-zipf@270000,cdn"),
			WithWorkloadParams(params),
			WithOps(ops),
		},
	}
	// The scenario: packing publishes, then outgrows the budget.
	w, _, err := NewExperiment(append(sw.Base[:3:3], WithSeed(1))...).buildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	probe := trace.StartReplaySource(w, ops, streams.budget)
	if <-probe.Done(); !errors.Is(probe.Err(), trace.ErrStreamTooLong) || probe.Accesses() == 0 {
		t.Fatalf("test wiring: stream published %d accesses and ended with %v; want some, then ErrStreamTooLong",
			probe.Accesses(), probe.Err())
	}
	want := liveCells(t, sw)
	countZipf.builds.Store(0)
	if got := runJSON(t, sw); !bytes.Equal(got, want) {
		t.Error("a sweep whose stream was abandoned mid-pack differs from live generation")
	}
	wantBuilds(t, "the abandoned stream and both cells live", 3)
	if got := runJSON(t, sw); !bytes.Equal(got, want) {
		t.Error("the second sweep differs from live generation")
	}
	wantBuilds(t, "the same sweep again (the key does not share)", 2)
}

// gatedZipf is a Zipf source whose packing, for the seed-1 instance, stops
// after its first batch until gate closes.
type gatedZipf struct {
	*trace.ZipfSource
	gate    chan struct{}
	batches int
}

func (g *gatedZipf) NextBatch(dst []trace.Access, max int) []trace.Access {
	if g.batches++; g.batches == 2 && g.gate != nil {
		<-g.gate
	}
	return g.ZipfSource.NextBatch(dst, max)
}

// TestSweepMeasuresAStreamPackedUnderALargerBound: a sweep whose earlier
// seed already pins part of the budget does not attach to another sweep's
// stream while it packs under the whole budget — it could outgrow what is
// left. It waits for that stream, measures it, and here, where it does not
// fit, generates the seed live.
func TestSweepMeasuresAStreamPackedUnderALargerBound(t *testing.T) {
	const ops = 20_000 // one access per op
	freshStreams(t, ops+ops/2)
	gate := make(chan struct{})
	registrytest.WithWorkloads(t, registry.WorkloadEntry{
		Name: "gated-zipf", Doc: "test: Zipf whose seed-1 packing waits on a gate",
		New: counted(func(p registry.WorkloadParams) (trace.Source, error) {
			g := &gatedZipf{ZipfSource: trace.NewZipfSource("gated-zipf", 2048, 1.0, 0.1, p.Seed)}
			if p.Seed == 1 {
				g.gate = gate
			}
			return g, nil
		}),
	})
	sweep := func(seeds ...uint64) *Sweep {
		return &Sweep{Policies: []PolicyName{PolicyHybridTier, "LRU"}, Seeds: seeds, Workers: 2,
			Base: []Option{WithWorkloadName("gated-zipf"), WithOps(ops)}}
	}
	first, second := sweep(1), sweep(2, 1)
	close(gate)
	wantFirst, wantSecond := liveCells(t, first), liveCells(t, second)
	gate = make(chan struct{})
	countZipf.builds.Store(0)

	firstDone := make(chan []byte)
	go func() {
		cells, err := first.Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		b, _ := json.Marshal(cells)
		firstDone <- b
	}()
	// until reports whether the cache holds seed's entry in the state
	// test asks for, once it does.
	until := func(seed uint64, test func(e *streamEntry) bool) {
		key := streamKey{"gated-zipf", WorkloadParams{Seed: seed}, ops}
		for {
			streams.mu.Lock()
			e := streams.entries[key]
			ok := e != nil && test(e)
			streams.mu.Unlock()
			if ok {
				return
			}
			runtime.Gosched()
		}
	}
	until(1, func(e *streamEntry) bool { return e.rs != nil && e.elem == nil }) // packing
	secondDone := make(chan []byte)
	go func() { secondDone <- runJSON(t, second) }()
	// The second sweep packs and settles seed 2's stream, then turns to
	// seed 1's; only then may that one complete (and, being the newer
	// entry, evict seed 2's rather than be evicted).
	until(2, func(e *streamEntry) bool { return e.elem != nil })
	close(gate)
	if got := <-firstDone; !bytes.Equal(got, wantFirst) {
		t.Error("the first sweep differs from live generation")
	}
	if got := <-secondDone; !bytes.Equal(got, wantSecond) {
		t.Error("the second sweep differs from live generation")
	}
	wantBuilds(t, "seed 1's stream, seed 2's stream, and seed 1 live in the second sweep's two cells", 4)
}

// TestStreamCacheEntryBound: "does not share" entries cost no accesses,
// so the entry count has a bound of its own.
func TestStreamCacheEntryBound(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	for i := range maxStreamEntries + 10 {
		key := streamKey{workload: fmt.Sprintf("w%d", i)}
		streams.get(context.Background(), key, streams.budget, func(int) (*trace.ReplaySource, error) {
			return nil, nil
		})
	}
	if n := len(streams.entries); n != maxStreamEntries || streams.lru.Len() != n {
		t.Errorf("cache holds %d entries (%d listed), want the bound %d", n, streams.lru.Len(), maxStreamEntries)
	}
}

// TestStreamCacheBuildFailureIsNotRemembered: a workload that fails to
// build teaches the cache nothing — the sweep's cells report the error,
// no entry stays behind, and a later sweep tries again.
func TestStreamCacheBuildFailureIsNotRemembered(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	registrytest.WithWorkloads(t, registry.WorkloadEntry{
		Name: "broken", Doc: "test: a workload that cannot be built",
		New: func(registry.WorkloadParams) (trace.Source, error) {
			return nil, errors.New("broken: no such dataset")
		},
	})
	sw := &Sweep{Policies: threePolicies, Base: []Option{WithWorkloadName("broken"), WithOps(1_000)}}
	for range 2 {
		cells, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Err == "" {
				t.Errorf("cell %+v of an unbuildable workload reported no error", c.Cell)
			}
		}
		if n := len(streams.entries); n != 0 {
			t.Errorf("a failed build left %d cache entries", n)
		}
	}
}

// shiftSweep is a sweep of 2 policies × seeds over a workload built on
// count-shift, whose shift fires after shiftAfter of its own ops.
func shiftSweep(workload string, shiftAfter int, seeds []uint64) *Sweep {
	return &Sweep{
		Policies: []PolicyName{PolicyHybridTier, "LRU"},
		Seeds:    seeds,
		Workers:  2,
		Base: []Option{
			WithWorkloadName(workload),
			WithWorkloadParams(WorkloadParams{Pages: 2048, Records: shiftAfter}),
			WithOps(shiftOps),
		},
	}
}

// shiftOps is long enough for a policy tick (10 virtual ms, some 100k Zipf
// ops) to pass before a shift at 120k ops, so the shift's time is not 0.
const shiftOps = 160_000

// TestShiftingWorkloadsShareOneStreamPerSeed: every shifting generator and
// every composition over one is a shareable stream. For each workload, at
// one seed and at three, a shared-stream sweep — any worker count, whole
// or in RunCells groups — marshals to the bytes of
// per-cell live generation, shift times included, having built the workload
// once per distinct seed.
func TestShiftingWorkloadsShareOneStreamPerSeed(t *testing.T) {
	var fnBuilds atomic.Int64
	shiftedCacheLib := func(seed uint64) (Workload, error) {
		fnBuilds.Add(1)
		cfg := cachelib.CDN(seed)
		cfg.Objects, cfg.ShiftAfterOps, cfg.ShiftFrac = 2_000, 60_000, 2.0/3.0
		return cachelib.New(cfg)
	}
	for _, tc := range []struct {
		name     string
		workload string // "" runs shiftedCacheLib through WithWorkloadFunc
		after    int    // count-shift's Records
		leaves   int64  // counted constructions per build of the workload
		shiftAt0 bool   // the shift fires on the first op, at time 0
	}{
		{name: "shifting-zipf", workload: "count-shift", after: 120_000, leaves: 1},
		{name: "shifted-cachelib-func"},
		{name: "mix", workload: "mix:0.5*zipf,0.5*count-shift", after: 60_000, leaves: 1},
		{name: "phases", workload: "phases:count-shift@130000,zipf", after: 120_000, leaves: 1},
		{name: "phases-late-stage", workload: "phases:zipf@120000,count-shift", leaves: 1},
		{name: "repeat", workload: "repeat:count-shift@130000", after: 120_000, leaves: 1},
		{name: "two-shifting-children", workload: "mix:0.5*count-shift,0.5*(phases:count-shift@70000,zipf)", after: 60_000, leaves: 2},
		{name: "shift-at-op-0", workload: "count-shift", leaves: 1, shiftAt0: true},
		{name: "shift-at-last-op", workload: "offset:count-shift+64", after: shiftOps, leaves: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			freshStreams(t, maxSharedStreamAccesses)
			for _, seeds := range [][]uint64{{1}, {1, 2, 3}} {
				sw := shiftSweep(tc.workload, tc.after, seeds)
				if tc.workload == "" {
					// CacheLib ops touch several pages: fewer make a tick.
					sw.Base = []Option{WithWorkloadFunc(shiftedCacheLib), WithOps(80_000)}
				}
				want := liveCells(t, sw)
				var cells []CellResult
				if err := json.Unmarshal(want, &cells); err != nil {
					t.Fatal(err)
				}
				for _, c := range cells {
					if at := c.Result.ShiftNs; at < 0 || tc.shiftAt0 != (at == 0) {
						t.Fatalf("live cell %+v: shift_ns = %d; the case must shift (at time 0: %v)", c.Cell, at, tc.shiftAt0)
					}
				}
				countZipf.builds.Store(0)
				fnBuilds.Store(0)
				// Seed 1's stream is cached by the one-seed pass.
				fresh := int64(len(seeds))
				if len(seeds) > 1 {
					fresh--
				}
				for i, v := range []struct {
					workers, group int
				}{{1, 0}, {2, 3}, {2, 0}, {1, 5}} {
					run := *sw
					run.Workers = v.workers
					got := runJSON
					if v.group > 0 {
						got = func(t *testing.T, sw *Sweep) []byte { return runInGroups(t, sw, v.group) }
					}
					what := fmt.Sprintf("%d seed(s), workers %d, groups of %d", len(seeds), v.workers, v.group)
					if !bytes.Equal(got(t, &run), want) {
						t.Errorf("%s: differs from per-cell live generation", what)
					}
					switch n := fnBuilds.Swap(0); {
					case tc.workload == "" && v.group == 0 && n != int64(len(seeds)):
						// Keyless: nothing is retained, every whole sweep
						// generates each seed once.
						t.Errorf("%s: built the workload %d times, want %d", what, n, len(seeds))
					case tc.workload == "":
					case i == 0:
						wantBuilds(t, what, tc.leaves*fresh)
					default:
						wantBuilds(t, what+" (warm)", 0)
					}
				}
			}
		})
	}
}

// TestSweepPinsNoMoreThanTheStreamBudget: streams in use are pinned by their
// forks, not by the cache, so a many-seed sweep shares only the seeds whose
// streams fit the budget together and generates the rest live.
func TestSweepPinsNoMoreThanTheStreamBudget(t *testing.T) {
	const ops = 5_000 // count-zipf packs one access per op
	freshStreams(t, 2*ops+ops/2)
	sw := countSweep(threePolicies, 0, ops, WorkloadParams{Pages: 2048})
	sw.Ratios = []int{8}
	sw.Seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	want := liveCells(t, sw)
	countZipf.builds.Store(0)
	if got := runJSON(t, sw); !bytes.Equal(got, want) {
		t.Error("a sweep over more seeds than fit the budget differs from live generation")
	}
	// Seeds 1 and 2 replay (2×ops ≤ budget); seed 3's stream is generated,
	// found not to fit beside them and let go; it and the five seeds after
	// it generate live in each of their three cells.
	wantBuilds(t, "eight seeds on a two-stream budget", 3+6*3)
	if streams.retained > streams.budget {
		t.Errorf("cache retains %d accesses, budget %d", streams.retained, streams.budget)
	}
}

// TestMarkFreeReplayKeepsTheGeneratorsFace: a stream without shift marks —
// here from a ShiftSource whose shift never fires — replays through a fork
// that is a ShiftSource like its generator, whatever packing has reached
// when it is forked, and reports -1 as the generator does: Result bytes
// (shift_ns -1) and a recording of the fork are byte for byte those of live
// generation; its packed views are uncapped and allocate nothing.
func TestMarkFreeReplayKeepsTheGeneratorsFace(t *testing.T) {
	const ops = 5_000
	gen := func() Workload {
		return trace.NewShiftingZipfSource("never", 2048, 1.0, 1, 2*ops, 0.5)
	}
	rs := trace.StartReplaySource(gen(), ops, 1<<20)
	early := rs.Fork()
	if <-rs.Done(); rs.Err() != nil {
		t.Fatalf("stream did not pack: %v", rs.Err())
	}
	for _, fork := range []Workload{early, rs.Fork()} {
		if ss, shifty := fork.(trace.ShiftSource); !shifty || ss.ShiftTime() != -1 {
			t.Fatal("a fork of a ShiftSource's stream must be a ShiftSource reporting -1")
		}
	}
	run := func(w Workload, extra ...Option) []byte {
		res, err := NewExperiment(append([]Option{WithWorkload(w), WithOps(ops)}, extra...)...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.ShiftNs != -1 {
			t.Errorf("shift_ns = %d, want -1", res.ShiftNs)
		}
		return mustJSON(t, res)
	}
	dir := t.TempDir()
	livePath, forkPath := filepath.Join(dir, "live.htrc"), filepath.Join(dir, "fork.htrc")
	if live, replayed := run(gen(), WithRecordTo(livePath)), run(early, WithRecordTo(forkPath)); !bytes.Equal(live, replayed) {
		t.Error("a mark-free replay differs from live generation")
	}
	if live, fork := readFile(t, livePath), readFile(t, forkPath); !bytes.Equal(live, fork) {
		t.Error("the recorded fork differs from the recorded live generation")
	}
	pv := rs.Fork().(trace.PackedViewSource)
	if n := len(pv.NextPackedView(512)); n != 512 {
		t.Errorf("first view holds %d accesses, want the 512 ops asked for", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { pv.NextPackedView(64) }); allocs != 0 {
		t.Errorf("NextPackedView allocates %v times per call", allocs)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLocalClockedJobsBuildOncePerSeed: the benchmark's local_clocked jobs —
// a two-seed shifting-zipf sweep of 14 cells and a two-seed
// phases:social@N,cdn sweep of 16 — used to construct their workload once
// per cell, 30 times a pass; now once per (job, seed) on a cold stream
// cache and not at all on a warm one.
func TestLocalClockedJobsBuildOncePerSeed(t *testing.T) {
	freshStreams(t, maxSharedStreamAccesses)
	var wrapped []registry.WorkloadEntry
	for _, name := range []string{"shifting-zipf", "social"} { // one social per phases build
		e, _ := registry.Workloads.Lookup(name)
		e.New = counted(e.New)
		wrapped = append(wrapped, e)
	}
	registrytest.WithWorkloads(t, wrapped...)
	params := WorkloadParams{CacheObjects: 500, Pages: 2048}
	jobs := []*Sweep{{
		Policies: []PolicyName{"HybridTier", "Memtis", "TPP", "AutoNUMA", "LRU", "Heat-Idle", "Heat-Dirty"},
		Ratios:   []int{8}, Seeds: []uint64{1, 2},
		Base: []Option{WithWorkloadName("shifting-zipf"), WithWorkloadParams(params), WithOps(20_000)},
	}, {
		Policies: []PolicyName{"HybridTier", "TPP", "LRU@idlepage", "Age-Idle"},
		Ratios:   []int{8, 4}, Seeds: []uint64{1, 2},
		Base: []Option{WithWorkloadName("phases:social@5000,cdn"), WithWorkloadParams(params), WithOps(10_000)},
	}}
	for _, sw := range jobs {
		liveCells(t, sw)
	}
	wantBuilds(t, "one pass of per-cell generation", 30)
	for _, pass := range []struct {
		what string
		want int64
	}{{"one pass on a cold stream cache", 4}, {"one pass on a warm stream cache", 0}} {
		for _, sw := range jobs {
			runJSON(t, sw)
		}
		wantBuilds(t, pass.what, pass.want)
	}
}
