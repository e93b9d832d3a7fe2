package hybridtier

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// Cell identifies one point of a sweep's cross product.
type Cell struct {
	// Index is the cell's position in the deterministic policy-major
	// enumeration order.
	Index int `json:"index"`
	// Policy, Ratio, and Seed are the cell's coordinates.
	Policy PolicyName `json:"policy"`
	Ratio  int        `json:"ratio"`
	Seed   uint64     `json:"seed"`
}

// CellResult is one executed cell. Exactly one of Result and Err is set.
type CellResult struct {
	Cell
	Result *Result `json:"result,omitempty"`
	Err    string  `json:"error,omitempty"`
}

// Sweep runs the cross product of Policies × Ratios × Seeds concurrently
// across a worker pool. Every cell is an independent Experiment built from
// Base plus the cell's coordinates, with both the workload instance and
// the simulator seeded from the cell's seed — so results are fully
// deterministic: the same sweep produces identical Results (and identical
// JSON bytes) regardless of Workers or scheduling.
type Sweep struct {
	// Policies, Ratios, and Seeds span the cross product. Empty Ratios
	// defaults to {8}; empty Seeds defaults to {1}; Policies is required.
	Policies []PolicyName
	Ratios   []int
	Seeds    []uint64
	// Base is the option set shared by every cell: the workload
	// (WithWorkloadName or WithWorkloadFunc — WithWorkload is rejected
	// because one mutable source cannot be shared across cells), op
	// count, huge pages, and so on.
	Base []Option
	// Workers bounds concurrent cells (default runtime.GOMAXPROCS(0)).
	Workers int
	// Progress, when non-nil, is called after each cell completes with the
	// number of finished cells and the total. Calls are serialized.
	Progress func(done, total int)
	// OnCell, when non-nil, is called once per completed cell with its
	// result, serialized with Progress (and before it for the same cell).
	// It is the write-through hook: the service's crash-safe runner
	// persists each finished cell to the content-addressed cache here, so
	// a killed sweep resumes from its last completed cell instead of
	// from zero. Cells arrive in completion order, not Cells order.
	OnCell func(cr CellResult)
}

// Cells enumerates the cross product in deterministic policy-major order.
func (s *Sweep) Cells() []Cell {
	ratios := s.Ratios
	if len(ratios) == 0 {
		ratios = []int{8}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	cells := make([]Cell, 0, len(s.Policies)*len(ratios)*len(seeds))
	for _, pol := range s.Policies {
		for _, ratio := range ratios {
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Index: len(cells), Policy: pol, Ratio: ratio, Seed: seed,
				})
			}
		}
	}
	return cells
}

// scratchPool recycles per-run simulation buffers (access batches, sample
// rings, histograms — ~2.5 MB each) across sweep cells and across sweeps.
// Each worker goroutine checks one Scratch out for its whole cell stream,
// so a sweep allocates the buffers Workers times instead of per cell.
var scratchPool = sync.Pool{New: func() any { return new(sim.Scratch) }}

// experimentFor builds the cell's experiment from Base plus sweep-level
// extras (e.g. the trace-length ops default) plus coordinates.
func (s *Sweep) experimentFor(c Cell, extra []Option, sc *sim.Scratch) *Experiment {
	opts := make([]Option, 0, len(s.Base)+len(extra)+3)
	opts = append(opts, s.Base...)
	opts = append(opts, extra...)
	opts = append(opts, WithPolicy(c.Policy), WithRatio(c.Ratio), WithSeed(c.Seed))
	e := NewExperiment(opts...)
	e.scratch = sc
	return e
}

// errCellNotRun marks cells the sweep never started before cancellation.
const errCellNotRun = "sweep canceled before this cell ran"

// seedStream is the sharing decision for one seed's cells.
type seedStream struct {
	ready chan struct{}       // closed once rs is decided
	rs    *trace.ReplaySource // nil: the seed's cells generate live
	// ctx is what the seed's cells replay under; stop cancels it when
	// the stream is abandoned, so they stop reading it at once.
	ctx  context.Context
	stop context.CancelFunc
}

// stream waits for the seed's decision and returns its stream, nil when
// the cells generate live or ctx ends first.
func (sl *seedStream) stream(ctx context.Context) *trace.ReplaySource {
	if sl == nil {
		return nil
	}
	select {
	case <-sl.ready:
		return sl.rs
	case <-ctx.Done():
		return nil
	}
}

// sharedStreams decides, by seed, the op streams the cells at idxs replay,
// in a goroutine of its own, and returns at once: each cell waits for its
// own seed's decision only, and then replays the stream while it packs. A
// seed without a stream generates live in every cell. wait returns once
// the decisions are done and every stream this sweep started has settled.
//
// A seed shares when the SWEEP — not this call's subset of it — has at
// least two cells of it (a recording sweep has one) and its workload
// instance declares itself clock-free. A stream with an identity
// (streamKey) comes from the process-wide cache, looked up before any
// workload is built; one without is generated here when at least two of
// the seed's cells run now. Streams in use are pinned by their forks, not
// by the cache, and a sweep never pins more than the cache's budget: each
// seed's stream packs under what the seeds before it left of the budget,
// so the next starts only once this one is complete. The first seed that
// fails to share, does not fit or is abandoned ends the search, and it and
// the seeds after it generate live — where the per-cell path surfaces any
// failure consistently.
func (s *Sweep) sharedStreams(ctx context.Context, cells []Cell, idxs []int, baseExtra []Option) (shared map[uint64]*seedStream, wait func()) {
	cache := streams
	inSweep, running := map[uint64]int{}, map[uint64]int{}
	for _, c := range cells {
		inSweep[c.Seed]++
	}
	for _, idx := range idxs {
		running[cells[idx].Seed]++
	}
	type plan struct {
		slot  *seedStream
		key   streamKey
		keyed bool
		gen   generator
	}
	var plans []plan
	shared = map[uint64]*seedStream{}
	for _, idx := range idxs {
		seed := cells[idx].Seed
		if shared[seed] != nil || inSweep[seed] < 2 {
			continue
		}
		proto := s.experimentFor(cells[idx], baseExtra, nil)
		key, keyed := proto.streamKey()
		if !keyed && running[seed] < 2 {
			continue
		}
		sl := &seedStream{ready: make(chan struct{})}
		sl.ctx, sl.stop = context.WithCancel(ctx)
		shared[seed] = sl
		plans = append(plans, plan{sl, key, keyed, func(limit int) (*trace.ReplaySource, error) {
			w, owned, err := proto.buildWorkload()
			if err != nil {
				return nil, err
			}
			closer, _ := w.(io.Closer)
			if !owned {
				closer = nil
			}
			if cf, ok := w.(trace.ClockFree); !ok || !cf.ClockFree() {
				if closer != nil {
					closer.Close()
				}
				return nil, nil
			}
			rs := trace.StartReplaySource(newCtxSource(ctx, w), proto.ops, limit)
			if closer != nil {
				go func() {
					<-rs.Done()
					closer.Close()
				}()
			}
			return rs, nil
		}})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		pinned := 0
		for i, p := range plans {
			limit := cache.budget - pinned
			var rs *trace.ReplaySource
			mine := true
			if p.keyed {
				rs, mine = cache.get(ctx, p.key, limit, p.gen)
			} else {
				rs, _ = p.gen(limit)
			}
			p.slot.rs = rs
			close(p.slot.ready)
			if rs != nil {
				if mine {
					// Bounded even when canceled: generation stops
					// within a batch (ctxSource).
					<-rs.Done()
					if p.keyed {
						cache.settle(ctx, p.key, rs)
					}
				} else {
					select {
					case <-rs.Done():
					case <-ctx.Done():
					}
				}
			}
			if rs == nil || ctx.Err() != nil || rs.Err() != nil {
				p.slot.stop()
				for _, rest := range plans[i+1:] {
					close(rest.slot.ready)
				}
				return
			}
			pinned += rs.Accesses()
		}
	}()
	return shared, func() { <-done }
}

// runCell runs one cell, replaying its seed's stream when it has one. A
// cell reads exactly the stream's ops, so it can finish only after the
// stream is complete: when the stream is abandoned partway instead, the
// cell has reported nothing, and it runs again on live generation.
func (s *Sweep) runCell(ctx context.Context, c Cell, baseExtra []Option, sc *sim.Scratch, sl *seedStream) (*Result, error) {
	if rs := sl.stream(ctx); rs != nil && rs.Err() == nil {
		e := s.experimentFor(c, baseExtra, sc)
		e.workload = rs.Fork()
		res, err := e.Run(sl.ctx)
		if rs.Err() == nil {
			return res, err
		}
	}
	return s.experimentFor(c, baseExtra, sc).Run(ctx)
}

// Run executes every cell and returns results in Cells order. Per-cell
// failures are recorded in CellResult.Err and do not stop the sweep; the
// returned error is non-nil only for configuration errors or context
// cancellation. On cancellation the partial results are still returned:
// completed cells carry their Result, interrupted cells a cancellation
// error, and never-started cells errCellNotRun.
func (s *Sweep) Run(ctx context.Context) ([]CellResult, error) {
	all := make([]int, len(s.Cells()))
	for i := range all {
		all[i] = i
	}
	return s.RunCells(ctx, all)
}

// RunCells executes the cells at idxs — positions in Cells order — and
// returns their results in idxs order, each carrying its index in the
// whole sweep. It is Run for a cell group: the same worker pool, OnCell,
// Progress (counting idxs), scratch recycling, cancellation and error
// contract, and the same shared op stream — a group replays the stream its
// sweep would, however few of the cells it runs. The sweep fabric's
// workers and the service's resume path run their share of a sweep here.
func (s *Sweep) RunCells(ctx context.Context, idxs []int) ([]CellResult, error) {
	if len(s.Policies) == 0 {
		return nil, fmt.Errorf("hybridtier: sweep needs at least one policy")
	}
	probe := NewExperiment(s.Base...)
	if probe.workload != nil {
		return nil, fmt.Errorf("hybridtier: sweep cells cannot share one workload instance; " +
			"use WithWorkloadName or WithWorkloadFunc instead of WithWorkload")
	}
	cells := s.Cells()
	if probe.recordTo != "" && len(cells) > 1 {
		return nil, fmt.Errorf("hybridtier: %d sweep cells cannot record to one trace file; "+
			"capture a single cell with WithRecordTo", len(cells))
	}
	// A trace replays the same literal stream regardless of seed (and the
	// seed drives nothing else in a replay), so a multi-seed sweep would
	// emit identical cells labeled with distinct seeds — archived results
	// lying about what ran, like the zero coordinates rejected below. This
	// covers both replay spellings: trace:<path> and corpus:<hash>, the
	// latter resolved to its stored file through the registry.
	var baseExtra []Option
	tracePath := ""
	if path, ok := strings.CutPrefix(probe.wname, registry.TraceScheme); ok {
		tracePath = path
	} else if hash, ok := strings.CutPrefix(probe.wname, registry.CorpusScheme); ok {
		path, err := registry.ResolveCorpus(hash)
		if err != nil {
			return nil, err
		}
		tracePath = path
	}
	if tracePath != "" {
		if len(s.Seeds) > 1 {
			return nil, fmt.Errorf("hybridtier: a trace workload ignores seeds; "+
				"sweeping %d seeds would produce identical cells under different labels",
				len(s.Seeds))
		}
		// Resolve the replay-length default once here rather than once
		// per cell: Experiment.Run's fallback rescans the whole trace.
		if !probe.opsSet {
			info, err := tracefile.Stat(tracePath)
			if err != nil {
				return nil, err
			}
			if info.Ops == 0 {
				return nil, fmt.Errorf("hybridtier: trace %s has no op records", tracePath)
			}
			baseExtra = append(baseExtra, WithOps(info.Ops))
		}
	}
	// Zero coordinates would be silently rewritten by NewExperiment's
	// defaulting, making the reported cell lie about what ran; reject them
	// up front so archived results always match their labels.
	for _, c := range cells {
		if c.Seed == 0 {
			return nil, fmt.Errorf("hybridtier: sweep seeds must be nonzero")
		}
		if c.Ratio <= 0 {
			return nil, fmt.Errorf("hybridtier: sweep ratios must be positive, got %d", c.Ratio)
		}
	}
	results := make([]CellResult, len(idxs))
	for k, idx := range idxs {
		if idx < 0 || idx >= len(cells) {
			return nil, fmt.Errorf("hybridtier: cell index %d outside the sweep's %d cells", idx, len(cells))
		}
		results[k] = CellResult{Cell: cells[idx], Err: errCellNotRun}
	}
	// Clock-free workloads (trace.ClockFree) emit the same op stream in
	// every cell that shares their seed, so each seed's stream is generated
	// once — per process, not per call: see streamCache — and each cell gets
	// a cheap in-memory replay cursor, skipping regeneration (graph
	// traversals, Zipf draws, B-tree descents) entirely. Cells start at
	// once and replay a stream while it is still packing. The streams are
	// bounded, so a huge run falls back to live generation.
	shared, wait := s.sharedStreams(ctx, cells, idxs, baseExtra)
	defer func() {
		wait()
		for _, sl := range shared {
			sl.stop()
		}
	}()

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idxs) {
		workers = len(idxs)
	}

	var (
		done    atomic.Int64
		progMu  sync.Mutex
		wg      sync.WaitGroup
		jobs    = make(chan int)
		ctxDone = ctx.Done()
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*sim.Scratch)
			defer scratchPool.Put(sc)
			for k := range jobs {
				c := results[k].Cell
				res, err := s.runCell(ctx, c, baseExtra, sc, shared[c.Seed])
				cr := CellResult{Cell: c, Result: res}
				if err != nil {
					cr.Result = nil
					cr.Err = err.Error()
				}
				results[k] = cr
				if s.OnCell != nil || s.Progress != nil {
					// The completion count is incremented UNDER progMu: with
					// the increment outside, two workers could swap between
					// Add and Lock and deliver Progress(2) before Progress(1),
					// so observers would see the count go backwards. Inside
					// the lock, the n-th callback is always the n-th
					// completion and the sequence is strictly increasing.
					progMu.Lock()
					n := int(done.Add(1))
					if s.OnCell != nil {
						s.OnCell(cr)
					}
					if s.Progress != nil {
						s.Progress(n, len(idxs))
					}
					progMu.Unlock()
				} else {
					done.Add(1)
				}
			}
		}()
	}
feed:
	for k := range idxs {
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- k:
		case <-ctxDone:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("hybridtier: sweep canceled after %d/%d cells: %w",
			done.Load(), len(idxs), err)
	}
	return results, nil
}
