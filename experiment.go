package hybridtier

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// Experiment is one configured simulation: a workload, a policy, and a
// capacity split. Build it with NewExperiment and functional options, then
// execute it with Run. An Experiment is immutable after construction and
// cheap to copy; Sweep stamps many cells out of one option set.
type Experiment struct {
	policy   PolicyName
	workload Workload
	wname    string
	wfunc    func(seed uint64) (Workload, error)
	params   WorkloadParams
	ratio    int
	ops      int64
	opsSet   bool
	huge     bool
	cache    bool
	seed     uint64
	tracker  string
	windowNs int64
	recordTo string
	// scratch supplies reusable simulation buffers; Sweep workers set it
	// directly so cells on one worker recycle allocations.
	scratch *sim.Scratch
}

// Option configures an Experiment.
type Option func(*Experiment)

// WithPolicy selects the tiering system by registry name
// (default PolicyHybridTier).
func WithPolicy(name PolicyName) Option {
	return func(e *Experiment) { e.policy = name }
}

// WithWorkload supplies a concrete workload instance. Workload sources are
// stateful and not safe for concurrent use, so sweeps reject this option;
// use WithWorkloadName or WithWorkloadFunc there.
func WithWorkload(w Workload) Option {
	return func(e *Experiment) { e.workload = w }
}

// WithWorkloadName resolves the workload through the workload registry at
// Run time, sized by WithWorkloadParams and seeded per run — the form
// Sweep needs to build an independent instance per cell.
func WithWorkloadName(name string) Option {
	return func(e *Experiment) { e.wname = name }
}

// WithWorkloadFunc supplies a workload factory invoked with the run's seed,
// for workloads that need configuration beyond WorkloadParams.
func WithWorkloadFunc(fn func(seed uint64) (Workload, error)) Option {
	return func(e *Experiment) { e.wfunc = fn }
}

// WithWorkloadParams sizes a WithWorkloadName workload. The Seed field is
// overridden by the run's seed.
func WithWorkloadParams(p WorkloadParams) Option {
	return func(e *Experiment) { e.params = p }
}

// WithTraceFile replays a recorded trace (docs/TRACE_FORMAT.md) as the
// workload. The trace header supplies the workload name and page space,
// and the recorded op stream is replayed literally, so replaying a capture
// under the recorded policy/ratio/seed reproduces the live run's results
// byte for byte. Shorthand for WithWorkloadName("trace:" + path); sweeps
// open an independent reader per cell. When WithOps is unset the trace is
// scanned once up front to learn the recorded length (an extra decode
// pass a streaming format cannot avoid); pass WithOps to skip it.
func WithTraceFile(path string) Option {
	return func(e *Experiment) { e.wname = registry.TraceScheme + path }
}

// WithRecordTo captures the run's op stream to a trace file at path (gzip
// body framing when path ends in ".gz") while the simulation runs. The
// recording tee is non-intrusive — results are identical to an unrecorded
// run — and the file, once closed, replays via WithTraceFile. Multi-cell
// sweeps reject this option (concurrent cells cannot share one output
// file); a single-cell sweep records like a plain experiment.
func WithRecordTo(path string) Option {
	return func(e *Experiment) { e.recordTo = path }
}

// WithRatio sets N in a 1:N fast:slow capacity split (default 8).
func WithRatio(n int) Option {
	return func(e *Experiment) { e.ratio = n }
}

// WithOps sets the number of operations to simulate. When unset the
// default is 1,000,000 — except for trace-file workloads, which default
// to the recorded op count so a replay covers exactly the capture.
func WithOps(n int64) Option {
	return func(e *Experiment) { e.ops, e.opsSet = n, n > 0 }
}

// WithHugePages switches to 2 MB tracking/migration granularity (§4.4).
func WithHugePages(on bool) Option {
	return func(e *Experiment) { e.huge = on }
}

// WithCacheModel enables the full application+tiering CPU-cache model used
// by the cache-overhead experiments (slower).
func WithCacheModel(on bool) Option {
	return func(e *Experiment) { e.cache = on }
}

// WithSeed makes the run deterministic (default 1). The seed builds the
// workload instance; the simulator itself draws no randomness.
func WithSeed(s uint64) Option {
	return func(e *Experiment) { e.seed = s }
}

// WithWindowNs sets the latency time-series window (default 100 virtual
// ms); adaptation studies use finer windows to resolve re-convergence.
func WithWindowNs(ns int64) Option {
	return func(e *Experiment) { e.windowNs = ns }
}

// NewExperiment builds an experiment from options. Unset or zero-valued
// knobs fall back to the defaults: HybridTier at a 1:8 split, one million
// ops, seed 1.
func NewExperiment(opts ...Option) *Experiment {
	e := &Experiment{policy: PolicyHybridTier}
	for _, o := range opts {
		o(e)
	}
	if e.policy == "" {
		e.policy = PolicyHybridTier
	}
	if e.ratio <= 0 {
		e.ratio = 8
	}
	if e.ops <= 0 {
		e.ops = 1_000_000
	}
	if e.seed == 0 {
		e.seed = 1
	}
	return e
}

// buildWorkload materializes the experiment's workload for one run. owned
// reports that the instance was built here (not supplied by the caller),
// so Run may close it when it holds resources, as trace replays do.
func (e *Experiment) buildWorkload() (w Workload, owned bool, err error) {
	switch {
	case e.workload != nil:
		return e.workload, false, nil
	case e.wfunc != nil:
		w, err = e.wfunc(e.seed)
		return w, true, err
	case e.wname != "":
		p := e.params
		p.Seed = e.seed
		w, err = registry.Workloads.New(e.wname, p)
		return w, true, err
	default:
		return nil, false, fmt.Errorf("hybridtier: experiment needs a workload " +
			"(WithWorkload, WithWorkloadName, WithWorkloadFunc, or WithTraceFile)")
	}
}

// samePath reports whether a and b name the same file: by inode when both
// exist, else by cleaned absolute path.
func samePath(a, b string) bool {
	if ai, err := os.Stat(a); err == nil {
		if bi, err := os.Stat(b); err == nil {
			return os.SameFile(ai, bi)
		}
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

// Run executes the experiment. Cancelling ctx stops the simulation loop
// promptly; the returned error then wraps the context error (and exposes
// the completed op count via *sim.CanceledError).
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	w, owned, err := e.buildWorkload()
	if err != nil {
		return nil, err
	}
	if owned {
		if c, ok := w.(io.Closer); ok {
			defer c.Close()
		}
	}
	ops := e.ops
	if r, ok := w.(tracefile.Replay); ok && !e.opsSet {
		// Replay exactly what was recorded unless the caller chose a
		// length: the 1M-op default would silently wrap a shorter capture
		// and break the byte-identical reproduction the replay promises.
		info, ierr := tracefile.Stat(r.Path())
		if ierr != nil {
			return nil, ierr
		}
		if info.Ops == 0 {
			return nil, fmt.Errorf("hybridtier: trace %s has no op records", r.Path())
		}
		ops = info.Ops
	}
	// The policy name may carry a "@tracker" qualifier, and the policy's
	// registry entry may declare a default tracker; resolve both against
	// any WithTracker choice before constructing either side.
	bare, trackerKind, err := resolveTracker(string(e.policy), e.tracker, "experiment")
	if err != nil {
		return nil, err
	}
	polPages, polFast := tierCapacity(w.NumPages(), e.ratio, e.huge)
	p, alloc, err := NewPolicy(PolicyName(bare), polPages, polFast, e.huge)
	if err != nil {
		return nil, err
	}
	var tw *tracefile.Writer
	if e.recordTo != "" {
		// Creating the output truncates it, so recording over the very
		// trace being replayed would destroy the input mid-read.
		if r, ok := w.(tracefile.Replay); ok && samePath(r.Path(), e.recordTo) {
			return nil, fmt.Errorf("hybridtier: WithRecordTo(%q) would overwrite "+
				"the trace being replayed", e.recordTo)
		}
		// The recorder tees the raw 4 KB-granularity op stream; the
		// simulator's huge-page coalescing happens downstream of it, so a
		// capture replays under either granularity.
		tw, err = tracefile.Create(e.recordTo, tracefile.MetaOf(w, e.seed))
		if err != nil {
			return nil, err
		}
		w = tracefile.NewRecorder(w, tw)
	}
	cfg := sim.DefaultConfig(w, p, polFast)
	cfg.Ops = ops
	cfg.Alloc = alloc
	cfg.Tracker.Kind = trackerKind
	cfg.AppCacheModel = e.cache
	if e.huge {
		cfg.PageBytes = mem.HugePageBytes
	}
	if e.windowNs > 0 {
		cfg.WindowNs = e.windowNs
	}
	cfg.Ctx = ctx
	cfg.Scratch = e.scratch
	res, err := sim.Run(cfg)
	if err == nil {
		// Streaming sources (trace replay, recording tees) cannot report
		// failures through NextOp; surface their latched error here so a
		// short or corrupt trace cannot masquerade as a clean result.
		// Checked before the writer closes: the stream error is the root
		// cause of any knock-on write failure the writer latched.
		if es, ok := w.(interface{ Err() error }); ok && es.Err() != nil {
			res, err = nil, fmt.Errorf("hybridtier: workload stream: %w", es.Err())
		}
	}
	if tw != nil {
		if err != nil {
			// The run failed or was canceled mid-capture. Closing without
			// the end record leaves the partial trace detectably
			// truncated — a clean-looking shorter capture could later
			// replay as if it were the whole run.
			tw.Abort()
		} else if cerr := tw.Close(); cerr != nil {
			// Closing writes the trace's end record; without it the
			// capture reads back as truncated, so a close failure fails
			// the run.
			res, err = nil, cerr
		}
	}
	return res, err
}
