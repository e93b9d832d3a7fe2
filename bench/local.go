package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	hybridtier "repro"
	"repro/internal/tracefile"
)

// measured is what one untraced run of a workload observed.
type measured struct {
	setup []time.Duration // one per set-up repeat
	iters []time.Duration // wall time of each measured iteration
	// cells and ops are the work of one iteration — the same in every
	// iteration of a workload: cells completed and the simulated ops they
	// ran (for daemon_warm: whose results were delivered).
	cells int
	ops   int64
	// attempted and failed count operations: jobs run or submitted, requests
	// issued, results verified.
	attempted int
	failed    int
	problems  []string
}

func (m *measured) fail(format string, args ...any) {
	m.failed++
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// minIters is the fewest iterations a measured phase runs, however long
// they take; the ISSUE's floor for a meaningful median.
const minIters = 8

// runCtx carries one benchmark run's settings.
type runCtx struct {
	ctx     context.Context
	root    string // repository root
	workDir string // scratch directory inside the checkout, removed at exit
	z       sizing
	seed    uint64
	seconds float64
	launch  launcher
	golden  golden // nil unless seed == defaultSeed
}

// iterationsDone reports whether the measured phase may stop after n
// iterations and elapsed time.
func (rc *runCtx) iterationsDone(n int, elapsed time.Duration) bool {
	if rc.z.smoke {
		return n >= 2
	}
	return n >= minIters && elapsed.Seconds() >= rc.seconds
}

// setupReps is how many times a run repeats w's set-up.
func (rc *runCtx) setupReps(w *workload) int {
	if rc.z.smoke {
		return 1
	}
	return w.setupReps
}

// recordTrace captures a social run to a v1 trace and converts it to the
// columnar v2 container, as a user preparing a replay would. It returns the
// v2 path.
func recordTrace(ctx context.Context, z sizing, seed uint64, dir string) (string, error) {
	v1 := filepath.Join(dir, fmt.Sprintf("social-%d.htrc", seed))
	v2 := filepath.Join(dir, fmt.Sprintf("social-%d.v2.htrc", seed))
	_, err := hybridtier.NewExperiment(
		hybridtier.WithWorkloadName("social"), hybridtier.WithWorkloadParams(*z.params()),
		hybridtier.WithOps(z.traceOps()), hybridtier.WithSeed(seed),
		hybridtier.WithRecordTo(v1),
	).Run(ctx)
	if err != nil {
		return "", fmt.Errorf("record trace: %w", err)
	}
	if err := tracefile.Convert(v1, v2, tracefile.Version2); err != nil {
		return "", fmt.Errorf("convert trace: %w", err)
	}
	return v2, nil
}

func setReplayPath(js []job, path string) {
	for i := range js {
		if js[i].replay {
			js[i].path = path
		}
	}
}

// coldStart empties the process's sync.Pools (two collections retire a
// pool's victim cache) and returns freed memory to the OS, so each set-up
// repeat pays first-run costs again: pool misses and page faults.
func coldStart() {
	runtime.GC()
	runtime.GC()
	debug.FreeOSMemory()
}

// prepareLocal is a local workload's set-up: record the trace if the
// workload replays one, build the sweeps, and run the job list once so pools
// and lazily built state are warm before the clock starts.
func (rc *runCtx) prepareLocal(w *workload) ([]job, []*hybridtier.Sweep, error) {
	js := w.jobs(rc.z, rc.seed, 0)
	if w.recordsTrace {
		path, err := recordTrace(rc.ctx, rc.z, rc.seed, rc.workDir)
		if err != nil {
			return nil, nil, err
		}
		setReplayPath(js, path)
	}
	sweeps := make([]*hybridtier.Sweep, len(js))
	for i, j := range js {
		sw, err := j.sweep()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", j.name, err)
		}
		sweeps[i] = sw
		if _, err := sw.Run(rc.ctx); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up: %w", j.name, err)
		}
	}
	return js, sweeps, nil
}

// runLocal measures an in-process workload: the researcher's view, who
// calls Sweep.Run and waits for the cells.
func (rc *runCtx) runLocal(w *workload) (*measured, error) {
	m := &measured{}
	var js []job
	var sweeps []*hybridtier.Sweep
	for rep := 0; rep < rc.setupReps(w); rep++ {
		coldStart()
		begin := time.Now()
		var err error
		if js, sweeps, err = rc.prepareLocal(w); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(begin))
	}

	first := make([][]byte, len(js)) // iteration 0's result bytes
	firstSum := make([]string, len(js))
	begin := time.Now()
	for it := 0; !rc.iterationsDone(it, time.Since(begin)); it++ {
		itBegin := time.Now()
		for i, sw := range sweeps {
			m.attempted++
			cells, err := sw.Run(rc.ctx)
			if err != nil {
				m.fail("%s: %v", js[i].name, err)
				continue
			}
			data, err := json.Marshal(cells)
			if err != nil {
				m.fail("%s: %v", js[i].name, err)
				continue
			}
			if it == 0 {
				first[i], firstSum[i] = data, sha(data)
			} else if sha(data) != firstSum[i] {
				m.fail("%s: iteration %d's bytes differ from iteration 0's", js[i].name, it)
			}
		}
		m.iters = append(m.iters, time.Since(itBegin))
	}
	for _, j := range js {
		m.cells += j.cells()
		m.ops += j.ops()
	}

	for i, j := range js {
		if first[i] == nil {
			continue // already counted as failed
		}
		if err := checkShape(j, first[i]); err != nil {
			m.fail("%v", err)
		} else if err := rc.golden.check(j.name, first[i]); err != nil {
			m.fail("%v", err)
		}
	}
	return m, nil
}
