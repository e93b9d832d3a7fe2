package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	hybridtier "repro"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// layers holds one traced run's per-layer metrics by name. A layer the
// workload does not exercise keeps its zero.
type layers map[string]float64

// maxSharedStreamAccesses mirrors the facade's unexported bound on a shared
// stream (sweep.go), so the traced run shares exactly when Sweep.Run does.
const maxSharedStreamAccesses = 32 << 20

// policyMetric is the per-policy busy-time metric name: '@' of a qualified
// name is written '-'.
func policyMetric(name policyName) string {
	return "policy." + strings.ReplaceAll(string(name), "@", "-") + ".busy_s"
}

// cellSource builds the workload a traced cell of j runs on, timed by gt.
func cellSource(j job, canon hybridtier.SweepSpec, gt *genTimes) func(seed uint64) (hybridtier.Workload, error) {
	return func(seed uint64) (hybridtier.Workload, error) {
		if j.replay {
			r, err := tracefile.Open(j.path)
			if err != nil {
				return nil, err
			}
			return wrapReplay(r, gt), nil
		}
		w, err := buildSource(canon, seed)
		if err != nil {
			return nil, err
		}
		return wrapSource(w, gt), nil
	}
}

// traceLocal is the traced run of an in-process workload. It runs one
// iteration's cells single-threaded through NewExperiment(...).Run, each
// twice: plain, then behind the timing shims, so every cell yields its
// budget (gen + policy + sim self = cell span) and the shims' overhead
// (traced wall / plain wall). Cells of a sweep the facade would serve from
// one shared stream get that stream here too, packed once under a
// trace.pack span and replayed through unwrapped forks, so the packed-view
// loop is what gets timed. Every traced Result must marshal to the same
// bytes as the plain cell's and as the parallel Sweep.Run's.
func (rc *runCtx) traceLocal(w *workload, rec *recorder, m *measured) (layers, error) {
	registerTracedPolicies()
	js, sweeps, err := rc.prepareLocal(w)
	if err != nil {
		return nil, err
	}
	ly := layers{}
	var cellMs []float64
	// packSpan sums the pack spans: what a parallel run spends before its
	// cells start.
	var plainWall, tracedWall, parallelWall, packSpan time.Duration
	streams, sharedCells := 0, 0

	// The parallel runs come first: they are the reference bytes, the wall
	// the scheduler-idle estimate is taken against, and — read before the
	// single-threaded passes and drives inflate it — the peak resident set of
	// a process that has run the job list twice (set-up's pass and this one).
	refs := make([][]hybridtier.CellResult, len(js))
	for ji, j := range js {
		t0 := time.Now()
		if refs[ji], err = sweeps[ji].Run(rc.ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		parallelWall += time.Since(t0)
	}
	_, ly["bench.peak_rss_mb"] = procFigures(0)

	for ji, j := range js {
		ref := refs[ji]
		canon := j.spec
		if !j.replay {
			if canon, err = j.spec.Canonical(); err != nil {
				return nil, err
			}
		}
		cells := sweeps[ji].Cells()
		base := sweeps[ji].Base

		// Share a stream exactly when Sweep.sharedStream would.
		var shared *trace.ReplaySource
		if !j.replay && len(cells) >= 2 && len(canon.Seeds) == 1 {
			gt := &genTimes{}
			src, err := cellSource(j, canon, gt)(cells[0].Seed)
			if err != nil {
				return nil, err
			}
			if cf, ok := src.(trace.ClockFree); ok && cf.ClockFree() {
				p0 := time.Now()
				shared = trace.NewReplaySource(src, canon.Ops, maxSharedStreamAccesses, nil)
				p1 := time.Now()
				if shared != nil {
					id := rec.add("trace.pack", -1, j.name, p0, p1)
					rec.addAgg("gen.next_batch", id, j.name, 0, gt.busy, gt.calls)
					packSpan += p1.Sub(p0)
					ly["gen.busy_s"] += gt.busy.Seconds()
					ly["gen.accesses"] += float64(gt.accesses)
					ly["trace.packed_mb"] += float64(gt.accesses*4+(canon.Ops+1)*4) / (1 << 20)
					streams++
					sharedCells += len(cells)
				}
			}
		}

		for ci, c := range cells {
			m.attempted++
			coords := []hybridtier.Option{hybridtier.WithRatio(c.Ratio), hybridtier.WithSeed(c.Seed)}
			withStream := func(opts []hybridtier.Option) []hybridtier.Option {
				if shared != nil {
					return append(opts, hybridtier.WithWorkload(shared.Fork()))
				}
				return opts
			}

			opts := append(append([]hybridtier.Option{}, base...), coords...)
			opts = withStream(append(opts, hybridtier.WithPolicy(c.Policy)))
			t0 := time.Now()
			plain, err := hybridtier.NewExperiment(opts...).Run(rc.ctx)
			plainDur := time.Since(t0)
			if err != nil {
				m.fail("%s cell %d: %v", j.name, ci, err)
				continue
			}

			pt, gt := &policyTimes{}, &genTimes{}
			tracedSink.current = pt
			opts = append(append([]hybridtier.Option{}, base...), coords...)
			opts = append(opts, hybridtier.WithPolicy(tracedPolicyName(c.Policy)))
			if shared == nil {
				opts = append(opts, hybridtier.WithWorkloadFunc(cellSource(j, canon, gt)))
			}
			opts = withStream(opts)
			t0 = time.Now()
			traced, err := hybridtier.NewExperiment(opts...).Run(rc.ctx)
			t1 := time.Now()
			if err != nil {
				m.fail("%s cell %d (traced): %v", j.name, ci, err)
				continue
			}

			id := rec.add("sim.cell", -1, j.name, t0, t1)
			genSpan := "gen.next_batch"
			if j.replay {
				genSpan = "tracefile.decode"
			}
			off := rec.addAgg(genSpan, id, j.name, 0, gt.busy, gt.calls)
			off = rec.addAgg("policy.on_samples", id, j.name, off, pt.onSamples, pt.sampleCalls)
			off = rec.addAgg("policy.tick", id, j.name, off, pt.tick, pt.ticks)
			rec.addAgg("policy.on_fault", id, j.name, off, pt.onFault, pt.faults)

			cell := t1.Sub(t0)
			plainWall += plainDur
			tracedWall += cell
			cellMs = append(cellMs, cell.Seconds()*1e3)
			ly["sim.cells"]++
			ly["sim.ops"] += float64(traced.Ops)
			ly["sim.accesses"] += float64(traced.Pebs.Accesses)
			ly["sim.run_s"] += cell.Seconds()
			ly["gen.busy_s"] += gt.busy.Seconds()
			ly["gen.accesses"] += float64(gt.accesses)
			ly["policy.on_samples_s"] += pt.onSamples.Seconds()
			ly["policy.tick_s"] += pt.tick.Seconds()
			ly["policy.on_fault_s"] += pt.onFault.Seconds()
			ly["policy.calls"] += float64(pt.sampleCalls + pt.ticks + pt.faults)
			ly["policy.samples"] += float64(pt.samples)
			ly[policyMetric(c.Policy)] += pt.busy().Seconds()
			ly["policy.promotions"] += float64(traced.Mem.Promotions)
			ly["policy.demotions"] += float64(traced.Mem.Demotions)
			ly["policy.faults"] += float64(traced.Faults)
			ly["tracker.samples"] += float64(traced.Pebs.Sampled)
			ly["tracker.dropped"] += float64(traced.Pebs.Dropped)

			// Byte identity: the shims must not have moved a single
			// statistic, and neither may single-threading.
			tb, _ := json.Marshal(traced)
			pb, _ := json.Marshal(plain)
			rb, _ := json.Marshal(ref[ci].Result)
			if !bytes.Equal(tb, pb) {
				m.fail("%s cell %d: traced Result differs from the untraced cell's", j.name, ci)
			}
			if !bytes.Equal(pb, rb) {
				m.fail("%s cell %d: single-threaded Result differs from Sweep.Run's", j.name, ci)
			}
		}
	}

	// Self times come from the spans: a cell's is what its gen and policy
	// children leave uncovered, a pack span's what generation does.
	self := selfByName(rec.all())
	ly["sim.self_s"], ly["trace.pack_s"] = self["sim.cell"], self["trace.pack"]
	if streams > 0 {
		ly["trace.cells_per_stream"] = float64(sharedCells) / float64(streams)
	}
	if ly["gen.accesses"] > 0 {
		ly["gen.ns_per_access"] = ly["gen.busy_s"] * 1e9 / ly["gen.accesses"]
	}
	if ly["sim.accesses"] > 0 {
		ly["sim.self_ns_per_access"] = ly["sim.self_s"] * 1e9 / ly["sim.accesses"]
	}
	if s := ly["policy.samples"]; s > 0 {
		ly["policy.ns_per_sample"] = ly["policy.on_samples_s"] * 1e9 / s
	}
	delete(ly, "policy.samples")
	if s := ly["tracker.samples"]; s > 0 {
		ly["tracker.taken_ratio"] = (s - ly["tracker.dropped"]) / s
	}
	ly["sim.cell_p50_ms"] = median(cellMs)
	ly["sim.cell_max_ms"] = stats.Percentile(cellMs, 100)
	// What the parallel run's workers did not spend in cells or packing:
	// idle tails plus whatever running two cells at once costs each of them.
	workers := float64(runtime.GOMAXPROCS(0))
	ly["facade.sched_idle_s"] = max(0, workers*parallelWall.Seconds()-plainWall.Seconds()-packSpan.Seconds())
	if plainWall > 0 {
		ly["bench.trace_overhead_ratio"] = tracedWall.Seconds() / plainWall.Seconds()
	}

	if err := rc.driveSim(js[0], ly); err != nil {
		return nil, err
	}
	return ly, driveFacade(js[0].spec, refs[0], ly)
}
