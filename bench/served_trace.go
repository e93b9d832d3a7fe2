package main

import (
	"encoding/json"
	"fmt"
	"time"

	hybridtier "repro"
	"repro/internal/stats"
)

// Traced-run lengths for the served workloads. Every plainEvery-th
// iteration (or block) runs without spans or per-request timing; their mean
// is the base of bench.trace_overhead_ratio. Plain and traced ones
// alternate because a daemon slows as its job list and journal grow, and
// that drift must not read as tracing overhead. The warm percentiles need
// depth: p99.9 with ten samples beyond it takes 10k fetches, and fetches are
// 40% of the mix.
const (
	coldIters, coldPlainEvery  = 4, 2
	warmBlocks, warmPlainEvery = 17, 4
)

func (z sizing) tracedLength(n, plainEvery int) (int, int) {
	if z.smoke {
		return 2, 2
	}
	return n, plainEvery
}

// processLayers fills the process-level figures of a topology: CPU per
// role, peak resident set summed over the daemons, fleet dispatch counts, and the store's size on disk.
func processLayers(t *topology, cellsDone int, ly layers) {
	for i, s := range t.servers {
		cpu, hwm := procFigures(s.pid)
		ly["daemon.cpu_s"] += cpu
		ly["daemon.peak_rss_mb"] += hwm
		if i == 0 {
			ly["fabric.coord_cpu_s"] = cpu
		} else {
			ly["fabric.worker_cpu_s"] += cpu
		}
		if s.pid == 0 {
			break // in-process daemons share one process
		}
	}
	ly["daemon.store_mb"] = dirMB(t.base)
	ly["fabric.cells_local"] = float64(cellsDone)
	if st, err := fleetStatus(t.url()); err == nil && len(st.Workers) > 0 {
		var total, most int64
		for _, wk := range st.Workers {
			total += wk.CommittedCells
			most = max(most, wk.CommittedCells)
		}
		ly["fabric.cells_dispatched"] = float64(total)
		ly["fabric.cells_local"] = float64(cellsDone) - float64(total)
		if total > 0 {
			ly["fabric.worker_share_max"] = float64(most) / float64(total)
		}
	}
}

// traceCold is the traced run of daemon_cold and fleet_cold: a few
// iterations without spans for the overhead base, then the traced ones with
// client spans and the daemon's own job timestamps, a restart over the same
// stores, and the in-process drives of the layers behind the socket.
func (rc *runCtx) traceCold(w *workload, rec *recorder, m *measured) (layers, error) {
	ly := layers{}
	topo, err := rc.startTopology(w, 0)
	if err != nil {
		return nil, err
	}
	defer func() { topo.stop() }()
	ly["daemon.start_ms"] = ms(topo.start)

	c := newClient(topo.url())
	defer c.close()
	iters, plainEvery := rc.z.tracedLength(coldIters, coldPlainEvery)
	var plainWalls, tracedWalls []float64 // seconds per iteration
	var submit, lag, fetch, queue, run []float64
	var firstSpec hybridtier.SweepSpec
	var firstData []byte
	cellsDone := 0
	for it := 0; it < iters; it++ {
		r := rec
		if it%plainEvery == 0 {
			r = nil
		}
		begin := time.Now()
		for _, j := range w.jobs(rc.z, rc.seed, it) {
			m.attempted++
			data, tm, err := c.runJob(rc.ctx, r, j.name, specJSON(j))
			if err != nil {
				// Behind a dead or hung daemon every later step would wait
				// out its deadline too; the run has failed already.
				m.fail("%s: %v (run abandoned)", j.name, err)
				ly["client.http_errors"]++
				return ly, nil
			}
			cellsDone += j.cells()
			if err := checkShape(j, data); err != nil {
				m.fail("%v", err)
			} else if err := rc.golden.check(j.name, data); err != nil {
				m.fail("%v", err)
			}
			if firstData == nil {
				firstSpec, firstData = j.spec, data
			}
			if r != nil {
				submit, fetch = append(submit, ms(tm.submit)), append(fetch, ms(tm.fetch))
				lag, queue, run = append(lag, ms(tm.streamLag)), append(queue, ms(tm.queueWait)), append(run, ms(tm.run))
			}
		}
		if r == nil {
			plainWalls = append(plainWalls, time.Since(begin).Seconds())
		} else {
			tracedWalls = append(tracedWalls, time.Since(begin).Seconds())
		}
	}
	ly["client.submit_ms"], ly["client.fetch_ms"] = median(submit), median(fetch)
	ly["client.stream_lag_ms"] = median(lag)
	ly["jobs.queue_wait_ms"], ly["jobs.run_ms"] = median(queue), median(run)
	if base := median(plainWalls); base > 0 {
		ly["bench.trace_overhead_ratio"] = median(tracedWalls) / base
	}
	processLayers(topo, cellsDone, ly)

	// Restart on the same stores: journal replay and cache re-indexing.
	base := topo.base
	if err := topo.stop(); err != nil {
		m.fail("%v", err)
	}
	m.attempted++
	if topo, err = rc.startTopologyIn(w, 0, base); err != nil {
		m.fail("restart: %v", err)
		return ly, nil
	}
	ly["daemon.restart_ms"] = ms(topo.start)
	return ly, rc.driveBehindSocket(firstSpec, firstData, ly)
}

// driveBehindSocket runs the jobs, service and facade drives on one served
// result.
func (rc *runCtx) driveBehindSocket(spec hybridtier.SweepSpec, result []byte, ly layers) error {
	if result == nil {
		return fmt.Errorf("no served result to drive the serving layers with")
	}
	var cells []hybridtier.CellResult
	if err := json.Unmarshal(result, &cells); err != nil {
		return err
	}
	if err := rc.driveServing(spec, result, ly); err != nil {
		return err
	}
	return driveFacade(spec, cells, ly)
}

// traceWarm is the traced run of daemon_warm: blocks without per-request
// timing for the overhead base, then enough timed blocks for the tail
// percentiles, then the restart and the disk-tier fetches.
func (rc *runCtx) traceWarm(w *workload, rec *recorder, m *measured) (layers, error) {
	ly := layers{}
	ws, _, err := rc.setupWarm(w)
	if err != nil {
		return nil, err
	}
	defer func() { ws.topo.stop() }()
	ly["daemon.start_ms"] = ms(ws.topo.start)

	clients := make([]*client, warmConns)
	for i := range clients {
		clients[i] = newClient(ws.topo.url())
		defer clients[i].close()
	}
	seq := newWarmSequence(rc.seed, len(ws.specs))
	blocks, plainEvery := rc.z.tracedLength(warmBlocks, warmPlainEvery)
	lat := &warmLatencies{}
	var plainWalls, tracedWalls []float64 // seconds per block
	var tracedWall time.Duration
	requests := 0
	for b := 0; b < blocks; b++ {
		block := seq.block(rc.z.blockRequests())
		l := lat
		if b%plainEvery == plainEvery-1 {
			l = nil
		}
		begin := time.Now()
		took, errs := runBlock(rc.ctx, clients, ws.specs, block, l)
		m.attempted += len(block)
		for _, err := range errs {
			m.fail("%v (run abandoned)", err)
			ly["client.http_errors"]++
		}
		if len(errs) > 0 {
			return ly, nil
		}
		if l == nil {
			plainWalls = append(plainWalls, took.Seconds())
			continue
		}
		tracedWall += took
		tracedWalls = append(tracedWalls, took.Seconds())
		requests += len(block) - len(errs)
		rec.add("client.block", -1, fmt.Sprintf("warm/block/%d", b), begin, begin.Add(took))
	}
	if tracedWall > 0 {
		ly["client.warm_rps"] = float64(requests) / tracedWall.Seconds()
	}
	if base := median(plainWalls); base > 0 {
		// Medians: one stalled fsync in a 0.5 s block is not tracing overhead.
		ly["bench.trace_overhead_ratio"] = median(tracedWalls) / base
	}
	for k, name := range reqNames {
		ly["client."+name+"_p50_us"] = median(lat.byKd[k])
		ly["client."+name+"_p99_us"] = stats.Percentile(lat.byKd[k], 99)
	}
	ly["client.fetch_hit_p999_us"] = stats.Percentile(lat.byKd[reqFetch], 99.9)
	processLayers(ws.topo, 0, ly)

	restart, diskUs := rc.restartAndFetch(ws, m)
	ly["daemon.restart_ms"] = ms(restart)
	ly["client.fetch_disk_p50_us"] = median(diskUs)
	return ly, rc.driveBehindSocket(ws.specs[0].job.spec, ws.specs[0].want, ly)
}
