package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// topology is the set of daemons one workload talks to: a single daemon, or
// a coordinator (first) and its workers.
type topology struct {
	servers []*server
	base    string // directory holding every store; survives a restart
	start   time.Duration
}

func (t *topology) url() string { return t.servers[0].url }

// stop shuts every daemon down, workers first so the coordinator never
// sees them die mid-sweep.
func (t *topology) stop() error {
	var first error
	for i := len(t.servers) - 1; i >= 0; i-- {
		if err := t.servers[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

const fleetWorkers = 2

// startTopology launches fresh daemons on fresh stores under a new
// directory and returns once they are healthy (and, for a fleet, once the
// coordinator sees both workers live). The returned duration is a user's
// set-up wait.
func (rc *runCtx) startTopology(w *workload, cacheMB int) (*topology, error) {
	base, err := os.MkdirTemp(rc.workDir, w.name+"-*")
	if err != nil {
		return nil, err
	}
	return rc.startTopologyIn(w, cacheMB, base)
}

// startTopologyIn is startTopology over existing stores: the restart path.
func (rc *runCtx) startTopologyIn(w *workload, cacheMB int, base string) (*topology, error) {
	begin := time.Now()
	t := &topology{base: base}
	n := 1
	if w.fleet {
		n += fleetWorkers
	}
	for i := 0; i < n; i++ {
		spec := daemonSpec{cacheDir: filepath.Join(base, fmt.Sprintf("store%d", i)), cacheMB: cacheMB}
		if i > 0 {
			spec.join = t.url()
		}
		s, err := rc.launch.start(spec)
		if err != nil {
			t.stop()
			return nil, fmt.Errorf("%s: daemon %d: %w", w.name, i, err)
		}
		t.servers = append(t.servers, s)
	}
	if w.fleet {
		deadline := time.Now().Add(startTimeout)
		for {
			st, err := fleetStatus(t.url())
			if err == nil && st.Live == fleetWorkers {
				break
			}
			if time.Now().After(deadline) {
				t.stop()
				return nil, fmt.Errorf("%s: coordinator saw %d of %d workers within %s (%v)", w.name, st.Live, fleetWorkers, startTimeout, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	t.start = time.Since(begin)
	return t, nil
}

// alive reports whether every child daemon is still running.
func (t *topology) alive() bool {
	for _, s := range t.servers {
		if s.exited == nil {
			continue
		}
		select {
		case <-s.exited:
			return false
		default:
		}
	}
	return true
}

// specJSON is the request body a client POSTs for j.
func specJSON(j job) []byte {
	data, err := json.Marshal(j.spec)
	if err != nil {
		panic(err) // SweepSpec holds only plain data
	}
	return data
}

// runCold measures daemon_cold and fleet_cold: one client submits
// never-cached specs and waits for their bytes.
func (rc *runCtx) runCold(w *workload) (*measured, error) {
	m := &measured{}
	var topo *topology
	for rep := 0; rep < rc.setupReps(w); rep++ {
		if topo != nil {
			if err := topo.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if topo, err = rc.startTopology(w, 0); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, topo.start)
	}
	defer topo.stop()

	c := newClient(topo.url())
	defer c.close()
	type served struct {
		iter int
		job  job
		data []byte
	}
	var got []served
	begin := time.Now()
measure:
	for it := 0; !rc.iterationsDone(it, time.Since(begin)); it++ {
		itBegin := time.Now()
		for _, j := range w.jobs(rc.z, rc.seed, it) {
			m.attempted++
			data, _, err := c.runJob(rc.ctx, nil, j.name, specJSON(j))
			if err != nil {
				// A dead or hung daemon fails every later job too, each after
				// its full deadline; one failure already fails the run.
				m.fail("%s: %v (run abandoned)", j.name, err)
				break measure
			}
			got = append(got, served{it, j, data})
		}
		m.iters = append(m.iters, time.Since(itBegin))
	}
	for _, j := range w.jobs(rc.z, rc.seed, 0) {
		m.cells += j.cells()
		m.ops += j.ops()
	}
	if !topo.alive() {
		m.fail("%s: a daemon died", w.name)
	}
	if err := topo.stop(); err != nil {
		m.fail("%v", err)
	}

	// Verification, off the clock. Every result: shape and golden hash.
	// Iteration 0's: byte identity with what an in-process sweep marshals.
	for _, s := range got {
		if err := checkShape(s.job, s.data); err != nil {
			m.fail("%v", err)
			continue
		}
		if err := rc.golden.check(s.job.name, s.data); err != nil {
			m.fail("%v", err)
		}
		if s.iter != 0 {
			continue
		}
		want, _, err := runInProcess(rc.ctx, s.job)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(s.data, want) {
			m.fail("%s: served bytes differ from the in-process sweep's", s.job.name)
		}
	}
	return m, nil
}

// request kinds of the warm mix.
const (
	reqSubmit = iota // POST /jobs of a cached spec: 200, cache_hit
	reqFetch         // GET /results/{hash}: 200
	reqCond          // GET with If-None-Match: 304
	reqKinds
)

var reqNames = [reqKinds]string{"submit_hit", "fetch_hit", "fetch_304"}

type request struct {
	kind int
	spec int // index into the pre-populated specs
}

// warmSequence is the seeded request stream: Zipf(1.0) popularity over the
// specs, 20% submits, 40% fetches, 40% conditional fetches. The same seed
// yields the same sequence; block k is requests [k*n, (k+1)*n).
type warmSequence struct {
	rng *rand.Rand
	cdf []float64
}

func newWarmSequence(seed uint64, specs int) *warmSequence {
	cdf := make([]float64, specs)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &warmSequence{rng: rand.New(rand.NewPCG(seed, 0x68746965727369)), cdf: cdf}
}

func (s *warmSequence) block(n int) []request {
	out := make([]request, n)
	for i := range out {
		u := s.rng.Float64()
		kind := reqCond
		switch {
		case u < 0.2:
			kind = reqSubmit
		case u < 0.6:
			kind = reqFetch
		}
		out[i] = request{kind: kind, spec: sort.SearchFloat64s(s.cdf, s.rng.Float64())}
	}
	return out
}

// warmSpec is one pre-populated result as the client knows it.
type warmSpec struct {
	job  job
	body []byte // POST body
	hash string
	etag string
	want []byte // the result bytes every later fetch must equal
}

const warmConns = 2

// prepopulate submits every spec through warmConns connections and fetches
// each result once.
func (rc *runCtx) prepopulate(url string, js []job) ([]warmSpec, error) {
	specs := make([]warmSpec, len(js))
	errs := make([]error, warmConns)
	var wg sync.WaitGroup
	for conn := 0; conn < warmConns; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for i := conn; i < len(js); i += warmConns {
				body := specJSON(js[i])
				data, _, err := c.runJob(rc.ctx, nil, js[i].name, body)
				if err != nil {
					errs[conn] = fmt.Errorf("%s: %w", js[i].name, err)
					return
				}
				hash, err := js[i].spec.Hash()
				if err != nil {
					errs[conn] = err
					return
				}
				specs[i] = warmSpec{job: js[i], body: body, hash: hash, etag: `"` + hash + `"`, want: data}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// issue performs one warm request and checks the reply. The latency is the
// caller's to take.
func issue(ctx context.Context, c *client, specs []warmSpec, r request) error {
	s := &specs[r.spec]
	switch r.kind {
	case reqSubmit:
		info, status, err := c.submit(ctx, s.body)
		switch {
		case err != nil:
			return err
		case status != http.StatusOK || !info.CacheHit || info.Hash != s.hash:
			return fmt.Errorf("%s: submit of a cached spec: status %d cache_hit=%v", s.job.name, status, info.CacheHit)
		}
	case reqFetch:
		data, status, err := c.fetch(ctx, s.hash, "")
		switch {
		case err != nil:
			return err
		case status != http.StatusOK || !bytes.Equal(data, s.want):
			return fmt.Errorf("%s: fetch: status %d, %d bytes (want %d)", s.job.name, status, len(data), len(s.want))
		}
	case reqCond:
		_, status, err := c.fetch(ctx, s.hash, s.etag)
		switch {
		case err != nil:
			return err
		case status != http.StatusNotModified:
			return fmt.Errorf("%s: conditional fetch: status %d, want 304", s.job.name, status)
		}
	}
	return nil
}

// warmLatencies collects per-kind request latencies in microseconds; nil
// when not tracing.
type warmLatencies struct {
	mu   sync.Mutex
	byKd [reqKinds][]float64
}

// runBlock plays one block over warmConns connections (request i goes to
// connection i mod warmConns) and returns its wall time and failures. A
// connection stops at its first failure: behind a dead or hung daemon every
// later request would fail too, each after its full deadline.
func runBlock(ctx context.Context, clients []*client, specs []warmSpec, block []request, lat *warmLatencies) (time.Duration, []error) {
	begin := time.Now()
	errs := make([][]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local [reqKinds][]float64
			for i := ci; i < len(block); i += len(clients) {
				t0 := time.Now()
				if err := issue(ctx, c, specs, block[i]); err != nil {
					errs[ci] = append(errs[ci], err)
					break
				}
				if lat != nil {
					local[block[i].kind] = append(local[block[i].kind], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
			if lat != nil {
				lat.mu.Lock()
				for k := range local {
					lat.byKd[k] = append(lat.byKd[k], local[k]...)
				}
				lat.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var all []error
	for _, e := range errs {
		all = append(all, e...)
	}
	return time.Since(begin), all
}

// warmState is a daemon_warm run between phases.
type warmState struct {
	w     *workload
	topo  *topology
	specs []warmSpec
}

// warmCacheMB is daemon_warm's memory tier: smaller than the results it
// serves, so the tail of the popularity curve reads the disk tier.
const warmCacheMB = 1

// setupWarm starts the daemon and pre-populates its store.
func (rc *runCtx) setupWarm(w *workload) (*warmState, time.Duration, error) {
	begin := time.Now()
	topo, err := rc.startTopology(w, warmCacheMB)
	if err != nil {
		return nil, 0, err
	}
	specs, err := rc.prepopulate(topo.url(), w.jobs(rc.z, rc.seed, 0))
	if err != nil {
		topo.stop()
		return nil, 0, err
	}
	return &warmState{w: w, topo: topo, specs: specs}, time.Since(begin), nil
}

// restartAndFetch is phase 2: SIGTERM, restart on the same store, and GET
// every result once — each is a disk-tier read with sha verification. It
// returns the restart time and the per-fetch latencies in microseconds.
func (rc *runCtx) restartAndFetch(ws *warmState, m *measured) (restart time.Duration, fetchUs []float64) {
	if err := ws.topo.stop(); err != nil {
		m.fail("%v", err)
	}
	topo, err := rc.startTopologyIn(ws.w, warmCacheMB, ws.topo.base)
	m.attempted++
	if err != nil {
		m.fail("restart: %v", err)
		return 0, nil
	}
	ws.topo = topo
	c := newClient(topo.url())
	defer c.close()
	for i := range ws.specs {
		m.attempted++
		t0 := time.Now()
		if err := issue(rc.ctx, c, ws.specs, request{kind: reqFetch, spec: i}); err != nil {
			m.fail("after restart: %v", err)
			break
		}
		fetchUs = append(fetchUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return topo.start, fetchUs
}

// verifyWarm checks the pre-populated results themselves: shape, golden
// hashes at the default seed, and — for a sample, since each costs a
// 12-cell sweep — byte identity with an in-process run.
func (rc *runCtx) verifyWarm(ws *warmState, m *measured) error {
	for i, s := range ws.specs {
		if err := checkShape(s.job, s.want); err != nil {
			m.fail("%v", err)
			continue
		}
		if err := rc.golden.check(s.job.name, s.want); err != nil {
			m.fail("%v", err)
		}
		if i%8 != 0 {
			continue
		}
		want, _, err := runInProcess(rc.ctx, s.job)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.want, want) {
			m.fail("%s: served bytes differ from the in-process sweep's", s.job.name)
		}
	}
	return nil
}

// runWarm measures daemon_warm: a store full of results, two connections,
// and nothing but cache hits.
func (rc *runCtx) runWarm(w *workload) (*measured, error) {
	m := &measured{}
	var ws *warmState
	for rep := 0; rep < rc.setupReps(w); rep++ {
		if ws != nil {
			if err := ws.topo.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if ws, took, err = rc.setupWarm(w); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, took)
	}
	defer func() { ws.topo.stop() }()

	clients := make([]*client, warmConns)
	for i := range clients {
		clients[i] = newClient(ws.topo.url())
		defer clients[i].close()
	}
	seq := newWarmSequence(rc.seed, len(ws.specs))
	begin := time.Now()
	for it := 0; !rc.iterationsDone(it, time.Since(begin)); it++ {
		block := seq.block(rc.z.blockRequests())
		took, errs := runBlock(rc.ctx, clients, ws.specs, block, nil)
		m.iters = append(m.iters, took)
		m.attempted += len(block)
		for _, err := range errs {
			m.fail("%v", err)
		}
		if len(errs) > 0 {
			break
		}
	}
	// Every request concerns one pre-populated result: a block delivers the
	// results of this many cells and simulated ops.
	m.cells = rc.z.blockRequests() * ws.specs[0].job.cells()
	m.ops = int64(rc.z.blockRequests()) * ws.specs[0].job.ops()

	rc.restartAndFetch(ws, m)
	if err := ws.topo.stop(); err != nil {
		m.fail("%v", err)
	}
	return m, rc.verifyWarm(ws, m)
}
