package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	hybridtier "repro"
	"repro/internal/errfs"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// Config assembles a Coordinator.
type Config struct {
	// Transport carries every coordinator→worker message — registration
	// heartbeats, shard dispatch, cache probes each cross exactly one
	// RoundTrip (nil = http.DefaultTransport). Tests inject Chaos here.
	Transport http.RoundTripper
	// Cache is the daemon's result cache — the same one its jobs.Manager
	// serves from. Computed cells are written through to it at commit, so
	// resubmitted, overlapping and crash-resumed sweeps hit without running.
	// Nil stores nothing.
	Cache *jobs.Cache
	// Cells is the in-process executor (LocalCells): it takes everything
	// queued as one cell group whenever no live worker may — a daemon with
	// no fleet, a one-cell or corpus: sweep, a fleet that died mid-sweep —
	// and verifies cells a worker reported as failed. Cells or Local is
	// required.
	Cells GroupRunner
	// Local is kept so bench/'s in-process launcher compiles until the
	// benchmark refresh: a whole-spec runner, adapted cell by cell through
	// singletons when Cells is nil.
	Local jobs.Runner
	// HeartbeatTTL is how stale a worker's last registration may be
	// before it counts as lost (default 6s).
	HeartbeatTTL time.Duration
	// ShardTimeout bounds one shard RPC; past it the cells requeue and
	// the worker is presumed lost (default 2m).
	ShardTimeout time.Duration
	// MaxShardCells caps cells per dispatch (default 32). Small shards
	// make work-stealing and loss recovery fine-grained.
	MaxShardCells int
	// StealAfter is how long a dispatched cell may stay uncommitted
	// before idle workers re-run it speculatively (default 2s). Below it,
	// a healthy fleet never duplicates work; past it, stragglers stop
	// gating the sweep.
	StealAfter time.Duration
	// Log receives fleet events; nil silences.
	Log *log.Logger
}

// Coordinator is the cell engine every daemon runs: it resolves the cells
// of a canonical spec through one probe → claim → run → commit loop
// (cellRun) whose executors are the live workers of its fleet and the
// in-process Config.Cells. With no worker registered it is a single
// daemon's crash-safe sweep runner; a Worker holds one for its shards. Its
// Runner plugs into jobs.Manager, so the daemon's HTTP API, event streams,
// caching and drain semantics are the same at every fleet size.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*workerState
	claims  map[string]*cellClaim
}

// workerState is one registered worker.
type workerState struct {
	url       string
	lastSeen  time.Time
	inflight  int   // cells currently dispatched to it
	committed int64 // cells whose first commit came from it
}

// cellClaim is the fleet-wide in-flight dedupe entry for one cell hash:
// the first sweep to claim it executes, every later sweep subscribes.
// On commit each waiter receives the singleton result bytes; on abandon
// (the owner was canceled) the channel closes empty and waiters race to
// claim ownership themselves.
type cellClaim struct {
	waiters []chan []byte
}

// NewCoordinator builds the engine. Config.Cells (or Local) is required.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Cells == nil {
		if cfg.Local == nil {
			panic("fabric: an in-process executor (Cells) is required")
		}
		cfg.Cells = singletons(cfg.Local)
	}
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = 6 * time.Second
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Minute
	}
	if cfg.MaxShardCells <= 0 {
		cfg.MaxShardCells = 32
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = 2 * time.Second
	}
	return &Coordinator{
		cfg:     cfg,
		workers: map[string]*workerState{},
		claims:  map[string]*cellClaim{},
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log.Printf(format, args...)
	}
}

// Handler serves the coordinator's side of the fabric protocol:
//
//	POST /fabric/register      worker registration (doubles as heartbeat)
//	GET  /fabric/result/{hash} probe the coordinator's LOCAL cache tiers
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/register", c.register)
	mux.HandleFunc("GET /fabric/result/{hash}", func(w http.ResponseWriter, r *http.Request) {
		serveLocalResult(w, r, c.cfg.Cache)
	})
	return mux
}

// fabricError mirrors the service's {"error": ...} body shape.
func fabricError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// serveLocalResult answers a peer's cache probe from local tiers only —
// never the remote tier, which is what keeps mutual probes from
// recursing (jobs.Cache.SetRemote documents the contract).
func serveLocalResult(w http.ResponseWriter, r *http.Request, cache *jobs.Cache) {
	hash := r.PathValue("hash")
	if !errfs.ValidHash(hash) {
		fabricError(w, http.StatusBadRequest, "fabric: malformed result hash: want 64 lowercase hex digits")
		return
	}
	if cache == nil {
		fabricError(w, http.StatusNotFound, "fabric: no local result for hash "+hash)
		return
	}
	data, ok := cache.GetLocal(hash)
	if !ok {
		fabricError(w, http.StatusNotFound, "fabric: no local result for hash "+hash)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (c *Coordinator) register(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		fabricError(w, http.StatusBadRequest, "fabric: bad register body: "+err.Error())
		return
	}
	if req.URL == "" {
		fabricError(w, http.StatusBadRequest, "fabric: register needs a worker url")
		return
	}
	if u, err := url.Parse(req.URL); err != nil || u.Scheme == "" || u.Host == "" {
		fabricError(w, http.StatusBadRequest,
			fmt.Sprintf("fabric: register url %q is not an absolute http url", req.URL))
		return
	}
	c.mu.Lock()
	ws, known := c.workers[req.URL]
	if !known {
		ws = &workerState{url: req.URL}
		c.workers[req.URL] = ws
	}
	wasLive := known && time.Since(ws.lastSeen) <= c.cfg.HeartbeatTTL
	ws.lastSeen = time.Now()
	n := c.liveCountLocked()
	c.mu.Unlock()
	if !wasLive {
		c.logf("fabric: worker %s joined (%d live)", req.URL, n)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"workers": n})
}

func (c *Coordinator) liveCountLocked() int {
	n := 0
	for _, ws := range c.workers {
		if time.Since(ws.lastSeen) <= c.cfg.HeartbeatTTL {
			n++
		}
	}
	return n
}

// live snapshots the workers whose registration is fresh.
func (c *Coordinator) live() []*workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*workerState
	for _, ws := range c.workers {
		if time.Since(ws.lastSeen) <= c.cfg.HeartbeatTTL {
			out = append(out, ws)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

// markDead expires a worker immediately — a failed shard RPC is better
// evidence of loss than a heartbeat timeout, and acting on it at once is
// what turns retry-on-worker-loss from minutes into milliseconds.
func (c *Coordinator) markDead(ws *workerState) {
	c.mu.Lock()
	ws.lastSeen = time.Time{}
	c.mu.Unlock()
	c.logf("fabric: worker %s presumed lost; its cells requeue", ws.url)
}

// WorkerStatus is one fleet member's row in /healthz.
type WorkerStatus struct {
	URL            string `json:"url"`
	Live           bool   `json:"live"`
	InflightCells  int    `json:"inflight_cells"`
	CommittedCells int64  `json:"committed_cells"`
}

// FleetStatus is the coordinator's /healthz "fleet" section. Workers are
// sorted by URL so the JSON shape is deterministic.
type FleetStatus struct {
	Workers []WorkerStatus `json:"workers"`
	Live    int            `json:"live"`
}

// Status snapshots the fleet for /healthz.
func (c *Coordinator) Status() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FleetStatus{Workers: []WorkerStatus{}}
	for _, ws := range c.workers {
		live := time.Since(ws.lastSeen) <= c.cfg.HeartbeatTTL
		if live {
			st.Live++
		}
		st.Workers = append(st.Workers, WorkerStatus{
			URL: ws.url, Live: live,
			InflightCells: ws.inflight, CommittedCells: ws.committed,
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].URL < st.Workers[j].URL })
	return st
}

// ProbeWorkers is the remote tier the coordinator installs on its own
// cache (jobs.Cache.SetRemote): ask each live worker's local tiers for
// hash until one has it. This is the "computed anywhere, hit everywhere"
// route — a cell or whole sweep that any fleet member ever cached serves
// from there instead of recomputing.
func (c *Coordinator) ProbeWorkers(hash string) ([]byte, bool) {
	for _, ws := range c.live() {
		if data, ok := probe(c.cfg.Transport, ws.url, hash); ok {
			return data, true
		}
	}
	return nil, false
}

// Runner is the engine in the jobs.Manager execution slot.
func (c *Coordinator) Runner() jobs.Runner { return c.RunSweep }

// RunSweep resolves every cell of one canonical sweep spec and merges
// them — into bytes identical to what a single-process Sweep.Run of the
// same spec marshals, whichever executors ran the cells and whichever
// cells came out of the cache. Live workers take the cells of any sweep
// that can leave this process: not a single cell (dispatch overhead would
// dominate), and not a corpus: workload (the trace bytes live in THIS
// daemon's corpus; workers have no replica to replay).
func (c *Coordinator) RunSweep(ctx context.Context, canonical []byte, progress func(done, total int)) ([]byte, error) {
	r, err := c.newRun(ctx, canonical)
	if err != nil {
		return nil, err
	}
	r.progress = progress
	// A one-cell sweep's cell hash is the sweep's own, and jobs.Manager
	// stores the result under it: writing it through here would store it
	// twice.
	r.store = len(r.plans) > 1
	hashes, herr := registry.Workloads.CorpusHashes(r.spec.Workload)
	r.remote = len(r.plans) > 1 && !(herr == nil && len(hashes) > 0)
	every := make([]int, len(r.plans))
	for i := range every {
		every[i] = i
	}
	singles, err := r.resolve(every)
	if err != nil {
		return nil, err
	}
	elements := make([][]byte, len(singles))
	for i, p := range r.plans {
		if elements[i], err = hybridtier.ReindexCellJSON(singles[i], p.Cell.Index); err != nil {
			return nil, fmt.Errorf("fabric: cell %d of sweep: %w", i, err)
		}
	}
	return hybridtier.MergeCellJSON(elements), nil
}

// cellRun is the engine's one loop, for one sweep or one shard: probe the
// cache for each wanted cell of a canonical spec, claim the misses, queue
// the claimed, hand the queue to executors, commit what they answer.
//
// Commit has one rule set. Bytes an executor computed are written through
// to the cache once (when store is set) and handed to every sweep waiting
// on the cell's claim; bytes that came out of the cache or from another
// sweep's claim are never written back; a cell that ended in an error is
// data for the merge but is neither stored nor shared — waiting sweeps run
// it themselves; duplicates (steals, chaos-duplicated deliveries, late
// retries) are dropped, which is sound because cells are deterministic.
type cellRun struct {
	c         *Coordinator
	ctx       context.Context
	canonical []byte
	spec      hybridtier.SweepSpec
	plans     []hybridtier.CellPlan
	remote    bool // live workers may execute cells
	store     bool // computed cells are written through under their cell hash
	progress  func(done, total int)

	progMu  sync.Mutex // serializes progress reports
	mu      sync.Mutex
	cond    *sync.Cond
	singles [][]byte        // committed canonical singleton bytes by cell index
	owned   []bool          // cells whose claim this run holds
	total   int             // cells wanted
	left    int             // wanted cells not yet committed
	queue   []int           // owned cells awaiting an executor
	flights map[int]*flight // owned cells out with an executor
	fatal   error           // deterministic failure; aborts the run
	closed  bool            // resolve has returned; nothing may be claimed any more
}

// flight tracks one dispatched, uncommitted cell: how often it has been
// speculatively re-dispatched and when its newest dispatch left.
type flight struct {
	steals int
	since  time.Time
}

// newRun plans a canonical spec's cells; resolve then runs the loop.
func (c *Coordinator) newRun(ctx context.Context, canonical []byte) (*cellRun, error) {
	spec, plans, err := hybridtier.CellPlans(canonical)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	r := &cellRun{
		c:         c,
		ctx:       ctx,
		canonical: canonical,
		spec:      spec,
		plans:     plans,
		singles:   make([][]byte, len(plans)),
		owned:     make([]bool, len(plans)),
		flights:   map[int]*flight{},
	}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// resolve runs the loop over cells (distinct indices into the plan) until
// every one is committed or the run fails or is canceled, and returns the
// committed singleton bytes by cell index — complete when err is nil.
func (r *cellRun) resolve(cells []int) (singles [][]byte, err error) {
	// Wake the scheduler when the job is canceled mid-wait.
	stopWake := context.AfterFunc(r.ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stopWake()
	// On every way out: snapshot what was committed for the caller, and
	// give back every claim still held (the failure and cancellation
	// paths) so waiting sweeps stop waiting and execute themselves.
	defer func() {
		r.mu.Lock()
		r.closed = true
		singles = append([][]byte(nil), r.singles...)
		var hashes []string
		for i, own := range r.owned {
			if own {
				hashes = append(hashes, r.plans[i].Hash)
			}
		}
		r.mu.Unlock()
		for _, h := range hashes {
			r.c.releaseCell(h, nil)
		}
	}()

	r.total, r.left = len(cells), len(cells)
	cached := 0
	for _, i := range cells {
		// Cache first — Get consults memory, disk, and the fleet's remote
		// tier, so cells computed anywhere resolve here without running.
		if r.c.cfg.Cache != nil {
			if body, ok := r.c.cfg.Cache.Get(r.plans[i].Hash); ok {
				r.mu.Lock()
				r.singles[i] = body
				r.left--
				r.mu.Unlock()
				cached++
				continue
			}
		}
		if ch, owned := r.c.claimCell(r.plans[i].Hash); !owned {
			go r.await(i, ch)
		} else {
			r.mu.Lock()
			r.owned[i] = true
			r.queue = append(r.queue, i)
			r.mu.Unlock()
		}
	}
	if cached > 0 {
		r.report() // the cached head start, once
	}

	for {
		r.mu.Lock()
		for r.left > 0 && len(r.queue) == 0 && r.fatal == nil && r.ctx.Err() == nil {
			// Everything left is riding on another sweep's execution (or an
			// await is about to requeue); sleep until something lands.
			r.cond.Wait()
		}
		left, fatal := r.left, r.fatal
		r.mu.Unlock()
		switch {
		case fatal != nil:
			return nil, fatal
		case left == 0:
			return nil, nil // even if the context was canceled on the way
		case r.ctx.Err() != nil:
			return nil, fmt.Errorf("fabric: sweep canceled with %d/%d cells committed: %w",
				r.total-left, r.total, r.ctx.Err())
		}
		var live []*workerState
		if r.remote {
			live = r.c.live()
		}
		if len(live) == 0 {
			// No worker to ask — a lone daemon, a sweep that must not leave
			// this process, or a fleet that died mid-sweep: the in-process
			// executor takes everything queued as one cell group.
			if idxs := r.take(len(r.plans)); len(idxs) > 0 {
				r.runLocal(idxs)
			}
			continue
		}
		var wg sync.WaitGroup
		for _, ws := range live {
			wg.Add(1)
			go func(ws *workerState) {
				defer wg.Done()
				r.pump(ws)
			}(ws)
		}
		wg.Wait()
	}
}

// claimCell registers interest in a cell hash engine-wide. The first
// caller becomes the executor (owned = true); later callers get a
// channel that yields the singleton bytes at commit, or closes empty if
// the owner abandons.
func (c *Coordinator) claimCell(hash string) (<-chan []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.claims[hash]; ok {
		ch := make(chan []byte, 1)
		cl.waiters = append(cl.waiters, ch)
		return ch, false
	}
	c.claims[hash] = &cellClaim{}
	return nil, true
}

// releaseCell resolves a claim: body non-nil broadcasts the committed
// singleton bytes, nil abandons (waiters re-claim and self-execute).
func (c *Coordinator) releaseCell(hash string, body []byte) {
	c.mu.Lock()
	cl, ok := c.claims[hash]
	if ok {
		delete(c.claims, hash)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	for _, ch := range cl.waiters {
		if body != nil {
			ch <- body
		}
		close(ch)
	}
}

// await rides another sweep's execution of cell i. On abandon it tries to
// take ownership; losing that race just means waiting on the new owner.
func (r *cellRun) await(i int, ch <-chan []byte) {
	for {
		select {
		case body, ok := <-ch:
			if ok && body != nil {
				r.commit(i, body, false, nil)
				return
			}
			next, owned := r.c.claimCell(r.plans[i].Hash)
			if owned {
				r.mu.Lock()
				keep := !r.closed
				if keep {
					r.owned[i] = true
					r.queue = append(r.queue, i)
					r.cond.Broadcast()
				}
				r.mu.Unlock()
				if !keep {
					// The run ended while this claim was being taken; give it
					// back so no other sweep blocks on a run that is gone.
					r.c.releaseCell(r.plans[i].Hash, nil)
				}
				return
			}
			ch = next
		case <-r.ctx.Done():
			return
		}
	}
}

// fail records a deterministic failure and wakes the scheduler.
func (r *cellRun) fail(err error) {
	r.mu.Lock()
	if r.fatal == nil {
		r.fatal = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// commit lands cell i's canonical singleton bytes at most once, by the
// rule set cellRun documents. fresh marks bytes an executor just computed
// for a cell that ended without error; from credits the worker that did.
func (r *cellRun) commit(i int, single []byte, fresh bool, from *workerState) {
	r.mu.Lock()
	if r.singles[i] != nil {
		r.mu.Unlock()
		return
	}
	r.singles[i] = single
	r.left--
	delete(r.flights, i)
	owned := r.owned[i]
	r.owned[i] = false
	r.cond.Broadcast()
	r.mu.Unlock()

	if from != nil {
		r.c.mu.Lock()
		from.committed++
		r.c.mu.Unlock()
	}
	if fresh && r.store && r.c.cfg.Cache != nil {
		// Memory insert cannot fail and a disk failure must not lose a
		// computed cell (the next crash re-runs it) — same stance as
		// jobs.Manager's result Put.
		_ = r.c.cfg.Cache.Put(r.plans[i].Hash, single, r.plans[i].Spec)
	}
	if owned {
		if !fresh {
			single = nil
		}
		r.c.releaseCell(r.plans[i].Hash, single)
	}
	r.report()
}

// report delivers the run's one progress counter. The count is read under
// progMu, so concurrent commits can never deliver their reports out of
// order: it only ever rises.
func (r *cellRun) report() {
	if r.progress == nil {
		return
	}
	r.progMu.Lock()
	r.mu.Lock()
	done := r.total - r.left
	r.mu.Unlock()
	r.progress(done, r.total)
	r.progMu.Unlock()
}

// runLocal executes idxs on the in-process executor as one cell group —
// one worker pool, one shared op stream where the sweep has one — and
// commits each cell as it completes, which is what turns a later crash
// into a partial-hit resume. A group that could not run fails the run.
func (r *cellRun) runLocal(idxs []int) {
	err := r.c.cfg.Cells(r.ctx, r.canonical, idxs, func(cr hybridtier.CellResult, single []byte) {
		if cr.Err != "" && r.ctx.Err() != nil {
			return // a casualty of the cancellation, not a result
		}
		r.commit(cr.Index, single, cr.Err == "", nil)
	})
	if err != nil && r.ctx.Err() == nil {
		r.fail(err)
	}
}

// take removes up to n dispatchable cells from the queue, skipping any
// that were committed while queued, and marks them in-flight.
func (r *cellRun) take(n int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for len(out) < n && len(r.queue) > 0 {
		i := r.queue[0]
		r.queue = r.queue[1:]
		if r.singles[i] != nil {
			continue
		}
		r.flights[i] = &flight{since: time.Now()}
		out = append(out, i)
	}
	return out
}

// steal picks up to n in-flight cells to re-dispatch speculatively:
// only cells whose newest dispatch has been out longer than StealAfter
// (so a healthy fleet never duplicates work), least-stolen first (so a
// straggling shard is duplicated once before anything is tripled). Idle
// capacity re-running busy workers' cells is the work-stealing half of
// straggler tolerance; at-most-once commit makes duplication harmless.
func (r *cellRun) steal(n int) []int {
	const maxSteals = 3 // past this the cells are cursed, not straggling
	r.mu.Lock()
	defer r.mu.Unlock()
	type cand struct {
		idx    int
		flight *flight
	}
	var cands []cand
	for i, fl := range r.flights {
		if fl.steals < maxSteals && time.Since(fl.since) >= r.c.cfg.StealAfter {
			cands = append(cands, cand{i, fl})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].flight.steals != cands[b].flight.steals {
			return cands[a].flight.steals < cands[b].flight.steals
		}
		return cands[a].idx < cands[b].idx
	})
	var out []int
	for _, cd := range cands {
		if len(out) >= n {
			break
		}
		cd.flight.steals++
		cd.flight.since = time.Now()
		out = append(out, cd.idx)
	}
	return out
}

// requeue returns undelivered cells to the queue. Stolen cells stay with
// their original flight — the owner's dispatch is still in play.
func (r *cellRun) requeue(idxs []int, stolen bool) {
	r.mu.Lock()
	for _, i := range idxs {
		if r.singles[i] != nil {
			continue
		}
		if stolen {
			if fl, ok := r.flights[i]; ok && fl.steals > 0 {
				fl.steals--
			}
			continue
		}
		delete(r.flights, i)
		r.queue = append(r.queue, i)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// shardSize balances dispatch overhead against scheduling granularity:
// enough shards that every worker gets several (so stealing has targets),
// capped so one loss never requeues much work.
func (r *cellRun) shardSize(liveWorkers int) int {
	r.mu.Lock()
	remaining := r.left
	r.mu.Unlock()
	n := remaining / (2 * liveWorkers)
	if n < 1 {
		n = 1
	}
	if n > r.c.cfg.MaxShardCells {
		n = r.c.cfg.MaxShardCells
	}
	return n
}

// pump feeds one worker until there is nothing left to dispatch or steal,
// or the worker fails. One pump per live worker per round. An idle pump
// whose peers still have cells in flight lingers, polling for a cell to
// become steal-eligible, so straggler recovery does not depend on the
// accident of a pump being awake at the right moment.
func (r *cellRun) pump(ws *workerState) {
	for {
		r.mu.Lock()
		stop := r.left == 0 || r.fatal != nil
		r.mu.Unlock()
		if stop || r.ctx.Err() != nil {
			return
		}
		idxs := r.take(r.shardSize(1 + len(r.c.live())))
		stolen := false
		if len(idxs) == 0 {
			idxs = r.steal(1)
			stolen = true
			if len(idxs) == 0 {
				r.mu.Lock()
				linger := r.left > 0 && r.fatal == nil && (len(r.flights) > 0 || len(r.queue) > 0)
				r.mu.Unlock()
				if !linger {
					return
				}
				select {
				case <-r.ctx.Done():
					return
				case <-time.After(time.Millisecond):
				}
				continue
			}
		}
		if err := r.dispatch(ws, idxs); err != nil {
			r.requeue(idxs, stolen)
			if r.ctx.Err() != nil {
				return // canceled, not lost
			}
			var se *StatusError
			if errors.As(err, &se) && se.Code != http.StatusServiceUnavailable {
				// The worker answered and refused: deterministic, so another
				// worker (or a retry) changes nothing. Fail the sweep.
				r.fail(err)
				return
			}
			// Transport loss or a draining worker: presume it gone, let the
			// requeued cells find a live peer — or the in-process executor —
			// next round.
			r.c.markDead(ws)
			return
		}
	}
}

// dispatch sends one shard to ws and commits whatever comes back. A cell
// the worker reports as failed is verified on the in-process executor, as
// a one-cell group: a failure that reproduces here is deterministic — the
// sweep fails with the local error, matching what a single-process run
// would do — and one that does not was the worker's problem, and the
// local result commits.
func (r *cellRun) dispatch(ws *workerState, idxs []int) error {
	r.c.mu.Lock()
	ws.inflight += len(idxs)
	r.c.mu.Unlock()
	defer func() {
		r.c.mu.Lock()
		ws.inflight -= len(idxs)
		r.c.mu.Unlock()
	}()

	ctx, cancel := context.WithTimeout(r.ctx, r.c.cfg.ShardTimeout)
	defer cancel()
	// The RPC runs under a watchdog: the context bounds it even on a
	// Transport that does not honor request contexts, so a hung worker
	// costs at most ShardTimeout before its cells requeue.
	type shardReply struct {
		resp shardResponse
		err  error
	}
	replyc := make(chan shardReply, 1)
	go func() {
		var rep shardReply
		rep.err = call(ctx, r.c.cfg.Transport, http.MethodPost, ws.url+"/fabric/run",
			shardRequest{Spec: r.canonical, Cells: idxs}, &rep.resp)
		replyc <- rep
	}()
	var resp shardResponse
	select {
	case rep := <-replyc:
		if rep.err != nil {
			return rep.err
		}
		resp = rep.resp
	case <-ctx.Done():
		return ctx.Err()
	}
	returned := map[int]bool{}
	for _, sc := range resp.Cells {
		if sc.Index < 0 || sc.Index >= len(r.plans) {
			return fmt.Errorf("fabric: worker %s returned cell index %d outside the sweep", ws.url, sc.Index)
		}
		returned[sc.Index] = true
		if sc.Err != "" {
			r.c.logf("fabric: worker %s failed cell %d (%s); verifying locally", ws.url, sc.Index, sc.Err)
			r.runLocal([]int{sc.Index})
			continue
		}
		// Bytes from outside the process are checked before they can reach
		// the cache: exactly one cell, and whether it ended in an error.
		var cells []hybridtier.CellResult
		if err := json.Unmarshal(sc.Body, &cells); err != nil || len(cells) != 1 {
			return fmt.Errorf("fabric: worker %s answered cell %d with bytes that are not a singleton result", ws.url, sc.Index)
		}
		r.commit(sc.Index, sc.Body, cells[0].Err == "", ws)
	}
	// A shard answer that silently omits cells requeues them rather than
	// hanging the sweep.
	var missing []int
	for _, i := range idxs {
		if !returned[i] {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		r.requeue(missing, false)
	}
	return nil
}
