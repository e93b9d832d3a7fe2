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

	"repro/internal/jobs"
	"repro/internal/registry"
)

// Config assembles a Coordinator.
type Config struct {
	// Transport carries every coordinator→worker message (nil =
	// DefaultTransport). Tests inject Chaos here.
	Transport Transport
	// Cache is the coordinator's result cache — the same one its
	// jobs.Manager serves from. Cell results are written through to it at
	// commit, so resubmitted or overlapping sweeps hit without running.
	Cache *jobs.Cache
	// Local executes canonical specs in-process (required): the whole
	// sweep when no fleet is live or the fleet dies mid-sweep — the
	// daemon's cell runner then resumes from the cells already committed —
	// and the verification run for a worker-reported failure.
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
	// ProbeTimeout bounds one remote cache probe (default 250ms).
	ProbeTimeout time.Duration
	// Log receives fleet events; nil silences.
	Log *log.Logger
}

// Coordinator owns a fleet of worker daemons and runs sweeps across it.
// Its Runner plugs into jobs.Manager exactly where the single-process
// service.Runner does, so the daemon's HTTP API, event streams, caching,
// and drain semantics are unchanged — only the execution engine widens
// from one process to a fleet.
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

// NewCoordinator builds a coordinator. Config.Local is required.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Local == nil {
		panic("fabric: Config.Local is required")
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
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 250 * time.Millisecond
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
	if !jobs.ValidHash(hash) {
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
		if data, ok := probeResult(c.cfg.Transport, ws.url, hash, c.cfg.ProbeTimeout); ok {
			return data, true
		}
	}
	return nil, false
}

// Runner adapts the coordinator to the jobs.Manager execution slot.
func (c *Coordinator) Runner() jobs.Runner {
	return func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
		return c.RunSweep(ctx, spec, progress)
	}
}

// RunSweep executes one canonical sweep spec across the fleet and returns
// the merged result — byte-identical to what Config.Local (and therefore
// a single-process Sweep.Run) produces for the same spec. Sweeps fall
// back to plain local execution when the fleet cannot or should not run
// them: no live workers (the single-daemon case, preserving the shared
// stream optimization), a single cell (dispatch overhead would dominate),
// or a corpus: workload (the trace bytes live in THIS daemon's corpus;
// workers have no replica to replay).
func (c *Coordinator) RunSweep(ctx context.Context, canonical []byte, progress func(done, total int)) ([]byte, error) {
	spec, plans, err := planCells(canonical)
	if err != nil {
		return nil, err
	}
	corpus := false
	if hashes, herr := registry.Workloads.CorpusHashes(spec.Workload); herr == nil && len(hashes) > 0 {
		corpus = true
	}
	if len(plans) < 2 || corpus || len(c.live()) == 0 {
		return c.cfg.Local(ctx, canonical, progress)
	}
	run := &sweepRun{
		c:         c,
		ctx:       ctx,
		canonical: canonical,
		plans:     plans,
		elements:  make([][]byte, len(plans)),
		left:      len(plans),
		flights:   map[int]*flight{},
		progress:  progress,
	}
	run.cond = sync.NewCond(&run.mu)
	return run.run()
}

// sweepRun is one RunSweep invocation's scheduling state.
type sweepRun struct {
	c         *Coordinator
	ctx       context.Context
	canonical []byte
	plans     []cellPlan
	progress  func(done, total int)

	progMu   sync.Mutex // serializes progress reports
	mu       sync.Mutex
	cond     *sync.Cond
	elements [][]byte        // committed element bytes by cell index
	left     int             // uncommitted cells
	queue    []int           // owned cells awaiting dispatch
	flights  map[int]*flight // owned in-flight cells
	fatal    error           // deterministic failure; aborts the sweep
}

// flight tracks one dispatched, uncommitted cell: how often it has been
// speculatively re-dispatched and when its newest dispatch left.
type flight struct {
	steals int
	since  time.Time
}

// run resolves cells from the cache, claims the rest, and loops dispatch
// rounds until every cell is committed (or the run fails/cancels).
func (r *sweepRun) run() ([]byte, error) {
	// Wake the scheduler when the job is canceled mid-wait.
	stopWake := context.AfterFunc(r.ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stopWake()
	defer r.abandonOwned()

	for i := range r.plans {
		// Cache first — Get consults memory, disk, and the fleet's remote
		// tier, so cells computed anywhere resolve here without running.
		if body, ok := r.cacheGet(r.plans[i].hash); ok {
			if err := r.commitSingleton(i, body, nil); err != nil {
				return nil, err
			}
			continue
		}
		if ch, owned := r.c.claimCell(r.plans[i].hash); !owned {
			go r.await(i, ch)
		} else {
			r.mu.Lock()
			r.queue = append(r.queue, i)
			r.mu.Unlock()
		}
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
		case r.ctx.Err() != nil:
			return nil, fmt.Errorf("fabric: sweep canceled with %d/%d cells committed: %w",
				len(r.plans)-left, len(r.plans), r.ctx.Err())
		case left == 0:
			r.mu.Lock()
			merged := mergeCells(r.elements)
			r.mu.Unlock()
			return merged, nil
		}
		live := r.c.live()
		if len(live) == 0 {
			// The whole fleet died mid-sweep: hand the sweep to the local
			// runner. Every committed cell is already in the cache, so the
			// daemon's cell runner resumes from them and runs what is left
			// as one cell group. Degraded, but the sweep completes.
			return r.c.cfg.Local(r.ctx, r.canonical, r.progress)
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

// cacheGet probes the coordinator's cache (all tiers) for a cell hash.
func (r *sweepRun) cacheGet(hash string) ([]byte, bool) {
	if r.c.cfg.Cache == nil {
		return nil, false
	}
	return r.c.cfg.Cache.Get(hash)
}

// claimCell registers interest in a cell hash fleet-wide. The first
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
func (r *sweepRun) await(i int, ch <-chan []byte) {
	for {
		select {
		case body, ok := <-ch:
			if ok && body != nil {
				r.commitFromAnywhere(i, body)
				return
			}
			next, owned := r.c.claimCell(r.plans[i].hash)
			if owned {
				r.mu.Lock()
				if !r.plans[i].committed {
					r.queue = append(r.queue, i)
				}
				r.cond.Broadcast()
				r.mu.Unlock()
				if r.plans[i].committed {
					// Committed while we were waiting (cache race); give the
					// claim back so no other sweep blocks on us.
					r.c.releaseCell(r.plans[i].hash, nil)
				}
				return
			}
			ch = next
		case <-r.ctx.Done():
			return
		}
	}
}

// commitFromAnywhere applies a commit raced in from outside the pump path
// (an await or a verification); errors become fatal.
func (r *sweepRun) commitFromAnywhere(i int, body []byte) {
	if err := r.commitSingleton(i, body, nil); err != nil {
		r.fail(err)
	}
}

// fail records a deterministic failure and wakes the scheduler.
func (r *sweepRun) fail(err error) {
	r.mu.Lock()
	if r.fatal == nil {
		r.fatal = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// commitSingleton commits cell i's canonical singleton result at most
// once: the first commit reindexes and lands, every duplicate (steals,
// chaos-duplicated deliveries, late retries) is dropped on the floor.
// Committed bytes write through to the cache under the cell hash and
// resolve the fleet-wide claim, so concurrent and future sweeps inherit
// the cell without running it. from credits the worker that computed it.
func (r *sweepRun) commitSingleton(i int, body []byte, from *workerState) error {
	element, err := reindexCell(body, r.plans[i].cell.Index)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.plans[i].committed {
		r.mu.Unlock()
		return nil
	}
	r.plans[i].committed = true
	r.elements[i] = element
	r.left--
	delete(r.flights, i)
	r.cond.Broadcast()
	r.mu.Unlock()

	if from != nil {
		r.c.mu.Lock()
		from.committed++
		r.c.mu.Unlock()
	}
	if r.c.cfg.Cache != nil {
		// Memory insert cannot fail and disk failure must not lose a
		// computed cell — same stance as jobs.Manager's result Put.
		_ = r.c.cfg.Cache.Put(r.plans[i].hash, body, r.plans[i].spec)
	}
	r.c.releaseCell(r.plans[i].hash, body)
	if r.progress != nil {
		// The count is read under progMu, so concurrent commits can never
		// deliver their reports out of order: it only ever rises.
		r.progMu.Lock()
		r.mu.Lock()
		done := len(r.plans) - r.left
		r.mu.Unlock()
		r.progress(done, len(r.plans))
		r.progMu.Unlock()
	}
	return nil
}

// take removes up to n dispatchable cells from the queue, skipping any
// that were committed while queued (await/cache races), and marks them
// in-flight.
func (r *sweepRun) take(n int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for len(out) < n && len(r.queue) > 0 {
		i := r.queue[0]
		r.queue = r.queue[1:]
		if r.plans[i].committed {
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
func (r *sweepRun) steal(n int) []int {
	const maxSteals = 3 // past this the cells are cursed, not straggling
	r.mu.Lock()
	defer r.mu.Unlock()
	type cand struct {
		idx    int
		flight *flight
	}
	var cands []cand
	for i, fl := range r.flights {
		if !r.plans[i].committed && fl.steals < maxSteals &&
			time.Since(fl.since) >= r.c.cfg.StealAfter {
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
func (r *sweepRun) requeue(idxs []int, stolen bool) {
	r.mu.Lock()
	for _, i := range idxs {
		if r.plans[i].committed {
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
func (r *sweepRun) shardSize(liveWorkers int) int {
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
func (r *sweepRun) pump(ws *workerState) {
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
			// requeued cells find a live peer next round.
			r.c.markDead(ws)
			return
		}
	}
}

// dispatch sends one shard to ws and commits whatever comes back. Cells
// the worker could not run deterministically are verified locally before
// they may fail the sweep.
func (r *sweepRun) dispatch(ws *workerState, idxs []int) error {
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
			r.verifyLocally(sc.Index, ws.url, sc.Err)
			continue
		}
		if cerr := r.commitSingleton(sc.Index, sc.Body, ws); cerr != nil {
			return cerr
		}
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

// verifyLocally re-runs a cell the worker reported as failed. A failure
// that reproduces here is deterministic — the sweep fails with the local
// error, matching what a single-process run would do. One that does not
// reproduce was the worker's problem, and the local result commits.
func (r *sweepRun) verifyLocally(i int, workerURL, workerErr string) {
	r.c.logf("fabric: worker %s failed cell %d (%s); verifying locally", workerURL, i, workerErr)
	body, err := r.c.cfg.Local(r.ctx, r.plans[i].spec, nil)
	if err != nil {
		if r.ctx.Err() == nil {
			r.fail(err)
		}
		return
	}
	r.commitFromAnywhere(i, body)
}

// abandonOwned releases every claim this run still owns (uncommitted
// cells on the failure and cancellation paths) so waiting sweeps stop
// waiting and execute themselves. Committed cells released at commit
// time are long gone from the table.
func (r *sweepRun) abandonOwned() {
	r.mu.Lock()
	var hashes []string
	for i := range r.plans {
		if !r.plans[i].committed {
			hashes = append(hashes, r.plans[i].hash)
		}
	}
	r.mu.Unlock()
	for _, h := range hashes {
		r.c.releaseCell(h, nil)
	}
}
