package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/jobs"
)

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// Self is this worker's advertised base URL — what the coordinator
	// dials back for shards and cache probes (required).
	Self string
	// Coordinator is the coordinator's base URL to join (required).
	Coordinator string
	// Transport carries registration heartbeats and cache probes (nil =
	// http.DefaultTransport).
	Transport http.RoundTripper
	// Cells is the in-process executor of the worker's engine
	// (LocalCells): a shard's uncached cells run on it as one group. Cells
	// or Run is required.
	Cells GroupRunner
	// Run is kept so bench/'s in-process launcher compiles until the
	// benchmark refresh: a whole-spec runner, adapted cell by cell through
	// singletons when Cells is nil.
	Run jobs.Runner
	// Cache is this daemon's result cache, the engine's: executed cells
	// are written through to it — once — under their cell-level content
	// address, and shard execution consults it first (which, with the
	// remote tier installed, also probes the coordinator).
	Cache *jobs.Cache
	// Interval is the heartbeat period (default 2s). It must stay well
	// under the coordinator's HeartbeatTTL or the worker flaps.
	Interval time.Duration
	// Log receives join/leave events; nil silences.
	Log *log.Logger
}

// Worker is one fleet member: it joins a coordinator by heartbeating
// POST /fabric/register, and serves shards the coordinator dispatches to
// its advertised URL. A shard is resolved by the same engine that runs a
// coordinator's sweeps — here one that never has workers — so its uncached
// cells execute as one cell group, and every result it produces is
// canonical singleton bytes under a cell-level content address the whole
// federation can cache against.
type Worker struct {
	cfg    WorkerConfig
	engine *Coordinator
}

// NewWorker builds a worker. Self, Coordinator, and one of Cells and Run
// are required.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Self == "" || cfg.Coordinator == "" {
		panic("fabric: WorkerConfig.Self and Coordinator are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Cells == nil && cfg.Run != nil {
		cfg.Cells = singletons(cfg.Run)
	}
	engine := NewCoordinator(Config{Cache: cfg.Cache, Cells: cfg.Cells, Log: cfg.Log})
	return &Worker{cfg: cfg, engine: engine}
}

// Runner is the engine as a jobs.Runner, for sweeps submitted to the
// worker daemon's own /jobs: they share claims and cache with its shards.
func (w *Worker) Runner() jobs.Runner { return w.engine.RunSweep }

// Join registers with the coordinator immediately and then re-registers
// every Interval until ctx is done. Registration IS the heartbeat: there
// is no separate liveness protocol, so a worker that can still reach the
// coordinator is by definition still in the fleet. Failures log and
// retry on the next tick — a coordinator restart heals itself.
func (w *Worker) Join(ctx context.Context) {
	w.register(ctx)
	ticker := time.NewTicker(w.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			w.register(ctx)
		}
	}
}

func (w *Worker) register(ctx context.Context) {
	cctx, cancel := context.WithTimeout(ctx, w.cfg.Interval)
	defer cancel()
	err := call(cctx, w.cfg.Transport, http.MethodPost,
		w.cfg.Coordinator+"/fabric/register", registerRequest{URL: w.cfg.Self}, nil)
	if err != nil && ctx.Err() == nil {
		w.engine.logf("fabric: register with %s failed: %v", w.cfg.Coordinator, err)
	}
}

// ProbeCoordinator is the remote cache tier a worker daemon installs on
// its own cache: ask the coordinator's local tiers. Combined with the
// coordinator probing its workers, any result cached anywhere in the
// fleet is one hop from everywhere.
func (w *Worker) ProbeCoordinator(hash string) ([]byte, bool) {
	return probe(w.cfg.Transport, w.cfg.Coordinator, hash)
}

// Handler serves the worker's side of the fabric protocol:
//
//	POST /fabric/run           execute a shard of cells
//	GET  /fabric/result/{hash} probe this worker's LOCAL cache tiers
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/run", w.runShard)
	mux.HandleFunc("GET /fabric/result/{hash}", func(rw http.ResponseWriter, r *http.Request) {
		serveLocalResult(rw, r, w.cfg.Cache)
	})
	return mux
}

// runShard is decode → resolve → encode: the engine resolves the
// requested cells (cache, claims, one local cell group for the misses,
// each written through as it completes) and the answer is their singleton
// bytes. A failed cell travels back as data, like any result; a shard that
// could not run marks every unanswered cell with the error, and the
// coordinator decides what that means for the sweep.
func (w *Worker) runShard(rw http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 16<<20)).Decode(&req); err != nil {
		fabricError(rw, http.StatusBadRequest, "fabric: bad shard body: "+err.Error())
		return
	}
	if len(req.Cells) == 0 {
		fabricError(rw, http.StatusBadRequest, "fabric: shard needs at least one cell")
		return
	}
	run, err := w.engine.newRun(r.Context(), req.Spec)
	if err != nil {
		fabricError(rw, http.StatusBadRequest, err.Error())
		return
	}
	cells := make([]int, 0, len(req.Cells))
	listed := make([]bool, len(run.plans))
	for _, i := range req.Cells {
		if i < 0 || i >= len(run.plans) {
			fabricError(rw, http.StatusBadRequest,
				fmt.Sprintf("fabric: shard cell index %d outside the spec's %d cells", i, len(run.plans)))
			return
		}
		if !listed[i] {
			listed[i] = true
			cells = append(cells, i)
		}
	}
	run.store = true
	singles, err := run.resolve(cells)
	if r.Context().Err() != nil {
		// The coordinator hung up (timeout, loss, cancel); nobody is
		// reading this response.
		return
	}
	resp := shardResponse{Cells: make([]shardCell, len(cells))}
	for k, i := range cells {
		resp.Cells[k] = shardCell{Index: i, Hash: run.plans[i].Hash, Body: singles[i]}
		if singles[i] == nil {
			resp.Cells[k].Err = err.Error()
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}
