package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	hybridtier "repro"
	"repro/internal/jobs"
)

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// Self is this worker's advertised base URL — what the coordinator
	// dials back for shards and cache probes (required).
	Self string
	// Coordinator is the coordinator's base URL to join (required).
	Coordinator string
	// Transport carries registration heartbeats (nil = DefaultTransport).
	Transport Transport
	// Cells executes a shard's uncached cells as one group
	// (service.CellGroupRunner): one worker pool, one op stream where the
	// sweep shares one. Cells or Run is required.
	Cells GroupRunner
	// Run executes canonical specs in-process. A worker assembled with
	// only Run executes each cell as its own singleton sweep, one after
	// another.
	Run jobs.Runner
	// Cache is this daemon's result cache; executed cells are written
	// through to it — once — under their cell-level content address, and
	// shard execution consults it first (which, with the remote tier
	// installed, also probes the coordinator).
	Cache *jobs.Cache
	// Interval is the heartbeat period (default 2s). It must stay well
	// under the coordinator's HeartbeatTTL or the worker flaps.
	Interval time.Duration
	// Log receives join/leave events; nil silences.
	Log *log.Logger
}

// GroupRunner executes the cells at the given indices of a canonical
// sweep spec as one group, calling onCell — serialized — once per
// completed cell with the cell (its index in the whole sweep inside) and
// its canonical singleton result bytes. A failed cell is data: it carries
// its error in cr.Err and in the bytes. The returned error means the
// group could not run (a bad spec, cancellation).
type GroupRunner func(ctx context.Context, canonical []byte, cells []int, onCell func(cr hybridtier.CellResult, single []byte)) error

// singletons adapts a whole-spec runner to GroupRunner: each cell runs as
// its own singleton sweep, so nothing is shared between them.
func singletons(run jobs.Runner) GroupRunner {
	return func(ctx context.Context, canonical []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		_, plans, err := planCells(canonical)
		if err != nil {
			return err
		}
		for _, i := range cells {
			single, err := run(ctx, plans[i].spec, nil)
			if err != nil {
				return err
			}
			onCell(hybridtier.CellResult{Cell: plans[i].cell}, single)
		}
		return nil
	}
}

// Worker is one fleet member: it joins a coordinator by heartbeating
// POST /fabric/register, and serves shards the coordinator dispatches to
// its advertised URL. A shard executes as one cell group, and every
// result it produces is canonical singleton bytes under a cell-level
// content address the whole federation can cache against.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker builds a worker. Self, Coordinator, and one of Cells and Run
// are required.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Self == "" || cfg.Coordinator == "" {
		panic("fabric: WorkerConfig.Self and Coordinator are required")
	}
	if cfg.Cells == nil {
		if cfg.Run == nil {
			panic("fabric: WorkerConfig.Cells or Run is required")
		}
		cfg.Cells = singletons(cfg.Run)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	return &Worker{cfg: cfg}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Printf(format, args...)
	}
}

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
		w.logf("fabric: register with %s failed: %v", w.cfg.Coordinator, err)
	}
}

// ProbeCoordinator is the remote cache tier a worker daemon installs on
// its own cache: ask the coordinator's local tiers. Combined with the
// coordinator probing its workers, any result cached anywhere in the
// fleet is one hop from everywhere.
func (w *Worker) ProbeCoordinator(hash string) ([]byte, bool) {
	return probeResult(w.cfg.Transport, w.cfg.Coordinator, hash, 250*time.Millisecond)
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

// runShard resolves each requested cell through the cache (memory, disk,
// and — via the remote tier — the coordinator), then executes the misses
// as one cell group, writing each result through under its cell hash as
// it completes. A failed cell travels back as data, like any result; a
// group that could not run at all marks every unanswered cell with the
// error, and the coordinator decides what that means for the sweep.
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
	_, plans, err := planCells(req.Spec)
	if err != nil {
		fabricError(rw, http.StatusBadRequest, err.Error())
		return
	}
	for _, i := range req.Cells {
		if i < 0 || i >= len(plans) {
			fabricError(rw, http.StatusBadRequest,
				fmt.Sprintf("fabric: shard cell index %d outside the spec's %d cells", i, len(plans)))
			return
		}
	}
	cache := w.cfg.Cache
	resp := shardResponse{Cells: make([]shardCell, 0, len(req.Cells))}
	answer := func(i int, body []byte, errText string) {
		resp.Cells = append(resp.Cells, shardCell{Index: i, Hash: plans[i].hash, Body: body, Err: errText})
	}
	var misses []int
	for _, i := range req.Cells {
		var body []byte
		hit := false
		if cache != nil {
			body, hit = cache.Get(plans[i].hash)
		}
		if hit {
			answer(i, body, "")
		} else {
			misses = append(misses, i)
		}
	}
	if len(misses) > 0 {
		err := w.cfg.Cells(r.Context(), req.Spec, misses, func(cr hybridtier.CellResult, single []byte) {
			if cache != nil && cr.Err == "" {
				// Same stance as commit: a disk write failure must not lose
				// a computed result that memory already serves.
				_ = cache.Put(plans[cr.Index].hash, single, plans[cr.Index].spec)
			}
			answer(cr.Index, single, "")
		})
		if r.Context().Err() != nil {
			// The coordinator hung up (timeout, loss, cancel); nobody is
			// reading this response.
			return
		}
		if err != nil {
			answered := make(map[int]bool, len(resp.Cells))
			for _, c := range resp.Cells {
				answered[c.Index] = true
			}
			for _, i := range misses {
				if !answered[i] {
					answer(i, nil, err.Error())
				}
			}
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}
