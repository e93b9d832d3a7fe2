package service

import (
	"cmp"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/errfs"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// DaemonConfig is htiersimd's flags but -addr and -drain-timeout, which
// cmd/htiersimd keeps. Each field means what its flag means (docs/*.md);
// a zero value is the flag's zero, not its default.
type DaemonConfig struct {
	Jobs          int           // -jobs: concurrently running jobs
	SweepWorkers  int           // -sweep-workers: concurrent cells per job (0 = all cores)
	Queue         int           // -queue: queued jobs before submissions get 503
	CacheMB       int64         // -cache-mb: in-memory result cache budget
	CacheDir      string        // -cache-dir: on-disk result store ("" = memory only)
	CacheDiskMB   int64         // -cache-disk-mb: on-disk budget (0 = unbounded)
	CorpusDir     string        // -corpus-dir ("" = a private temp dir Close removes)
	MaxTraceMB    int64         // -max-trace-mb: largest accepted trace upload
	Journal       string        // -journal (default <CacheDir>/journal.wal; no CacheDir, no journal)
	ScrubInterval time.Duration // -scrub-interval: period of the integrity scrubber (0 = off)
	Worker        bool          // -worker: join a fleet instead of coordinating one
	Join          string        // -join: the coordinator's base URL, required by (and implying) Worker
	Advertise     string        // -advertise, resolved: the URL a worker registers (required by Worker)
	Log           *log.Logger   // the daemon's log; nil silences
	FS            errfs.FS      // under the result store, corpus and journal (nil = the real disk): the fault seam

	wrapRun func(jobs.Runner) jobs.Runner // wraps the engine's runner: the tests count runs and cells through it
}

// Daemon is one assembled htiersimd: result cache, trace corpus, journal,
// cell engine, job manager, integrity scrubber and HTTP handler.
type Daemon struct {
	handler http.Handler
	manager *jobs.Manager
	cache   *jobs.Cache
	corpus  *corpus.Store
	journal *jobs.Journal
	tmp     string // the private corpus dir, when CorpusDir was empty
	stop    context.CancelFunc
	wg      sync.WaitGroup // the scrubber and the worker's heartbeat
}

// NewDaemon builds a daemon. It installs the corpus as the process-wide
// corpus: resolver, so at most one daemon per process is live at a time;
// Close uninstalls it. On error everything built so far is released.
func NewDaemon(cfg DaemonConfig) (_ *Daemon, err error) {
	if (cfg.Worker || cfg.Join != "") && (cfg.Join == "" || cfg.Advertise == "") {
		return nil, errors.New("service: a worker needs both Join and Advertise")
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &Daemon{stop: stop}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()

	if d.cache, err = jobs.NewCacheFS(cfg.CacheMB<<20, cfg.CacheDir, cfg.FS); err != nil {
		return nil, err
	}
	d.cache.SetMaxDiskBytes(cfg.CacheDiskMB << 20)

	// The corpus always exists — corpus: workloads must resolve in every
	// daemon — but without CorpusDir it dies with the daemon, rather than
	// silently writing next to the binary.
	if cfg.CorpusDir == "" {
		if d.tmp, err = os.MkdirTemp("", "htiersimd-corpus-*"); err != nil {
			return nil, err
		}
	}
	if d.corpus, err = corpus.OpenFS(cmp.Or(cfg.CorpusDir, d.tmp), cfg.FS); err != nil {
		return nil, err
	}
	registry.SetCorpusResolver(d.corpus.Path)

	// The journal makes restarts resume instead of forget. It defaults on
	// whenever results are durable: it re-lists finished jobs and resubmits
	// interrupted ones, whose computed cells the engine serves from the store.
	jpath := cfg.Journal
	if jpath == "" && cfg.CacheDir != "" {
		jpath = filepath.Join(cfg.CacheDir, "journal.wal")
	}
	var resume []jobs.Record
	if jpath != "" {
		if d.journal, resume, err = jobs.OpenJournal(jpath, cfg.FS); err != nil {
			return nil, err
		}
		if len(resume) > 0 {
			logger.Printf("journal %s: replaying %d records", jpath, len(resume))
		}
	}

	// Every daemon runs the cell engine, writing each cell through to the
	// cache. A coordinator's cells go to live workers, or run in process while
	// none is registered; a worker runs the coordinator's shards on its own.
	cells := fabric.LocalCells(cfg.SweepWorkers)
	hc := Config{Corpus: d.corpus, MaxTraceBytes: cfg.MaxTraceMB << 20, Log: logger}
	var runner jobs.Runner
	if cfg.Worker || cfg.Join != "" {
		wk := fabric.NewWorker(fabric.WorkerConfig{
			Self: cfg.Advertise, Coordinator: cfg.Join, Cells: cells, Cache: d.cache, Log: logger,
		})
		d.cache.SetRemote(wk.ProbeCoordinator)
		hc.Fabric, runner = wk.Handler(), wk.Runner()
		d.wg.Add(1)
		go func() { defer d.wg.Done(); wk.Join(ctx) }()
		logger.Printf("worker mode: joining %s, advertising %s", cfg.Join, cfg.Advertise)
	} else {
		coord := fabric.NewCoordinator(fabric.Config{Cache: d.cache, Cells: cells, Log: logger})
		d.cache.SetRemote(coord.ProbeWorkers)
		hc.Fabric, runner = coord.Handler(), coord.Runner()
		hc.Fleet = func() any { return coord.Status() }
	}
	if cfg.wrapRun != nil {
		runner = cfg.wrapRun(runner)
	}

	d.manager = jobs.NewManager(jobs.Config{
		Workers: cfg.Jobs, QueueDepth: cfg.Queue, Run: runner,
		Cache: d.cache, Journal: d.journal, Resume: resume,
	})

	// The scrubber re-verifies every stored result and trace against its
	// content address; /healthz reports the latest pass.
	if cfg.ScrubInterval > 0 {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			ticker := time.NewTicker(cfg.ScrubInterval)
			defer ticker.Stop()
			for {
				crep, trep := d.cache.Scrub(), d.corpus.Scrub()
				if crep.Quarantined+crep.Errors+trep.Quarantined+trep.Errors > 0 {
					logger.Printf("scrub: results %+v; traces %+v", crep, trep)
				}
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
			}
		}()
	}

	hc.Manager = d.manager
	d.handler = newHandler(hc, d.integrity)
	return d, nil
}

// integrity is /healthz's "integrity" section (docs/DURABILITY.md): the
// latest scrub of each store and the journal's write health.
func (d *Daemon) integrity() any {
	body := map[string]any{}
	if rep, ok := d.cache.LastScrub(); ok {
		body["results"] = rep
	}
	if rep, ok := d.corpus.LastScrub(); ok {
		body["traces"] = rep
	}
	if d.journal != nil {
		j := map[string]any{"path": d.journal.Path(), "healthy": d.journal.Err() == nil}
		if err := d.journal.Err(); err != nil {
			j["error"] = err.Error()
		}
		body["journal"] = j
	}
	return body
}

// Handler is the daemon's HTTP API, /fabric/ included.
func (d *Daemon) Handler() http.Handler { return d.handler }

// Corpus is the daemon's trace store.
func (d *Daemon) Corpus() *corpus.Store { return d.corpus }

// CellRunner is a daemon's engine with no fleet: every sweep runs on
// fabric.LocalCells(sweepWorkers), each cell written through to cache as it
// completes. bench/'s in-process launcher and the cell engine's tests use it.
func CellRunner(sweepWorkers int, cache *jobs.Cache) jobs.Runner {
	return fabric.NewCoordinator(fabric.Config{Cache: cache, Cells: fabric.LocalCells(sweepWorkers)}).Runner()
}

// Drain stops the scrubber and the heartbeat and refuses new jobs (503);
// running jobs get timeout to finish, then are canceled.
func (d *Daemon) Drain(timeout time.Duration) {
	d.stop()
	Drain(d.manager, timeout)
}

// Close stops the scrubber and the heartbeat and waits for them, closes
// the journal, uninstalls the corpus resolver and removes a private
// corpus. Drain first: a running job would append to a closed journal.
func (d *Daemon) Close() {
	d.stop()
	d.wg.Wait()
	if d.journal != nil {
		d.journal.Close()
	}
	registry.SetCorpusResolver(nil)
	os.RemoveAll(d.tmp) // "" (no private corpus) removes nothing
}
