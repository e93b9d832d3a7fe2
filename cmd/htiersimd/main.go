// Command htiersimd is the experiment service daemon: an HTTP server
// that accepts sweep specifications, schedules them on a bounded worker
// pool, streams per-cell progress, and serves results from a
// content-addressed cache — so identical experiments are computed once
// and shared by every client. The API and its guarantees are documented
// in docs/SERVICE.md; the central one is byte-identity: the JSON served
// from /results/{hash} is exactly what an in-process Sweep.Run (or
// htiersim -json) of the same spec produces.
//
// Usage:
//
//	htiersimd [-addr :8080] [-jobs 2] [-sweep-workers 0] [-queue 64]
//	          [-cache-mb 256] [-cache-dir DIR] [-cache-disk-mb 0]
//	          [-corpus-dir DIR] [-max-trace-mb 1024] [-drain-timeout 1m]
//	          [-journal FILE] [-scrub-interval 0]
//	          [-worker -join URL [-advertise URL]]
//
// Submit work with htiersim -submit http://host:8080 (plus the usual
// sweep flags), or POST a JSON spec to /jobs directly:
//
//	curl -s localhost:8080/jobs -d '{"workload":"cdn","policies":["HybridTier","Memtis"]}'
//
// -jobs bounds concurrently RUNNING jobs while -sweep-workers bounds the
// concurrent cells WITHIN each job (0 = all cores); the defaults favor
// finishing one sweep fast over starting many. -cache-dir enables the
// on-disk result store, which survives restarts: a resubmitted spec is
// served from disk without re-running; -cache-disk-mb bounds that store,
// evicting oldest results first (0 = unbounded).
//
// A daemon with a -cache-dir is crash-safe (docs/DURABILITY.md): jobs
// are journaled to <cache-dir>/journal.wal (relocatable with -journal),
// so a killed daemon resubmits its queued and running sweeps on restart —
// and because every completed cell was written through to the result
// store as it finished, the resumed sweeps re-run only the cells the
// crash lost, producing byte-identical results. -scrub-interval starts a
// background integrity pass over the result store and the trace corpus
// at that period (0 = off): entries whose bytes no longer match their
// content address are quarantined, never served, and the latest pass is
// reported in /healthz's "integrity" section.
//
// -corpus-dir roots the content-addressed trace corpus behind POST
// /traces and corpus:<hash> workloads. When the flag is empty the daemon
// still serves the trace API out of a private temporary directory —
// uploads work, but they vanish with the process; point -corpus-dir at a
// real path to keep them. -max-trace-mb bounds one upload.
//
// Daemons federate into a sweep fabric (docs/FABRIC.md). By default a
// daemon is a coordinator: worker daemons started with
// -worker -join http://coordinator:8080 register with it (registration
// doubles as heartbeat), pull shards of each submitted sweep, and the
// coordinator merges their per-cell results into bytes identical to a
// single-process run. -advertise sets the URL the coordinator dials back;
// it defaults to the loopback address of the worker's listener, which is
// only right when the fleet shares a host. Worker loss mid-sweep requeues
// its cells; a coordinator with no live workers simply runs sweeps
// in-process, so a fleet of one daemon behaves exactly as before. Caches
// federate too: a result cached by any member is a read-through hit for
// the others.
//
// On SIGTERM or SIGINT the daemon
// drains gracefully — intake returns 503, running jobs get -drain-timeout
// to finish (then are canceled), and in-flight event streams run to their
// terminal event before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/service"
)

// loopbackURL derives the default -advertise value from the bound
// listener: loopback plus the real port, right for single-host fleets
// (and the tests), wrong across hosts — where -advertise is mandatory.
func loopbackURL(addr net.Addr) string {
	_, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	return "http://127.0.0.1:" + port
}

// newServer bounds how long a client may take over its request headers
// and how long an idle keep-alive connection is held — not bodies or
// responses: trace uploads and event streams are legitimately long.
func newServer(addr string, h http.Handler) *http.Server {
	const readHeaderTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is main with its environment injected: args are the command-line
// arguments, logw receives the daemon's log, and ready (when non-nil) is
// closed once the listener is serving — the hook the in-process tests
// use. It returns the process exit code.
func run(args []string, logw io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("htiersimd", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	jobWorkers := fs.Int("jobs", 2, "concurrently running jobs")
	sweepWorkers := fs.Int("sweep-workers", 0, "concurrent cells per job (default: all cores)")
	queueDepth := fs.Int("queue", 64, "queued-job limit before submissions get 503")
	cacheMB := fs.Int64("cache-mb", 256, "in-memory result cache budget, megabytes")
	cacheDir := fs.String("cache-dir", "", "on-disk result store (empty = memory only)")
	cacheDiskMB := fs.Int64("cache-disk-mb", 0, "on-disk result store budget, megabytes (0 = unbounded)")
	corpusDir := fs.String("corpus-dir", "", "trace corpus directory (empty = private temp dir, lost at exit)")
	maxTraceMB := fs.Int64("max-trace-mb", 1024, "largest accepted trace upload, megabytes")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long running jobs may finish after SIGTERM")
	journalPath := fs.String("journal", "", "job journal file (default: <cache-dir>/journal.wal; empty cache-dir disables)")
	scrubInterval := fs.Duration("scrub-interval", 0, "period between store integrity scrubs (0 = off)")
	workerMode := fs.Bool("worker", false, "join a sweep fabric as a worker instead of coordinating one")
	join := fs.String("join", "", "coordinator base URL to register with (worker mode)")
	advertise := fs.String("advertise", "", "base URL the coordinator dials back (default: loopback + listen port)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(logw, "htiersimd: ", log.LstdFlags)

	cache, err := jobs.NewCache(*cacheMB<<20, *cacheDir)
	if err != nil {
		logger.Print(err)
		return 1
	}
	cache.SetMaxDiskBytes(*cacheDiskMB << 20)

	// The corpus always exists — corpus: workloads must resolve in every
	// daemon — but without -corpus-dir it lives in a temp dir that dies
	// with the process, making the ephemerality explicit rather than
	// silently writing next to the binary.
	dir := *corpusDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "htiersimd-corpus-*")
		if err != nil {
			logger.Print(err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	store, err := corpus.Open(dir)
	if err != nil {
		logger.Print(err)
		return 1
	}
	registry.SetCorpusResolver(store.Path)
	defer registry.SetCorpusResolver(nil)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The listener opens before the handlers exist because worker mode
	// advertises its own port, which is only known once the bind lands.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}

	// The job journal makes restarts resume instead of forget. It defaults
	// on whenever results are durable (-cache-dir) because the two
	// guarantees compose: the journal re-lists finished jobs and resubmits
	// interrupted ones, and the cell engine below serves their already-
	// computed cells from the store.
	jpath := *journalPath
	if jpath == "" && *cacheDir != "" {
		jpath = filepath.Join(*cacheDir, "journal.wal")
	}
	var journal *jobs.Journal
	var resume []jobs.Record
	if jpath != "" {
		journal, resume, err = jobs.OpenJournal(jpath, nil)
		if err != nil {
			logger.Print(err)
			return 1
		}
		defer journal.Close()
		if len(resume) > 0 {
			logger.Printf("journal %s: replaying %d records", jpath, len(resume))
		}
	}

	// Every daemon runs the cell engine (internal/fabric): each completed
	// cell is written through to the cache, so a resumed or overlapping
	// sweep runs only what is missing. A plain daemon coordinates — live
	// workers take its cells, the in-process executor (one cell group under
	// -sweep-workers) while none is registered. -worker resolves the
	// coordinator's shards on the same engine and reads through its cache.
	cells := fabric.LocalCells(*sweepWorkers)
	var runner jobs.Runner
	var fabricHandler http.Handler
	var fleet func() any
	if *workerMode || *join != "" {
		if *join == "" {
			logger.Print("-worker requires -join <coordinator base url>")
			return 2
		}
		adv := *advertise
		if adv == "" {
			adv = loopbackURL(ln.Addr())
		}
		wk := fabric.NewWorker(fabric.WorkerConfig{
			Self:        adv,
			Coordinator: *join,
			Cells:       cells,
			Cache:       cache,
			Log:         logger,
		})
		cache.SetRemote(wk.ProbeCoordinator)
		fabricHandler = wk.Handler()
		runner = wk.Runner()
		go wk.Join(ctx)
		logger.Printf("worker mode: joining %s, advertising %s", *join, adv)
	} else {
		coord := fabric.NewCoordinator(fabric.Config{Cache: cache, Cells: cells, Log: logger})
		cache.SetRemote(coord.ProbeWorkers)
		fabricHandler = coord.Handler()
		fleet = func() any { return coord.Status() }
		runner = coord.Runner()
	}

	manager := jobs.NewManager(jobs.Config{
		Workers:    *jobWorkers,
		QueueDepth: *queueDepth,
		Run:        runner,
		Cache:      cache,
		Journal:    journal,
		Resume:     resume,
	})

	// The background scrubber re-verifies every stored result and trace
	// against its content address; /healthz reports the latest pass and
	// the journal's write health either way.
	if *scrubInterval > 0 {
		go func() {
			ticker := time.NewTicker(*scrubInterval)
			defer ticker.Stop()
			for {
				crep := cache.Scrub()
				trep := store.Scrub()
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
	integrity := func() any {
		body := map[string]any{}
		if rep, ok := cache.LastScrub(); ok {
			body["results"] = rep
		}
		if rep, ok := store.LastScrub(); ok {
			body["traces"] = rep
		}
		if journal != nil {
			j := map[string]any{"path": journal.Path(), "healthy": journal.Err() == nil}
			if err := journal.Err(); err != nil {
				j["error"] = err.Error()
			}
			body["journal"] = j
		}
		return body
	}

	handler := service.NewHandler(service.Config{
		Manager:       manager,
		Corpus:        store,
		MaxTraceBytes: *maxTraceMB << 20,
		Fabric:        fabricHandler,
		Fleet:         fleet,
		Integrity:     integrity,
		Log:           logger,
	})
	srv := newServer(*addr, handler)

	if ready != nil {
		ready <- ln.Addr().String()
	}
	logger.Printf("serving on %s (cache %d MB, dir %q; corpus %q, %d traces)",
		ln.Addr(), *cacheMB, *cacheDir, dir, store.Len())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	// Graceful drain: stop taking jobs, let running ones finish inside
	// the timeout, then close the listener once streams have ended.
	logger.Printf("signal received; draining (timeout %s)", *drainTimeout)
	service.Drain(manager, *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		return 1
	}
	logger.Print("drained cleanly")
	return 0
}
