// Command htiersimd is the experiment service daemon: an HTTP server
// that accepts sweep specifications, schedules them on a bounded worker
// pool, streams per-cell progress, and serves results from a
// content-addressed cache — so identical experiments are computed once
// and shared by every client, byte-identical to an in-process run.
//
// Usage:
//
//	htiersimd [-addr :8080] [-jobs 2] [-sweep-workers 0] [-queue 64]
//	          [-cache-mb 256] [-cache-dir DIR] [-cache-disk-mb 0]
//	          [-corpus-dir DIR] [-max-trace-mb 1024] [-drain-timeout 1m]
//	          [-journal FILE] [-scrub-interval 0]
//	          [-worker -join URL [-advertise URL]]
//
// Submit work with htiersim -submit http://host:8080. This command owns
// the flags, the listener and the signals; everything it serves is
// assembled by service.NewDaemon. docs/SERVICE.md documents the API, the
// cache, the trace corpus and the drain; docs/DURABILITY.md the journal
// and the integrity scrubber; docs/FABRIC.md the fleet. On SIGTERM or
// SIGINT the daemon drains gracefully — intake returns 503, running jobs
// get -drain-timeout to finish (then are canceled), and in-flight event
// streams run to their terminal event before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

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
// arguments, logw receives the daemon's log, and ready (when non-nil)
// receives the bound address — the in-process tests' hook. It returns the
// process exit code.
func run(args []string, logw io.Writer, ready chan<- string) int {
	var cfg service.DaemonConfig
	fs := flag.NewFlagSet("htiersimd", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	fs.IntVar(&cfg.Jobs, "jobs", 2, "concurrently running jobs")
	fs.IntVar(&cfg.SweepWorkers, "sweep-workers", 0, "concurrent cells per job (default: all cores)")
	fs.IntVar(&cfg.Queue, "queue", 64, "queued-job limit before submissions get 503")
	fs.Int64Var(&cfg.CacheMB, "cache-mb", 256, "in-memory result cache budget, megabytes")
	fs.StringVar(&cfg.CacheDir, "cache-dir", "", "on-disk result store (empty = memory only)")
	fs.Int64Var(&cfg.CacheDiskMB, "cache-disk-mb", 0, "on-disk result store budget, megabytes (0 = unbounded)")
	fs.StringVar(&cfg.CorpusDir, "corpus-dir", "", "trace corpus directory (empty = private temp dir, lost at exit)")
	fs.Int64Var(&cfg.MaxTraceMB, "max-trace-mb", 1024, "largest accepted trace upload, megabytes")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long running jobs may finish after SIGTERM")
	fs.StringVar(&cfg.Journal, "journal", "", "job journal file (default: <cache-dir>/journal.wal; empty cache-dir disables)")
	fs.DurationVar(&cfg.ScrubInterval, "scrub-interval", 0, "period between store integrity scrubs (0 = off)")
	fs.BoolVar(&cfg.Worker, "worker", false, "join a sweep fabric as a worker instead of coordinating one")
	fs.StringVar(&cfg.Join, "join", "", "coordinator base URL to register with (worker mode)")
	fs.StringVar(&cfg.Advertise, "advertise", "", "base URL the coordinator dials back (default: loopback + listen port)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(logw, "htiersimd: ", log.LstdFlags)
	cfg.Log = logger
	if cfg.Worker && cfg.Join == "" {
		logger.Print("-worker requires -join <coordinator base url>")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The listener opens before the daemon exists because worker mode
	// advertises its own port, which is only known once the bind lands.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	if cfg.Advertise == "" {
		// Loopback plus the bound port: right for single-host fleets (and
		// the tests), wrong across hosts — where -advertise is mandatory.
		cfg.Advertise = fmt.Sprintf("http://127.0.0.1:%d", ln.Addr().(*net.TCPAddr).Port)
	}
	d, err := service.NewDaemon(cfg)
	if err != nil {
		ln.Close()
		logger.Print(err)
		return 1
	}
	defer d.Close()
	srv := newServer(*addr, d.Handler())

	if ready != nil {
		ready <- ln.Addr().String()
	}
	logger.Printf("serving on %s (cache %d MB, dir %q; corpus %q, %d traces)",
		ln.Addr(), cfg.CacheMB, cfg.CacheDir, d.Corpus().Dir(), d.Corpus().Len())
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
	d.Drain(*drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		return 1
	}
	logger.Print("drained cleanly")
	return 0
}
