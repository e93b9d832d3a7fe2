package main

// -submit tests: the CLI against a real daemon handler over httptest.
// The pinned contract is the strongest the service makes: `-submit URL
// ... -json` prints byte-for-byte what the same flags print when
// simulating locally — cache hit or not.

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// newDaemon assembles a full daemon through service.NewDaemon, as
// htiersimd does, and drains and closes it when the test ends.
func newDaemon(t *testing.T) *service.Daemon {
	t.Helper()
	d, err := service.NewDaemon(service.DaemonConfig{Jobs: 1, SweepWorkers: 2, CacheMB: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Drain(30 * time.Second); d.Close() })
	return d
}

// startServiceServer serves a newDaemon on httptest.
func startServiceServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newDaemon(t).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestSubmitJSONByteIdenticalToLocalRun(t *testing.T) {
	srv := startServiceServer(t)
	args := []string{
		"-workload", "mix:0.7*zipf,0.3*zipf",
		"-policy", "HybridTier,LRU",
		"-seed", "1,2",
		"-scale", "tiny", "-ops", "3000", "-json",
	}
	code, local, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local run exited %d: %s", code, stderr)
	}
	code, served, stderr := runCLI(t, append(args, "-submit", srv.URL)...)
	if code != 0 {
		t.Fatalf("submitted run exited %d: %s", code, stderr)
	}
	if served != local {
		t.Error("daemon-served -json output differs from the local run's")
	}

	// Resubmission: a cache hit that prints the same bytes again.
	code, cached, stderr := runCLI(t, append(args, "-submit", srv.URL)...)
	if code != 0 {
		t.Fatalf("cache-hit run exited %d: %s", code, stderr)
	}
	if cached != local {
		t.Error("cache-hit output differs from the local run's")
	}
	if !strings.Contains(stderr, "cache hit") {
		t.Errorf("stderr does not mention the cache hit: %q", stderr)
	}
}

func TestSubmitTableOutputAndProgress(t *testing.T) {
	srv := startServiceServer(t)
	code, out, stderr := runCLI(t,
		"-workload", "zipf", "-policy", "HybridTier,LRU",
		"-scale", "tiny", "-ops", "2000",
		"-submit", srv.URL)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"policy", "HybridTier", "LRU"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr, "cells") {
		t.Errorf("no progress line on stderr: %q", stderr)
	}
}

func TestSubmitRejectionsAndConflicts(t *testing.T) {
	srv := startServiceServer(t)
	// The daemon's 400 carries the validator's exact message; the CLI
	// relays it and exits 2 like local validation does.
	code, _, stderr := runCLI(t, "-workload", "mix:zipf", "-submit", srv.URL)
	if code != 2 {
		t.Errorf("bad grammar via daemon: exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "at least two") {
		t.Errorf("stderr lacks the daemon's diagnosis: %q", stderr)
	}

	for _, args := range [][]string{
		{"-submit", srv.URL, "-record", "x.htrc"},
		{"-submit", srv.URL, "-replay", "x.htrc"},
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 2 || !strings.Contains(stderr, "conflict") {
			t.Errorf("%v: exit %d stderr %q, want conflict diagnosis", args, code, stderr)
		}
	}

	// No daemon listening: connection refused is retried on the full
	// schedule (a restart window), then surfaces as a transport failure —
	// exit 1, not a usage error.
	sleeps := recordSleeps(t)
	code, _, stderr = runCLI(t, "-workload", "zipf", "-submit", "http://127.0.0.1:1")
	if code != 1 {
		t.Errorf("unreachable daemon: exit %d (%s), want 1", code, stderr)
	}
	if len(*sleeps) != submitRetries {
		t.Errorf("refused connection retried %d times (%v), want %d", len(*sleeps), *sleeps, submitRetries)
	}
	if !strings.Contains(stderr, "daemon unreachable") {
		t.Errorf("stderr lacks the unreachable notice: %q", stderr)
	}
}

// TestSubmitRetriesConnectionRefusedThenSucceeds: the daemon's port
// refuses connections (the process is restarting), comes back during the
// backoff, and the submission carries through to a normal exit-0 run —
// with the schedule's first two steps pinned at 200ms and 400ms.
func TestSubmitRetriesConnectionRefusedThenSucceeds(t *testing.T) {
	handler := newDaemon(t).Handler()

	// Reserve an address, then free it: until the "restart" below, every
	// dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var sleeps []time.Duration
	orig := submitSleep
	submitSleep = func(d time.Duration) {
		sleeps = append(sleeps, d)
		if len(sleeps) == 2 {
			// The daemon finishes restarting on the same port.
			ln2, err := net.Listen("tcp", addr)
			if err != nil {
				t.Errorf("rebind %s: %v", addr, err)
				return
			}
			srv := &http.Server{Handler: handler}
			go srv.Serve(ln2)
			t.Cleanup(func() { srv.Close() })
		}
	}
	t.Cleanup(func() { submitSleep = orig })

	code, _, stderr := runCLI(t,
		"-workload", "zipf", "-policy", "LRU",
		"-scale", "tiny", "-ops", "2000",
		"-submit", "http://"+addr)
	if code != 0 {
		t.Fatalf("exit %d, want 0 once the daemon returns: %s", code, stderr)
	}
	if want := []time.Duration{200 * time.Millisecond, 400 * time.Millisecond}; len(sleeps) != 2 || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Errorf("backoff schedule = %v, want %v", sleeps, want)
	}
	if !strings.Contains(stderr, "daemon unreachable") || !strings.Contains(stderr, "retrying in 200ms") {
		t.Errorf("stderr lacks the unreachable retry notice: %q", stderr)
	}
}

// recordSleeps replaces the retry clock with a recorder so backoff tests
// assert the exact schedule without actually waiting it out.
func recordSleeps(t *testing.T) *[]time.Duration {
	t.Helper()
	var sleeps []time.Duration
	orig := submitSleep
	submitSleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	t.Cleanup(func() { submitSleep = orig })
	return &sleeps
}

// drainingHandler builds a REAL daemon handler whose manager has been
// drained: its POST /jobs answers the production 503 "daemon is draining"
// that the retry loop classifies as transient. A handler fixture, not a
// daemon: it never runs a job, so it is assembled by hand.
func drainingHandler(t *testing.T) http.Handler {
	t.Helper()
	cache, err := jobs.NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Config{Workers: 1, Run: service.Runner(1), Cache: cache})
	service.Drain(m, 10*time.Second)
	return service.NewHandler(service.Config{Manager: m})
}

// TestSubmitRetriesDrainingDaemonThenSucceeds: the first two posts land
// on a draining daemon (a restart in progress); the client backs off
// 200ms then 400ms and the third attempt, reaching the recovered daemon,
// carries the submission through to a normal exit-0 run.
func TestSubmitRetriesDrainingDaemonThenSucceeds(t *testing.T) {
	sleeps := recordSleeps(t)
	draining := drainingHandler(t)
	live := startServiceServer(t)

	var posts atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/jobs" && posts.Add(1) <= 2 {
			draining.ServeHTTP(w, r)
			return
		}
		// After the "restart", everything proxies to the live daemon.
		r.URL.Scheme, r.URL.Host = "http", strings.TrimPrefix(live.URL, "http://")
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err != nil {
			t.Errorf("proxy: %v", err)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			return
		}
	}))
	t.Cleanup(front.Close)

	code, _, stderr := runCLI(t,
		"-workload", "zipf", "-policy", "LRU",
		"-scale", "tiny", "-ops", "2000",
		"-submit", front.URL)
	if code != 0 {
		t.Fatalf("exit %d, want 0 after retries: %s", code, stderr)
	}
	if want := []time.Duration{200 * time.Millisecond, 400 * time.Millisecond}; len(*sleeps) != 2 || (*sleeps)[0] != want[0] || (*sleeps)[1] != want[1] {
		t.Errorf("backoff schedule = %v, want %v", *sleeps, want)
	}
	if !strings.Contains(stderr, "daemon unavailable (daemon is draining); retrying in 200ms") {
		t.Errorf("stderr lacks the retry notice: %q", stderr)
	}
}

// TestSubmitRetryExhaustionExitsOne: a daemon that drains forever. The
// client retries submitRetries times with doubling, capped backoff, then
// relays the final 503 and exits 1.
func TestSubmitRetryExhaustionExitsOne(t *testing.T) {
	sleeps := recordSleeps(t)
	srv := httptest.NewServer(drainingHandler(t))
	t.Cleanup(srv.Close)

	code, _, stderr := runCLI(t, "-workload", "zipf", "-submit", srv.URL)
	if code != 1 {
		t.Fatalf("exit %d, want 1 after exhausting retries: %s", code, stderr)
	}
	if !strings.Contains(stderr, "daemon unavailable: daemon is draining") {
		t.Errorf("stderr lacks the final diagnosis: %q", stderr)
	}
	want := []time.Duration{
		200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1600 * time.Millisecond, 3 * time.Second, // the cap clips the fifth doubling
	}
	if len(*sleeps) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(*sleeps), *sleeps, len(want))
	}
	for i, d := range want {
		if (*sleeps)[i] != d {
			t.Errorf("sleep %d = %s, want %s", i, (*sleeps)[i], d)
		}
	}
}
