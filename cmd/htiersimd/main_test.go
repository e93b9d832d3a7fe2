package main

// Daemon-level tests: run() is main with the listener address, log sink,
// and readiness hook injected, so the full binary behavior — flag
// parsing, serving over a real socket, SIGTERM drain — is testable
// in-process. The HTTP semantics themselves are covered by the
// end-to-end suite in internal/service.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/errfs"
	"repro/internal/service"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, its log buffer, and a wait function returning the exit code after
// SIGTERM-equivalent shutdown.
func startDaemon(t *testing.T, args ...string) (url string, logs *lockedBuffer, wait func() int) {
	t.Helper()
	logs = &lockedBuffer{}
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), logs, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, logs, func() int {
			select {
			case code := <-done:
				return code
			case <-time.After(30 * time.Second):
				t.Fatal("daemon did not exit")
				return -1
			}
		}
	case code := <-done:
		t.Fatalf("daemon exited %d before serving:\n%s", code, logs.String())
		return "", nil, nil
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
		return "", nil, nil
	}
}

// lockedBuffer is a concurrency-safe log sink: the daemon goroutine
// writes while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestDaemonServesAndDrainsOnSigterm(t *testing.T) {
	url, logs, wait := startDaemon(t)

	// The daemon answers health checks.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	// Run one tiny sweep through the real socket so the drain below has
	// completed work to preserve.
	resp, err = http.Post(url+"/jobs", "application/json", strings.NewReader(
		`{"workload":"zipf","params":{"pages":1024},"policies":["LRU"],"ops":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID   string `json:"id"`
		Hash string `json:"hash"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}
	// Stream to terminal; the result must then be fetchable.
	resp, err = http.Get(url + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(events), `"state":"done"`) {
		t.Fatalf("event stream never reached done:\n%s", events)
	}
	resp, err = http.Get(url + "/results/" + sub.Hash)
	if err != nil {
		t.Fatal(err)
	}
	result, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(result, []byte(`"policy":"LRU"`)) {
		t.Fatalf("result fetch: %d %.120s", resp.StatusCode, result)
	}

	// SIGTERM → graceful exit 0, with the drain logged.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := wait(); code != 0 {
		t.Fatalf("exit code %d after SIGTERM:\n%s", code, logs.String())
	}
	for _, want := range []string{"draining", "drained cleanly"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
}

// TestHealthzIntegrityBytes pins the /healthz integrity section's scrub
// reports byte for byte (unix_ns aside): a results pass that adopts,
// verifies and quarantines, and a traces pass, which has no "adopted" key.
// The results store starts in the earlier three-file layout, so the
// first pass folds in the open's conversion: the sum-less entry is
// adopted, then verified as an entry file; the rotten one is quarantined.
func TestHealthzIntegrityBytes(t *testing.T) {
	cacheDir, corpusDir := t.TempDir(), t.TempDir()
	write := func(dir, name, data string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	legacy := errfs.SumHex([]byte("spec"))
	write(cacheDir, legacy+".json", "result") // no .sum: adopted
	write(cacheDir, legacy+".spec.json", "spec")
	rotten := errfs.SumHex([]byte("rotten"))
	write(cacheDir, rotten+".json", "result")
	write(cacheDir, rotten+".sum", errfs.SumHex([]byte("other")))
	trace := errfs.SumHex([]byte("trace"))
	write(corpusDir, trace+".htrc", "junk")
	write(corpusDir, trace+".meta.json", `{"hash":"`+trace+`","size_bytes":4}`)

	url, logs, wait := startDaemon(t, "-cache-dir", cacheDir, "-corpus-dir", corpusDir,
		"-scrub-interval", "1h")
	var integrity map[string]json.RawMessage
	for deadline := time.Now().Add(10 * time.Second); integrity["traces"] == nil; {
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported both scrub passes")
		}
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Integrity map[string]json.RawMessage `json:"integrity"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		integrity = health.Integrity
		time.Sleep(10 * time.Millisecond)
	}
	stamp := regexp.MustCompile(`"unix_ns":[1-9][0-9]*}$`)
	for key, want := range map[string]string{
		"results": `{"scanned":3,"verified":1,"adopted":1,"quarantined":1,"unix_ns":0}`,
		"traces":  `{"scanned":1,"verified":0,"quarantined":1,"unix_ns":0}`,
	} {
		if got := stamp.ReplaceAllString(string(integrity[key]), `"unix_ns":0}`); got != want {
			t.Errorf("integrity.%s = %s, want %s", key, integrity[key], want)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := wait(); code != 0 {
		t.Fatalf("exit code %d after SIGTERM:\n%s", code, logs.String())
	}
}

// TestDaemonFleetShardsSweepAcrossRealSockets: a coordinator daemon and a
// `-worker -join` daemon, both on real ephemeral ports, shard a submitted
// sweep between them. The served result must be byte-identical to an
// in-process run, the coordinator's /healthz must show the live worker
// credited with every cell, and one SIGTERM must drain both cleanly.
func TestDaemonFleetShardsSweepAcrossRealSockets(t *testing.T) {
	coordURL, _, waitCoord := startDaemon(t)
	_, workerLogs, waitWorker := startDaemon(t, "-worker", "-join", coordURL)

	// The worker registers on its first heartbeat; wait for the fleet
	// section to show it live.
	fleetOf := func() (fleet struct {
		Workers []struct {
			URL            string `json:"url"`
			Live           bool   `json:"live"`
			CommittedCells int64  `json:"committed_cells"`
		} `json:"workers"`
		Live int `json:"live"`
	}) {
		resp, err := http.Get(coordURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			Fleet json.RawMessage `json:"fleet"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(health.Fleet, &fleet); err != nil {
			t.Fatalf("healthz fleet section %s: %v", health.Fleet, err)
		}
		return fleet
	}
	deadline := time.Now().Add(15 * time.Second)
	for fleetOf().Live < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never joined the fleet:\n%s", workerLogs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Submit canonical bytes so the expected output is computable locally.
	spec := hybridtier.SweepSpec{
		Workload: "zipf",
		Params:   &hybridtier.WorkloadParams{Pages: 1024},
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, "LRU"},
		Ratios:   []int{8},
		Seeds:    []uint64{1, 2},
		Ops:      2_000,
	}
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	expected, err := service.Runner(2)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(coordURL+"/jobs", "application/json", bytes.NewReader(canonical))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID   string `json:"id"`
		Hash string `json:"hash"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	resp, err = http.Get(coordURL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(events), `"state":"done"`) {
		t.Fatalf("fleet sweep never reached done:\n%s", events)
	}

	resp, err = http.Get(coordURL + "/results/" + sub.Hash)
	if err != nil {
		t.Fatal(err)
	}
	result, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch status %d", resp.StatusCode)
	}
	if !bytes.Equal(result, expected) {
		t.Errorf("fleet-served result differs from the in-process run:\n got %.200s\nwant %.200s", result, expected)
	}

	// All 4 cells ran on the worker daemon, over a real socket.
	fleet := fleetOf()
	if len(fleet.Workers) != 1 || !fleet.Workers[0].Live {
		t.Fatalf("fleet = %+v, want one live worker", fleet)
	}
	if got := fleet.Workers[0].CommittedCells; got != 4 {
		t.Errorf("worker credited with %d cells, want 4", got)
	}

	// One SIGTERM reaches both in-process daemons; each drains to exit 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitWorker(); code != 0 {
		t.Errorf("worker exit %d:\n%s", code, workerLogs.String())
	}
	if code := waitCoord(); code != 0 {
		t.Errorf("coordinator exit %d", code)
	}
}

func TestDaemonWorkerRequiresJoin(t *testing.T) {
	logs := &lockedBuffer{}
	if code := run([]string{"-worker"}, logs, nil); code != 2 {
		t.Errorf("-worker without -join exit %d, want 2", code)
	}
	if !strings.Contains(logs.String(), "-worker requires -join") {
		t.Errorf("log lacks the usage diagnosis:\n%s", logs.String())
	}
}

func TestDaemonBadFlagsExitTwo(t *testing.T) {
	logs := &lockedBuffer{}
	if code := run([]string{"-no-such-flag"}, logs, nil); code != 2 {
		t.Errorf("bad flag exit %d, want 2", code)
	}
	if code := run([]string{"-h"}, logs, nil); code != 0 {
		t.Errorf("-h exit %d, want 0", code)
	}
	if !strings.Contains(logs.String(), "-cache-dir") {
		t.Error("usage text missing from -h output")
	}
}

func TestDaemonBadCacheDirExitsOne(t *testing.T) {
	logs := &lockedBuffer{}
	// A cache dir nested under a regular file cannot be created.
	if code := run([]string{"-addr", "127.0.0.1:0", "-cache-dir", "/dev/null/sub"}, logs, nil); code != 1 {
		t.Errorf("impossible cache dir exit %d, want 1:\n%s", code, logs.String())
	}
	if !strings.Contains(logs.String(), "cache dir: mkdir /dev/null") {
		t.Errorf("the log does not name the cache dir failure:\n%s", logs.String())
	}
}

// TestServerBoundsHeadersAndIdleButNotBodies: a client that never
// finishes its request headers, or parks an idle keep-alive connection,
// is cut off; a long trace upload or event stream is not, so the read and
// write timeouts must stay unset.
func TestServerBoundsHeadersAndIdleButNotBodies(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Errorf("server addr %q handler %v: not what was passed in", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Errorf("ReadHeaderTimeout = %s, IdleTimeout = %s; want 10s and 2m0s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %s, WriteTimeout = %s; want both unset (uploads and streams are long)",
			srv.ReadTimeout, srv.WriteTimeout)
	}
}
