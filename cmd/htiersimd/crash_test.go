package main

// Crash-restart end-to-end proof. The daemon here is a real child
// process on a real socket (re-exec of this test binary via TestMain),
// because the claim under test — SIGKILL mid-sweep loses nothing that
// reached disk — cannot be made about a goroutine. The sequence:
//
//	start daemon #1 → submit a multi-cell sweep → wait for the first
//	cell's write-through to land on disk → SIGKILL → restart on the
//	same directories → the journal resubmits the sweep, the cell
//	runner re-runs only the lost cells → the served result is
//	byte-identical to an uninterrupted in-process run, and the cells
//	that survived the crash were not re-run (their files untouched).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/service"
)

// TestMain re-execs: with HTIERSIMD_CRASH_CHILD set, the test binary IS
// the daemon — it runs run() with the args from the environment and
// reports its bound address through the named file, so the parent test
// can SIGKILL a real process mid-sweep.
func TestMain(m *testing.M) {
	if os.Getenv("HTIERSIMD_CRASH_CHILD") == "1" {
		var argv []string
		if err := json.Unmarshal([]byte(os.Getenv("HTIERSIMD_CRASH_ARGS")), &argv); err != nil {
			os.Exit(3)
		}
		ready := make(chan string, 1)
		go func() {
			addr := <-ready
			file := os.Getenv("HTIERSIMD_CRASH_ADDRFILE")
			if err := os.WriteFile(file+".tmp", []byte(addr), 0o644); err == nil {
				os.Rename(file+".tmp", file)
			}
		}()
		os.Exit(run(argv, os.Stderr, ready))
	}
	os.Exit(m.Run())
}

// startChildDaemon spawns the re-exec'd daemon, with tmpDir as its TMPDIR,
// and waits for its address.
func startChildDaemon(t *testing.T, workDir, tmpDir string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	argv, err := json.Marshal(append([]string{"-addr", "127.0.0.1:0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(workDir, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"HTIERSIMD_CRASH_CHILD=1",
		"HTIERSIMD_CRASH_ARGS="+string(argv),
		"HTIERSIMD_CRASH_ADDRFILE="+addrFile,
		"TMPDIR="+tmpDir,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			return cmd, "http://" + string(addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("child daemon never reported its address")
	return nil, ""
}

// crashSpec is sized so each cell takes a few hundred milliseconds and
// cells run serially (-sweep-workers 1): SIGKILL after the first cell's
// write-through reliably lands mid-sweep with cells still pending.
func crashSpec() hybridtier.SweepSpec {
	return hybridtier.SweepSpec{
		Workload: "zipf",
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, "LRU"},
		Ratios:   []int{8},
		Seeds:    []uint64{1, 2},
		Ops:      3_000_000,
	}
}

// cellFiles snapshots the cache dir's content-addressed files (name →
// bytes) and their mtimes, excluding the journal.
func cellFiles(t *testing.T, dir string) (map[string][]byte, map[string]time.Time) {
	t.Helper()
	contents := map[string][]byte{}
	mtimes := map[string]time.Time{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == "journal.wal" || name == "addr" ||
			strings.HasPrefix(name, ".atomic-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		contents[name] = data
		mtimes[name] = info.ModTime()
	}
	return contents, mtimes
}

func TestDaemonSIGKILLMidSweepResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second crash-restart e2e")
	}
	spec := crashSpec()
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	hash := hybridtier.HashCanonicalJSON(canonical)

	// The uninterrupted baseline, computed in-process: what the daemon
	// must serve after the crash, byte for byte.
	want, err := service.Runner(1)(context.Background(), canonical, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every directory the daemons write lives under the test's temp dir:
	// the store, the corpus, and TMPDIR, which must stay empty.
	cacheDir, corpusDir, tmpDir := t.TempDir(), t.TempDir(), t.TempDir()
	daemonArgs := []string{"-cache-dir", cacheDir, "-corpus-dir", corpusDir, "-jobs", "1", "-sweep-workers", "1"}
	cmd1, url1 := startChildDaemon(t, cacheDir, tmpDir, daemonArgs...)
	defer cmd1.Process.Kill()

	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url1+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Wait for the first cell's write-through (its .entry file) to land,
	// then SIGKILL — no drain, no flush, the crash the journal exists for.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no cell ever reached the store")
		}
		entries, err := os.ReadDir(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		landed := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".entry") {
				landed++
			}
		}
		if landed >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd1.Wait()

	preContents, preMtimes := cellFiles(t, cacheDir)
	stored := 0
	for name := range preContents {
		if strings.HasSuffix(name, ".entry") {
			stored++
		}
	}
	t.Logf("killed with %d/4 cells on disk", stored)
	if stored == 0 || stored >= 4 {
		t.Fatalf("kill landed outside the sweep (%d cells cached); the resume claim needs a partial store", stored)
	}

	// File mtimes must be distinguishable across the restart even on a
	// coarse-granularity filesystem.
	time.Sleep(20 * time.Millisecond)

	// Restart on the same directories. The journal resubmits the lost
	// sweep with no client involvement; poll the result straight away.
	cmd2, url2 := startChildDaemon(t, cacheDir, tmpDir, append(daemonArgs, "-scrub-interval", "100ms")...)
	defer cmd2.Process.Kill()

	var got []byte
	deadline = time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never served the interrupted sweep's result")
		}
		resp, err := http.Get(url2 + "/results/" + hash)
		if err == nil {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				got = data
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result diverges from uninterrupted run:\n got %.200s\nwant %.200s", got, want)
	}

	// The cells that survived the crash were served, not re-run: their
	// files carry the same bytes and the same mtimes.
	_, postMtimes := cellFiles(t, cacheDir)
	postContents, _ := cellFiles(t, cacheDir)
	for name, data := range preContents {
		if now, ok := postContents[name]; !ok || !bytes.Equal(now, data) {
			t.Errorf("pre-crash file %s rewritten during resume", name)
		}
		if !postMtimes[name].Equal(preMtimes[name]) {
			t.Errorf("pre-crash file %s touched during resume (mtime %v → %v)",
				name, preMtimes[name], postMtimes[name])
		}
	}

	// /healthz reports the journal healthy and, once the 100ms scrubber
	// has run, a clean pass over the resumed store.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported an integrity scrub")
		}
		resp, err := http.Get(url2 + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Integrity struct {
				Journal struct {
					Healthy bool `json:"healthy"`
				} `json:"journal"`
				Results *struct {
					Scanned     int `json:"scanned"`
					Quarantined int `json:"quarantined"`
				} `json:"results"`
			} `json:"integrity"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if health.Integrity.Results != nil {
			if !health.Integrity.Journal.Healthy {
				t.Error("journal unhealthy after clean resume")
			}
			if health.Integrity.Results.Scanned == 0 || health.Integrity.Results.Quarantined != 0 {
				t.Errorf("scrub report %+v over a healthy resumed store", *health.Integrity.Results)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The restarted daemon shuts down cleanly.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("restarted daemon exited dirty: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restarted daemon did not exit on SIGTERM")
	}
	if left, err := os.ReadDir(tmpDir); err != nil || len(left) > 0 {
		t.Errorf("the daemons left %d entries in TMPDIR (%v)", len(left), err)
	}
}
