package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/service"
)

// daemonSpec is what a workload asks of one htiersimd: the flags that
// matter to the benchmark, independent of how the daemon is launched.
type daemonSpec struct {
	cacheDir string
	// cacheMB is the memory-tier budget (0 = the daemon's default).
	cacheMB int
	// join makes the daemon a worker of the coordinator at this URL, running
	// one cell at a time so a fleet of two uses the same two cores a single
	// daemon does.
	join string
}

// server is one running daemon.
type server struct {
	url string
	// pid is 0 for an in-process daemon (smoke pass), whose process figures
	// are the benchmark's own.
	pid  int
	stop func() error // graceful: SIGTERM and wait; idempotent
	// exited is closed when a child process ends, for whatever reason.
	exited <-chan struct{}
}

// launcher starts daemons. procLauncher execs the real binary;
// inprocLauncher wires the same packages inside the benchmark process.
type launcher interface {
	start(spec daemonSpec) (*server, error)
}

const (
	startTimeout = 15 * time.Second
	stopTimeout  = 20 * time.Second
)

// children tracks every live child so that no exit path leaks a daemon.
var children struct {
	sync.Mutex
	procs map[int]*os.Process
}

func killAllChildren() {
	children.Lock()
	defer children.Unlock()
	for pid, p := range children.procs {
		_ = p.Kill()
		delete(children.procs, pid)
	}
}

type procLauncher struct {
	bin string // htiersimd binary
	tmp string // TMPDIR for children, inside the checkout
}

var servingLine = regexp.MustCompile(`serving on (\S+) `)

func (l procLauncher) start(spec daemonSpec) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-cache-dir", spec.cacheDir}
	if spec.cacheMB > 0 {
		args = append(args, "-cache-mb", strconv.Itoa(spec.cacheMB))
	}
	if spec.join != "" {
		args = append(args, "-worker", "-join", spec.join, "-sweep-workers", "1")
	}
	cmd := exec.Command(l.bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+l.tmp)
	// The daemon dies with the benchmark even if the benchmark is SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", l.bin, err)
	}
	children.Lock()
	if children.procs == nil {
		children.procs = map[int]*os.Process{}
	}
	children.procs[cmd.Process.Pid] = cmd.Process
	children.Unlock()

	// One goroutine owns the pipe: it reports the listen address, keeps the
	// last log lines for diagnosis, and reaps the process at EOF.
	addrc := make(chan string, 1)
	exited := make(chan struct{})
	var tail logTail
	go func() {
		defer close(exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			tail.add(line)
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		_ = cmd.Wait()
		children.Lock()
		delete(children.procs, cmd.Process.Pid)
		children.Unlock()
	}()

	kill := func() { _ = cmd.Process.Kill(); <-exited }
	var addr string
	select {
	case addr = <-addrc:
	case <-exited:
		return nil, fmt.Errorf("daemon exited during start-up: %s", tail.String())
	case <-time.After(startTimeout):
		kill()
		return nil, fmt.Errorf("daemon did not report its address within %s: %s", startTimeout, tail.String())
	}
	url := "http://" + addr
	if err := waitHealthy(url, exited); err != nil {
		kill()
		return nil, fmt.Errorf("%w: %s", err, tail.String())
	}
	var once sync.Once
	var stopErr error
	return &server{
		url: url, pid: cmd.Process.Pid, exited: exited,
		stop: func() error {
			once.Do(func() {
				_ = cmd.Process.Signal(syscall.SIGTERM)
				select {
				case <-exited:
				case <-time.After(stopTimeout):
					kill()
					stopErr = fmt.Errorf("daemon %d ignored SIGTERM for %s; killed", cmd.Process.Pid, stopTimeout)
				}
			})
			return stopErr
		},
	}, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string, exited <-chan struct{}) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(startTimeout)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return fmt.Errorf("daemon exited before /healthz answered")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("daemon /healthz not ok within %s", startTimeout)
}

// logTail keeps a daemon's last few log lines.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *logTail) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 8 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *logTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// inprocLauncher assembles a daemon from the same packages cmd/htiersimd
// wires together, behind an httptest server. It exists for the smoke pass,
// which must exercise every workload's code path without building or
// exec'ing the real binary; nothing measured with it is reported.
type inprocLauncher struct{}

func (inprocLauncher) start(spec daemonSpec) (*server, error) {
	mb := int64(spec.cacheMB)
	if mb <= 0 {
		mb = 256
	}
	cache, err := jobs.NewCache(mb<<20, spec.cacheDir)
	if err != nil {
		return nil, err
	}
	store, err := corpus.Open(filepath.Join(spec.cacheDir, "corpus"))
	if err != nil {
		return nil, err
	}
	journal, resume, err := jobs.OpenJournal(filepath.Join(spec.cacheDir, "journal.wal"), nil)
	if err != nil {
		return nil, err
	}
	quiet := log.New(io.Discard, "", 0)
	ctx, cancel := context.WithCancel(context.Background())
	var fabricHandler http.Handler
	var fleet func() any
	var runner jobs.Runner
	// The listener exists before the handler: a worker advertises its URL.
	ts := httptest.NewUnstartedServer(nil)
	url := "http://" + ts.Listener.Addr().String()
	if spec.join != "" {
		runner = service.CellRunner(1, cache)
		wk := fabric.NewWorker(fabric.WorkerConfig{
			Self: url, Coordinator: spec.join, Run: runner, Cache: cache, Log: quiet,
		})
		cache.SetRemote(wk.ProbeCoordinator)
		fabricHandler = wk.Handler()
		go wk.Join(ctx)
	} else {
		coord := fabric.NewCoordinator(fabric.Config{
			Cache: cache, Local: service.CellRunner(0, cache), Log: quiet,
		})
		cache.SetRemote(coord.ProbeWorkers)
		fabricHandler = coord.Handler()
		fleet = func() any { return coord.Status() }
		runner = coord.Runner()
	}
	manager := jobs.NewManager(jobs.Config{
		Workers: 2, Run: runner, Cache: cache, Journal: journal, Resume: resume,
	})
	ts.Config.Handler = service.NewHandler(service.Config{
		Manager: manager, Corpus: store, Fabric: fabricHandler, Fleet: fleet,
	})
	ts.Start()
	var once sync.Once
	return &server{
		url: url,
		stop: func() error {
			once.Do(func() {
				service.Drain(manager, stopTimeout)
				cancel()
				ts.Close()
				journal.Close()
			})
			return nil
		},
	}, nil
}

// procFigures reads a process's CPU seconds (user+system) and peak resident
// set from /proc. pid 0 means the benchmark itself.
func procFigures(pid int) (cpuS, hwmMB float64) {
	dir := "/proc/self"
	if pid != 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	if stat, err := os.ReadFile(dir + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line, in USER_HZ ticks (100 on Linux).
		if i := strings.LastIndexByte(string(stat), ')'); i >= 0 {
			f := strings.Fields(string(stat[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuS = (ut + st) / 100
			}
		}
	}
	if status, err := os.ReadFile(dir + "/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				hwmMB = kb / 1024
			}
		}
	}
	return cpuS, hwmMB
}

// dirMB sums the sizes of the regular files under dir, in megabytes.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// fleetStatus fetches the coordinator's /healthz fleet section.
func fleetStatus(url string) (fabric.FleetStatus, error) {
	var body struct {
		Fleet fabric.FleetStatus `json:"fleet"`
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Get(url + "/healthz")
	if err != nil {
		return body.Fleet, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Fleet, err
}
