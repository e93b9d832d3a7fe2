// Package jobs is the experiment service's job subsystem: a bounded
// worker pool executing content-addressed jobs with an observable
// lifecycle. It is deliberately ignorant of sweeps — a job is (canonical
// spec bytes, hash, runner function) — so the facade owns canonicalization
// and the simulation, the service (internal/service) owns HTTP, and this
// package owns exactly three things:
//
//   - lifecycle: queued → running → done | failed | canceled, with a
//     monotonically numbered event stream per job that subscribers can
//     replay from any point and tail live (Job.Next);
//   - deduplication: submitting a hash that is already queued or running
//     returns the in-flight job instead of a second execution, and a hash
//     whose result is cached completes instantly without running at all
//     (the zero-cells cache-hit contract the service tests pin);
//   - drain: Drain stops intake, lets running jobs finish (or cancels
//     them when its context expires), and leaves every job in a terminal
//     state — the SIGTERM path of cmd/htiersimd.
//
// Results live in a content-addressed Cache (cache.go): an in-memory LRU
// over the canonical result bytes, optionally backed by an on-disk store
// that survives restarts.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// The lifecycle: Queued and Running are live; Done, Failed, and Canceled
// are terminal. A cache hit is born Done.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Event is one entry of a job's progress stream. Seq numbers events from
// 0 within the job; a subscriber that reconnects resumes from the last
// Seq it saw. Exactly one terminal state event ends every stream.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" or "progress"
	// State is set on "state" events.
	State State `json:"state,omitempty"`
	// Done/Total are set on "progress" events: completed and total cells.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Error carries the failure on the terminal "state" event of a failed
	// or canceled job.
	Error string `json:"error,omitempty"`
	// Result carries the result's content hash on the terminal "state"
	// event of a done job; fetch the bytes from the cache (or
	// GET /results/{hash}).
	Result string `json:"result,omitempty"`
}

// Runner executes one job: spec is the canonical spec JSON, progress
// reports completed cells, and the returned bytes are the job's result
// (cached under the job's hash). A returned error that wraps
// context.Canceled marks the job canceled rather than failed.
type Runner func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error)

// Info is a job's externally visible snapshot, JSON-shaped for the
// service API.
type Info struct {
	ID    string          `json:"id"`
	Hash  string          `json:"hash"`
	State State           `json:"state"`
	Spec  json.RawMessage `json:"spec"`
	// CellsDone/CellsTotal mirror the latest progress event.
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	// CacheHit marks a job served from the result cache without running.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is the failure message of a failed or canceled job.
	Error string `json:"error,omitempty"`
	// Timestamps are Unix nanoseconds; zero means not yet reached.
	CreatedNs  int64 `json:"created_ns"`
	StartedNs  int64 `json:"started_ns,omitempty"`
	FinishedNs int64 `json:"finished_ns,omitempty"`
}

// Job is one submitted experiment. All state is guarded by mu; the event
// history plus cond implement a lossless broadcast: appenders wake every
// waiter, and waiters replay from their own cursor, so no subscriber can
// miss or reorder events however slowly it consumes them.
type Job struct {
	mu   sync.Mutex
	cond *sync.Cond

	id     string
	hash   string
	spec   []byte
	state  State
	events []Event
	// raw[i] is events[i] marshaled to compact JSON, encoded exactly once
	// when the event is appended. Every NDJSON/SSE subscriber streams these
	// shared bytes instead of re-marshaling per connection — the
	// "no per-request JSON re-marshal" half of the daemon's allocation-free
	// serving path. Like events, raw entries are immutable shared history.
	raw      [][]byte
	done     int
	total    int
	cacheHit bool
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time

	cancel context.CancelFunc // non-nil while cancellable
}

func newJob(id, hash string, spec []byte) *Job {
	j := &Job{id: id, hash: hash, spec: spec, state: Queued, created: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	j.appendLockedUnlocked(Event{Type: "state", State: Queued})
	return j
}

// appendLockedUnlocked appends an event, taking the lock itself.
func (j *Job) appendLockedUnlocked(e Event) {
	j.mu.Lock()
	j.appendEvent(e)
	j.mu.Unlock()
}

// appendEvent stamps the sequence number, applies the event to the
// snapshot fields, and wakes subscribers. Callers hold mu.
func (j *Job) appendEvent(e Event) {
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	// Marshal once, here, for every subscriber that will ever stream this
	// event. Event holds only ints and strings, so Marshal cannot fail.
	b, err := json.Marshal(e)
	if err != nil {
		b = []byte(`{"type":"error"}`)
	}
	j.raw = append(j.raw, b)
	switch e.Type {
	case "state":
		j.state = e.State
		j.errMsg = e.Error
	case "progress":
		j.done, j.total = e.Done, e.Total
	}
	j.cond.Broadcast()
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Info snapshots the job.
func (j *Job) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := Info{
		ID: j.id, Hash: j.hash, State: j.state, Spec: j.spec,
		CellsDone: j.done, CellsTotal: j.total,
		CacheHit: j.cacheHit, Error: j.errMsg,
		CreatedNs: j.created.UnixNano(),
	}
	if !j.started.IsZero() {
		info.StartedNs = j.started.UnixNano()
	}
	if !j.finished.IsZero() {
		info.FinishedNs = j.finished.UnixNano()
	}
	return info
}

// NextRaw returns the job's events with Seq >= from, blocking until at
// least one is available or ctx is done. terminal reports that the
// returned slice ends the stream (its last event is a terminal state), so
// a subscriber loops on NextRaw until terminal and never polls. Alongside
// the events it returns each one's preformatted compact-JSON encoding:
// raw[i] encodes events[i], marshaled once at append time and shared by
// every subscriber. Streaming handlers write these bytes directly instead
// of re-marshaling per connection. Both slices are shared history:
// callers must not modify them.
func (j *Job) NextRaw(ctx context.Context, from int) (events []Event, raw [][]byte, terminal bool, err error) {
	if from < 0 {
		from = 0
	}
	// Wake the cond wait when ctx fires; stop() detaches the callback.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= from && !j.state.Terminal() {
		if ctx.Err() != nil {
			return nil, nil, false, ctx.Err()
		}
		j.cond.Wait()
	}
	if len(j.events) <= from {
		// Terminal with nothing new: the caller already saw the end.
		return nil, nil, true, nil
	}
	return j.events[from:], j.raw[from:], j.state.Terminal(), nil
}

// Manager schedules jobs over a bounded worker pool with in-flight
// deduplication and a content-addressed result cache.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job // by id
	order    []*Job          // submission order, for listing
	inflight map[string]*Job // by hash, queued or running only
	seq      int
	draining bool
	queue    chan *Job
	wg       sync.WaitGroup
}

// Config configures a Manager.
type Config struct {
	// Workers bounds concurrently running jobs (default 1). Each job may
	// itself run a concurrent sweep, so the daemon defaults to a small
	// pool rather than one per core.
	Workers int
	// QueueDepth bounds jobs waiting to run (default 64). Submissions
	// beyond it fail with ErrBusy so an overloaded daemon degrades with a
	// clear signal instead of unbounded memory.
	QueueDepth int
	// RetainJobs bounds how many jobs the manager remembers (default
	// 1024). Past it, the oldest TERMINAL jobs are forgotten on each
	// submission — their ids stop resolving, but their results remain
	// addressable by spec hash through the cache — so a long-lived
	// daemon's memory and /jobs listing stay bounded. Live jobs are
	// never evicted.
	RetainJobs int
	// Run executes one job (required).
	Run Runner
	// Cache, when non-nil, serves and stores results by spec hash.
	Cache *Cache
	// Journal, when non-nil, durably records every job transition that
	// changes what a restarted daemon rebuilds its job list from
	// (journal.go). Append failures never fail the job — the journal
	// latches the error for /healthz and the daemon keeps serving from
	// memory.
	Journal *Journal
	// Resume is the record stream recovered by OpenJournal. NewManager
	// replays it: terminal jobs are re-listed, jobs that were queued or
	// running at crash time are resubmitted (served straight from the
	// cache when their result already landed), and the journal is
	// compacted to the surviving state.
	Resume []Record
}

// Submission failure sentinels, distinguished so the service can map them
// to 503 responses.
var (
	ErrBusy     = errors.New("jobs: queue is full")
	ErrDraining = errors.New("jobs: manager is draining")
)

// NewManager starts the worker pool. Callers own its shutdown via Drain.
func NewManager(cfg Config) *Manager {
	if cfg.Run == nil {
		panic("jobs: Config.Run is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	m := &Manager{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
	}
	// Replay the journal before the pool exists: recovered live jobs must
	// all fit the queue, so its capacity is sized after counting them.
	live := m.replay(cfg.Resume)
	depth := cfg.QueueDepth
	if len(live) > depth {
		depth = len(live)
	}
	m.queue = make(chan *Job, depth)
	for _, j := range live {
		m.inflight[j.hash] = j
		m.queue <- j
	}
	m.compactJournal()
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// replay rebuilds the job list from recovered journal records. Terminal
// jobs are re-listed as they ended; jobs that were queued or running when
// the process died come back to life — served instantly when the cache
// already holds their result (the run finished but its terminal record
// didn't land), resubmitted otherwise. Runs before the worker pool
// starts, so no locking subtleties apply yet. Returns the jobs to
// enqueue.
func (m *Manager) replay(records []Record) (live []*Job) {
	for _, rj := range replayRecords(records) {
		j := newJob(m.nextID(), rj.hash, rj.spec)
		switch {
		case rj.state.Terminal():
			ev := Event{Type: "state", State: rj.state, Error: rj.errMsg}
			if rj.state == Done {
				ev.Result = rj.hash
			}
			j.mu.Lock()
			j.finished = time.Now()
			j.appendEvent(ev)
			j.mu.Unlock()
		case rj.spec == nil:
			// A start record with no surviving submit record: the spec is
			// gone, so the job cannot be re-run. Fail it honestly rather
			// than dropping it from the listing.
			j.mu.Lock()
			j.finished = time.Now()
			j.appendEvent(Event{Type: "state", State: Failed,
				Error: "crash recovery: spec not recovered from journal"})
			j.mu.Unlock()
		default:
			cached := false
			if m.cfg.Cache != nil {
				_, cached = m.cfg.Cache.Get(rj.hash)
			}
			if cached {
				now := time.Now()
				j.mu.Lock()
				j.cacheHit = true
				j.started, j.finished = now, now
				j.appendEvent(Event{Type: "state", State: Done, Result: rj.hash})
				j.mu.Unlock()
			} else {
				live = append(live, j)
			}
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j)
	}
	m.pruneLocked()
	return live
}

// compactJournal rewrites the journal to one record per surviving job —
// the bound that keeps replay time proportional to the job list, not the
// daemon's whole history. Runs at startup, after replay settles the list.
func (m *Manager) compactJournal() {
	if m.cfg.Journal == nil {
		return
	}
	recs := make([]Record, 0, len(m.order))
	for _, j := range m.order {
		info := j.Info()
		rec := Record{Hash: info.Hash, Spec: info.Spec}
		switch info.State {
		case Done:
			rec.Type = recDone
		case Failed:
			rec.Type, rec.Error = recFailed, info.Error
		case Canceled:
			rec.Type, rec.Error = recCanceled, info.Error
		default:
			rec.Type = recSubmit
		}
		recs = append(recs, rec)
	}
	_ = m.cfg.Journal.Compact(recs)
}

// journal appends one record, nil-safe and deliberately fire-and-forget:
// the Journal latches its first error for /healthz, and a disk that has
// stopped accepting appends must degrade durability, not availability.
func (m *Manager) journal(rec Record) {
	if m.cfg.Journal != nil {
		_ = m.cfg.Journal.Append(rec)
	}
}

// Submit registers work for the canonical spec with the given content
// hash. Three outcomes, in precedence order:
//
//  1. the cache holds hash → a new job is returned already Done with
//     CacheHit set, having run nothing;
//  2. a job with hash is queued or running → that job is returned
//     (created = false) and nothing is enqueued;
//  3. otherwise a new job is enqueued (created = true).
//
// Errors: ErrDraining after Drain began, ErrBusy when the queue is full.
func (m *Manager) Submit(hash string, spec []byte) (j *Job, created bool, err error) {
	// Probe the cache before taking the manager lock: a disk-backed Get
	// does file I/O, and holding m.mu through it would stall every other
	// API call. The probe can race a concurrent job completing — worst
	// case the same spec runs once more and re-caches the identical
	// bytes, which deduplication here is best-effort about by design.
	cached := false
	if m.cfg.Cache != nil {
		_, cached = m.cfg.Cache.Get(hash)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	if cached {
		j := newJob(m.nextID(), hash, spec)
		now := time.Now()
		j.mu.Lock()
		j.cacheHit = true
		j.started, j.finished = now, now
		j.appendEvent(Event{Type: "state", State: Done, Result: hash})
		j.mu.Unlock()
		m.jobs[j.id] = j
		m.order = append(m.order, j)
		m.pruneLocked()
		m.mu.Unlock()
		// A cache hit is born terminal; journal it as such so a restart
		// re-lists it without consulting the cache. One done record that
		// carries the spec replays as submit + done would, and the journal
		// skips it outright when the hash is already journaled done — so
		// it is appended outside m.mu, yet before Submit acknowledges.
		m.journal(Record{Type: recDone, Hash: hash, Spec: spec})
		return j, true, nil
	}
	defer m.mu.Unlock()
	defer m.pruneLocked()
	if live, ok := m.inflight[hash]; ok {
		return live, false, nil
	}
	j = newJob(m.nextID(), hash, spec)
	// Only Submit sends to the queue once NewManager returns, always under
	// m.mu, and workers only take from it: room seen here is still there
	// at the send below.
	if len(m.queue) == cap(m.queue) {
		return nil, false, ErrBusy
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.inflight[hash] = j
	// Journaled under m.mu, whose fsync serializes submissions: the price
	// of "an acknowledged submit survives a crash". And journaled before
	// the job is queued, so no worker's start or done record can land
	// ahead of it: the fold would read a submit after a done as a new
	// generation, and a restart would run the finished job again.
	m.journal(Record{Type: recSubmit, Hash: hash, Spec: spec})
	m.queue <- j
	return j, true, nil
}

// pruneLocked forgets the oldest terminal jobs past RetainJobs so the
// manager's memory is bounded for daemon lifetimes. Callers hold m.mu;
// job state is read under each job's own lock (m.mu → j.mu is the one
// nesting order used anywhere).
func (m *Manager) pruneLocked() {
	excess := len(m.order) - m.cfg.RetainJobs
	if excess <= 0 {
		return
	}
	// The common case: the oldest excess jobs are all terminal, so they
	// leave as a prefix without locking or copying the rest.
	if !slices.ContainsFunc(m.order[:excess], func(j *Job) bool { return !j.terminal() }) {
		for _, j := range m.order[:excess] {
			delete(m.jobs, j.id)
		}
		clear(m.order[:excess])
		m.order = m.order[excess:]
		return
	}
	kept := make([]*Job, 0, len(m.order)-excess)
	for _, j := range m.order {
		if excess > 0 && j.terminal() {
			delete(m.jobs, j.id)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// terminal reads the job's state under its own lock.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// nextID mints "job-N". Callers hold mu.
func (m *Manager) nextID() string {
	m.seq++
	return fmt.Sprintf("job-%d", m.seq)
}

// Get finds a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs snapshots every known job in submission order.
func (m *Manager) Jobs() []Info {
	m.mu.Lock()
	order := append([]*Job(nil), m.order...)
	m.mu.Unlock()
	out := make([]Info, len(order))
	for i, j := range order {
		out[i] = j.Info()
	}
	return out
}

// ResultTagged fetches a cached result by content hash, with the entry's
// preformatted strong-ETag header value (see Cache.GetTagged) — the
// serving hot path's lookup.
func (m *Manager) ResultTagged(hash string) (data []byte, etag []string, ok bool) {
	if m.cfg.Cache == nil {
		return nil, nil, false
	}
	return m.cfg.Cache.GetTagged(hash)
}

// Cancel requests cancellation of a job. A queued job goes terminal
// immediately; a running job's context is canceled and the runner decides
// how fast to stop. Canceling a terminal job is a no-op. ok reports the
// id was known.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	switch {
	case j.state == Queued:
		j.finished = time.Now()
		j.appendEvent(Event{Type: "state", State: Canceled, Error: "canceled while queued"})
		j.mu.Unlock()
		m.forgetInflight(j)
		m.journal(Record{Type: recCanceled, Hash: j.hash, Error: "canceled while queued"})
	case j.state == Running && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
	default:
		j.mu.Unlock()
	}
	return true
}

// forgetInflight drops j from the dedupe table if it is still the entry
// for its hash.
func (m *Manager) forgetInflight(j *Job) {
	m.mu.Lock()
	if m.inflight[j.hash] == j {
		delete(m.inflight, j.hash)
	}
	m.mu.Unlock()
}

// worker executes queued jobs until the queue closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job through its lifecycle.
func (m *Manager) runJob(j *Job) {
	defer m.forgetInflight(j)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.cancel = cancel
	j.started = time.Now()
	j.appendEvent(Event{Type: "state", State: Running})
	spec := j.spec
	j.mu.Unlock()
	m.journal(Record{Type: recStart, Hash: j.hash})

	result, err := m.cfg.Run(ctx, spec, func(done, total int) {
		j.appendLockedUnlocked(Event{Type: "progress", Done: done, Total: total})
	})
	if err == nil && m.cfg.Cache != nil {
		// Put inserts into memory unconditionally; only the on-disk copy
		// can fail, and a run that completed must not be reported lost
		// over it — the result still serves from memory. It runs before
		// j.mu is taken, so readers of the job never wait on its fsyncs,
		// and before the Done event, so a client told Done finds the result.
		_ = m.cfg.Cache.Put(j.hash, result, spec)
	}

	j.mu.Lock()
	j.cancel = nil
	j.finished = time.Now()
	var term Record
	switch {
	case err == nil:
		j.appendEvent(Event{Type: "state", State: Done, Result: j.hash})
		term = Record{Type: recDone, Hash: j.hash}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.appendEvent(Event{Type: "state", State: Canceled, Error: err.Error()})
		term = Record{Type: recCanceled, Hash: j.hash, Error: err.Error()}
	default:
		j.appendEvent(Event{Type: "state", State: Failed, Error: err.Error()})
		term = Record{Type: recFailed, Hash: j.hash, Error: err.Error()}
	}
	j.mu.Unlock()
	// The terminal record lands after the cache write above, so a crash
	// between them replays as still-running and resubmits — and the
	// resubmission is then served straight from the cache.
	m.journal(term)
}

// Drain shuts the manager down: intake stops (Submit returns
// ErrDraining), queued and running jobs are given until ctx expires to
// finish, then everything still live is canceled and awaited. Drain
// returns when every worker has exited; every job is then terminal.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.waitWorkers(ctx)
		return
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()
	m.waitWorkers(ctx)
}

// waitWorkers blocks for the pool, escalating to cancellation when ctx
// expires.
func (m *Manager) waitWorkers(ctx context.Context) {
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: cancel everything still live and wait for the
		// workers to observe it. Queued-but-never-started jobs are
		// terminal-marked by Cancel directly.
		m.mu.Lock()
		live := append([]*Job(nil), m.order...)
		m.mu.Unlock()
		for _, j := range live {
			m.Cancel(j.ID())
		}
		<-done
	}
}
