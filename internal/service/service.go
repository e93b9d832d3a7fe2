// Package service is the experiment daemon (cmd/htiersimd) short of its
// flags, listener and signals: NewDaemon (daemon.go) assembles the result
// cache, trace corpus, job journal, the cell engine of internal/fabric,
// the job manager of internal/jobs and the integrity scrubber behind the
// HTTP handler, which translates the REST+streaming API described in
// docs/SERVICE.md. Beside them lives Runner, the plain Sweep.Run
// reference the engine's output is tested against. Living in internal/
// keeps the daemon constructible by tests without exporting a server API
// from the facade.
//
// The API's central guarantee is inherited, not implemented, here: a
// sweep's JSON is a pure function of its canonical spec, so /results/{hash}
// serves what an in-process Sweep.Run of the spec marshals, however it was
// computed or stored. The end-to-end tests pin that identity.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	hybridtier "repro"
	"repro/internal/corpus"
	"repro/internal/errfs"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// Version is reported by /healthz so operators can tell what they are
// talking to.
const Version = "htiersimd/1"

// Config assembles a handler.
type Config struct {
	// Manager schedules and caches jobs (required).
	Manager *jobs.Manager
	// Corpus is the content-addressed trace store behind /traces and the
	// corpus:<hash> workload scheme. Nil disables the trace API (503) and
	// makes corpus specs unsubmittable.
	Corpus *corpus.Store
	// MaxTraceBytes bounds one trace upload (0 = defaultMaxTraceBytes).
	MaxTraceBytes int64
	// Fabric, when non-nil, serves /fabric/... (full patterns, no prefix
	// stripped): a coordinator's or worker's side of internal/fabric.
	Fabric http.Handler
	// Fleet, when non-nil, contributes a "fleet" section to /healthz —
	// the coordinator's fabric.FleetStatus snapshot.
	Fleet func() any
	// Log receives one line per request outcome; nil silences.
	Log *log.Logger
}

// defaultMaxTraceBytes bounds trace uploads when Config leaves the knob
// zero: large enough for hundred-million-op captures, small enough that
// one stray upload cannot fill a disk.
const defaultMaxTraceBytes = 1 << 30

// Runner returns the reference jobs.Runner: the canonical spec's Sweep run
// whole with sweepWorkers concurrent cells, marshaled as the golden tests
// do (encoding/json, compact); per-cell failures are data in the cells'
// "error" fields, as in the CLI. No daemon runs jobs on it: every
// byte-identity test compares the cell engine against it, so it stays plain.
func Runner(sweepWorkers int) jobs.Runner {
	return func(ctx context.Context, canonical []byte, progress func(done, total int)) ([]byte, error) {
		var spec hybridtier.SweepSpec
		if err := json.Unmarshal(canonical, &spec); err != nil {
			return nil, fmt.Errorf("service: corrupt canonical spec: %w", err)
		}
		sw, err := spec.Sweep()
		if err != nil {
			return nil, err
		}
		sw.Workers = sweepWorkers
		sw.Progress = progress
		cells, err := sw.Run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(cells)
	}
}

// handler carries the mux plus its dependencies.
type handler struct {
	m         *jobs.Manager
	corpus    *corpus.Store
	maxTrace  int64
	fleet     func() any
	integrity func() any
	log       *log.Logger
}

// NewHandler builds the daemon's http.Handler. Routes:
//
//	GET    /healthz          liveness + job/cache counters
//	GET    /workloads        registered workloads, policies, grammar syntax
//	POST   /jobs             submit a SweepSpec; 400 carries the validator's exact message
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        one job's snapshot
//	DELETE /jobs/{id}        request cancellation
//	GET    /jobs/{id}/events stream progress (NDJSON; SSE on Accept: text/event-stream)
//	GET    /results/{hash}   canonical sweep JSON by content hash
//	POST   /traces           upload a trace into the corpus; returns its content hash
//	GET    /traces           list stored traces
//	GET    /traces/{hash}        one trace's metadata
//	GET    /traces/{hash}/bytes  the stored trace bytes, verbatim
//	       /fabric/...           sweep-fabric protocol, when Config.Fabric is set (docs/FABRIC.md)
func NewHandler(cfg Config) http.Handler { return newHandler(cfg, nil) }

// newHandler is NewHandler plus the daemon's /healthz "integrity" section.
func newHandler(cfg Config, integrity func() any) http.Handler {
	maxTrace := cfg.MaxTraceBytes
	if maxTrace <= 0 {
		maxTrace = defaultMaxTraceBytes
	}
	h := &handler{
		m: cfg.Manager, corpus: cfg.Corpus, maxTrace: maxTrace,
		fleet: cfg.Fleet, integrity: integrity, log: cfg.Log,
	}
	mux := http.NewServeMux()
	if cfg.Fabric != nil {
		mux.Handle("/fabric/", cfg.Fabric)
	}
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /workloads", h.workloads)
	mux.HandleFunc("POST /jobs", h.submit)
	mux.HandleFunc("GET /jobs", h.list)
	mux.HandleFunc("GET /jobs/{id}", h.job)
	mux.HandleFunc("DELETE /jobs/{id}", h.cancel)
	mux.HandleFunc("GET /jobs/{id}/events", h.events)
	mux.HandleFunc("GET /results/{hash}", h.result)
	mux.HandleFunc("POST /traces", h.uploadTrace)
	mux.HandleFunc("GET /traces", h.listTraces)
	mux.HandleFunc("GET /traces/{hash}", h.trace)
	mux.HandleFunc("GET /traces/{hash}/bytes", h.traceBytes)
	return mux
}

// errorBody is every non-2xx JSON payload: {"error": "..."}.
func (h *handler) error(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// reply writes v as JSON with the given status.
func (h *handler) reply(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (h *handler) logf(format string, args ...any) {
	if h.log != nil {
		h.log.Printf(format, args...)
	}
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	states := map[jobs.State]int{}
	for _, info := range h.m.Jobs() {
		states[info.State]++
	}
	body := map[string]any{
		"status":  "ok",
		"version": Version,
		"jobs":    states,
	}
	if h.corpus != nil {
		body["traces"] = h.corpus.Len()
	}
	if h.fleet != nil {
		body["fleet"] = h.fleet()
	}
	if h.integrity != nil {
		body["integrity"] = h.integrity()
	}
	h.reply(w, http.StatusOK, body)
}

// workloadInfo is one /workloads row.
type workloadInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

func (h *handler) workloads(w http.ResponseWriter, r *http.Request) {
	var wl, pol []workloadInfo
	for _, name := range registry.Workloads.Names() {
		e, _ := registry.Workloads.Lookup(name)
		wl = append(wl, workloadInfo{Name: name, Doc: e.Doc})
	}
	for _, name := range registry.Policies.Names() {
		e, _ := registry.Policies.Lookup(name)
		pol = append(pol, workloadInfo{Name: name, Doc: e.Doc})
	}
	h.reply(w, http.StatusOK, map[string]any{
		"workloads":   wl,
		"policies":    pol,
		"composition": registry.SpecSyntax(),
	})
}

// submitResponse is the POST /jobs payload: the job snapshot plus the
// URLs a client needs next.
type submitResponse struct {
	jobs.Info
	EventsURL string `json:"events_url"`
	ResultURL string `json:"result_url"`
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec hybridtier.SweepSpec
	if err := dec.Decode(&spec); err != nil {
		h.error(w, http.StatusBadRequest, "bad spec JSON: "+err.Error())
		return
	}
	// Canonicalize once; the job stores and executes the canonical form,
	// and the 400 text is exactly what the validator reports (pinned by
	// the registry's error-message tests).
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		h.error(w, http.StatusBadRequest, err.Error())
		return
	}
	// corpus:<hash> workloads are content-addressed, so they cache soundly —
	// but only if the hashes exist HERE. Checked at submit so an unknown
	// hash is an immediate 400 naming it, not a mid-sweep build failure.
	if hashes, herr := registry.Workloads.CorpusHashes(spec.Workload); herr == nil && len(hashes) > 0 {
		if h.corpus == nil {
			h.error(w, http.StatusBadRequest, "this daemon has no trace corpus; corpus: workloads cannot run here")
			return
		}
		for _, th := range hashes {
			if _, ok := h.corpus.Get(th); !ok {
				h.error(w, http.StatusBadRequest, "corpus trace "+th+" is not in this daemon's store; upload it via POST /traces first")
				return
			}
		}
	}
	hash := hybridtier.HashCanonicalJSON(canonical)
	job, created, err := h.m.Submit(hash, canonical)
	switch {
	case errors.Is(err, jobs.ErrDraining):
		h.error(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	case errors.Is(err, jobs.ErrBusy):
		h.error(w, http.StatusServiceUnavailable, "job queue is full")
		return
	case err != nil:
		h.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	// 200 means a cache hit. A fresh job the workers finish before this
	// read is Done too, but it was accepted, not served from the cache.
	info := job.Info()
	code := http.StatusAccepted
	if info.CacheHit {
		code = http.StatusOK
	}
	h.logf("submit %s hash=%s created=%v state=%s", info.ID, hash[:12], created, info.State)
	h.reply(w, code, submitResponse{
		Info:      info,
		EventsURL: "/jobs/" + info.ID + "/events",
		ResultURL: "/results/" + info.Hash,
	})
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	h.reply(w, http.StatusOK, map[string]any{"jobs": h.m.Jobs()})
}

func (h *handler) job(w http.ResponseWriter, r *http.Request) {
	j, ok := h.m.Get(r.PathValue("id"))
	if !ok {
		h.error(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	h.reply(w, http.StatusOK, j.Info())
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !h.m.Cancel(id) {
		h.error(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	j, _ := h.m.Get(id)
	h.logf("cancel %s", id)
	h.reply(w, http.StatusOK, j.Info())
}

// events streams a job's event history and live tail. NDJSON by default
// (one jobs.Event per line); Server-Sent Events when the client asks for
// text/event-stream. ?from=N resumes after a dropped connection. The
// stream always ends with the job's terminal state event.
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	j, ok := h.m.Get(r.PathValue("id"))
	if !ok {
		h.error(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	from := 0
	// Query() builds a url.Values map per call; skip it on the common
	// no-parameter stream so attaching to a job allocates nothing extra.
	if r.URL.RawQuery != "" {
		if s := r.URL.Query().Get("from"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				h.error(w, http.StatusBadRequest, "bad from parameter: want a non-negative integer")
				return
			}
			from = v
		}
	}
	sse := false
	for _, accept := range r.Header.Values("Accept") {
		if containsMediaType(accept, "text/event-stream") {
			sse = true
		}
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // commit headers before the first (possibly long) wait
	buf := streamBufPool.Get().(*bytes.Buffer)
	defer streamBufPool.Put(buf)
	for {
		events, raw, terminal, err := j.NextRaw(r.Context(), from)
		if err != nil {
			return // client went away
		}
		// Frame the whole batch into one pooled buffer and hand the
		// ResponseWriter a single Write per wakeup: the event bytes were
		// marshaled once at append time (jobs.Job.NextRaw), so the only
		// per-round work here is framing — no JSON re-marshal, no
		// per-event Write syscalls, no allocation in steady state.
		buf.Reset()
		for i, b := range raw {
			if sse {
				buf.WriteString("id: ")
				buf.WriteString(strconv.Itoa(events[i].Seq))
				buf.WriteString("\nevent: ")
				buf.WriteString(events[i].Type)
				buf.WriteString("\ndata: ")
				buf.Write(b)
				buf.WriteString("\n\n")
			} else {
				buf.Write(b)
				buf.WriteByte('\n')
			}
		}
		if _, werr := w.Write(buf.Bytes()); werr != nil {
			return
		}
		flush()
		from += len(events)
		if terminal {
			return
		}
	}
}

// streamBufPool recycles the event-stream framing buffers across
// connections and wakeups; a progress stream otherwise allocates a fresh
// buffer per poll round for the lifetime of every watched job.
var streamBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// containsMediaType reports whether the Accept header value names the
// media type (ignoring ;q= parameters and whitespace).
func containsMediaType(accept, mt string) bool {
	for _, part := range strings.Split(accept, ",") {
		part, _, _ = strings.Cut(part, ";")
		if strings.TrimSpace(part) == mt {
			return true
		}
	}
	return false
}

// Shared immutable header values, assigned directly into the response
// header map on the cache-hit hot path: Header().Set copies its value into
// a fresh one-element slice on every call, and those copies were the last
// allocations on the result-serving path. The map keys must be in
// canonical form ("Etag" is textproto's canonicalization of ETag) or the
// writer would duplicate them.
var (
	jsonCT      = []string{"application/json"}
	immutableCC = []string{"public, max-age=31536000, immutable"}
)

// inmMatch reports whether the request's If-None-Match field matches the
// strong entity tag etag (a quoted hash) under RFC 9110 §8.8.3.2: "*"
// matches any stored response, the field is a comma-separated list of
// entity-tags, and comparison is weak — a W/ prefix is ignored, so
// W/"x" matches "x". Iterating the header slice directly (rather than
// Header.Get) covers clients that split the list over repeated field
// lines, and the scan allocates nothing.
func inmMatch(r *http.Request, etag string) bool {
	for _, v := range r.Header["If-None-Match"] {
		if etagMatch(v, etag) {
			return true
		}
	}
	return false
}

// etagMatch scans one If-None-Match field value for etag. A malformed
// member (unquoted token, unterminated quote) stops the scan and reports
// no match: a client that sent garbage gets the full 200 response, never
// a wrong 304.
func etagMatch(header, etag string) bool {
	i := 0
	for i < len(header) {
		switch header[i] {
		case ' ', '\t', ',':
			i++
			continue
		case '*':
			return true
		case 'W':
			if i+1 < len(header) && header[i+1] == '/' {
				i += 2 // weak tag: compare its opaque part as if strong
				continue
			}
			return false
		case '"':
			j := strings.IndexByte(header[i+1:], '"')
			if j < 0 {
				return false
			}
			if header[i:i+j+2] == etag {
				return true
			}
			i += j + 2
			continue
		default:
			return false
		}
	}
	return false
}

// result serves cached sweep JSON by content hash. The bytes are
// immutable — the hash IS the content address — so the response carries
// a strong ETag and long-lived caching headers. This is the daemon's
// hottest read path and it allocates nothing on a cache hit: the ETag
// header value is preformatted in the cache entry, the other header
// values are shared package-level slices, and the body bytes are written
// straight from the cache.
func (h *handler) result(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !errfs.ValidHash(hash) {
		h.error(w, http.StatusBadRequest, "malformed result hash: want 64 lowercase hex digits")
		return
	}
	data, etag, ok := h.m.ResultTagged(hash)
	if !ok {
		h.error(w, http.StatusNotFound, "no result for hash "+hash)
		return
	}
	// ETag and Cache-Control are set before the conditional check so the
	// 304 carries them too, as RFC 9110 §15.4.5 asks: the client's cache
	// revalidates without losing the immutability hint.
	hdr := w.Header()
	hdr["Etag"] = etag
	hdr["Cache-Control"] = immutableCC
	if inmMatch(r, etag[0]) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr["Content-Type"] = jsonCT
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// needCorpus guards the /traces routes: without a store they answer 503,
// the same "not offered here" signal a draining daemon gives.
func (h *handler) needCorpus(w http.ResponseWriter) bool {
	if h.corpus == nil {
		h.error(w, http.StatusServiceUnavailable, "this daemon has no trace corpus (start htiersimd with -corpus-dir)")
		return false
	}
	return true
}

// traceResponse is one trace's metadata plus the workload spelling a
// client submits to run it — returned by upload, listing, and lookup so
// clients never assemble the scheme by hand.
type traceResponse struct {
	corpus.Meta
	WorkloadSpec string `json:"workload_spec"`
}

func traceResp(m corpus.Meta) traceResponse {
	return traceResponse{Meta: m, WorkloadSpec: registry.CorpusScheme + m.Hash}
}

// uploadTrace ingests a trace stream (chunked uploads welcome: the body
// is hashed as it spools). The trace is verified complete before it is
// published; 201 = new, 200 = the corpus already held these exact bytes.
func (h *handler) uploadTrace(w http.ResponseWriter, r *http.Request) {
	if !h.needCorpus(w) {
		return
	}
	m, created, err := h.corpus.Put(http.MaxBytesReader(w, r.Body, h.maxTrace))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			h.error(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("trace exceeds the %d-byte upload limit", h.maxTrace))
			return
		}
		h.error(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	h.logf("trace upload hash=%s created=%v bytes=%d ops=%d", m.Hash[:12], created, m.SizeBytes, m.Ops)
	h.reply(w, code, traceResp(m))
}

func (h *handler) listTraces(w http.ResponseWriter, r *http.Request) {
	if !h.needCorpus(w) {
		return
	}
	list := h.corpus.List()
	out := make([]traceResponse, len(list))
	for i, m := range list {
		out[i] = traceResp(m)
	}
	h.reply(w, http.StatusOK, map[string]any{"traces": out})
}

func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	if !h.needCorpus(w) {
		return
	}
	hash := r.PathValue("hash")
	if !errfs.ValidHash(hash) {
		h.error(w, http.StatusBadRequest, "malformed trace hash: want 64 lowercase hex digits")
		return
	}
	m, ok := h.corpus.Get(hash)
	if !ok {
		h.error(w, http.StatusNotFound, "no trace for hash "+hash)
		return
	}
	h.reply(w, http.StatusOK, traceResp(m))
}

// traceBytes serves the stored trace verbatim. Like /results, the content
// IS the address, so the response is immutable and strongly tagged.
func (h *handler) traceBytes(w http.ResponseWriter, r *http.Request) {
	if !h.needCorpus(w) {
		return
	}
	hash := r.PathValue("hash")
	if !errfs.ValidHash(hash) {
		h.error(w, http.StatusBadRequest, "malformed trace hash: want 64 lowercase hex digits")
		return
	}
	path, err := h.corpus.Path(hash)
	if err != nil {
		h.error(w, http.StatusNotFound, "no trace for hash "+hash)
		return
	}
	etag := `"` + hash + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if inmMatch(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

// Drain performs the graceful shutdown of m's job execution, bounded by
// timeout: Daemon.Drain calls it, and so do bench/'s in-process daemons,
// which assemble their own managers.
func Drain(m *jobs.Manager, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	m.Drain(ctx)
}
