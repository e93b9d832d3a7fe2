package service

// The corpus API's end-to-end suite: upload → submit corpus:<hash> →
// result bytes identical to a local trace:<path> run of the same capture,
// with the second submission a cache hit that executes zero cells — the
// caching soundness that trace paths are denied and content hashes earn.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/corpus"
	"repro/internal/errfs"
	"repro/internal/jobs"
	"repro/internal/tracefile"
)

// recordTestTrace captures a small single-cell run to a v1 trace file and
// returns its path and recorded op count.
func recordTestTrace(t *testing.T, dir string) (string, int64) {
	t.Helper()
	path := filepath.Join(dir, "cap.htrc")
	sw := &hybridtier.Sweep{
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier},
		Ratios:   []int{8},
		Seeds:    []uint64{1},
		Base: []hybridtier.Option{
			hybridtier.WithWorkloadName("zipf"),
			hybridtier.WithWorkloadParams(hybridtier.WorkloadParams{Pages: 2048}),
			hybridtier.WithOps(8_000),
			hybridtier.WithRecordTo(path),
		},
	}
	cells, err := sw.Run(context.Background())
	if err != nil || cells[0].Err != "" {
		t.Fatalf("capture run: %v / %+v", err, cells[0].Err)
	}
	info, err := tracefile.Stat(path)
	if err != nil || !info.Clean {
		t.Fatalf("capture did not produce a clean trace: %+v, %v", info, err)
	}
	return path, info.Ops
}

// uploadFile POSTs a file's bytes to /traces and decodes the response.
func uploadFile(t *testing.T, srv *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resp, err := http.Post(srv.URL+"/traces", "application/octet-stream", f)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestCorpusUploadSubmitE2E is the tentpole acceptance test: an uploaded
// trace submitted as corpus:<hash> runs once, the identical resubmission
// is served from the cache with zero cells executed, and the served JSON
// is byte-identical to a local trace:<path> run of the same capture.
func TestCorpusUploadSubmitE2E(t *testing.T) {
	srv, cr, d := newTestServer(t, DaemonConfig{})
	path, recordedOps := recordTestTrace(t, t.TempDir())

	// Upload. First time grows the store (201)...
	code, up := uploadFile(t, srv, path)
	if code != http.StatusCreated {
		t.Fatalf("upload status %d: %v", code, up)
	}
	hash, _ := up["hash"].(string)
	if !errfs.ValidHash(hash) {
		t.Fatalf("upload returned no hash: %v", up)
	}
	if spec, _ := up["workload_spec"].(string); spec != "corpus:"+hash {
		t.Errorf("workload_spec = %q", spec)
	}
	if got := int64(up["ops"].(float64)); got != recordedOps {
		t.Errorf("upload ops %d, want recorded %d", got, recordedOps)
	}
	// ...and re-uploading the same bytes is an idempotent 200.
	if code, again := uploadFile(t, srv, path); code != http.StatusOK || again["hash"] != hash {
		t.Fatalf("re-upload: status %d, %v", code, again)
	}
	if d.corpus.Len() != 1 {
		t.Fatalf("store holds %d traces after duplicate upload", d.corpus.Len())
	}

	spec := hybridtier.SweepSpec{
		Workload: "corpus:" + hash,
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, "LRU"},
		Ratios:   []int{8},
		Seeds:    []uint64{1},
		Ops:      recordedOps,
	}
	code, first := submit(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, first)
	}
	streamEvents(t, srv, first["id"].(string))
	served := fetchResult(t, srv, first["hash"].(string))
	baseRuns, baseCells := cr.runs.Load(), cr.cells.Load()
	if baseRuns != 1 || baseCells != 2 {
		t.Fatalf("first submission ran %d jobs / %d cells, want 1/2", baseRuns, baseCells)
	}

	// Identical resubmission: served from cache, zero cells run.
	code, second := submit(t, srv, spec)
	if code != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200 cache hit", code)
	}
	if hit, _ := second["cache_hit"].(bool); !hit {
		t.Errorf("resubmit not marked cache_hit: %v", second)
	}
	if cr.runs.Load() != baseRuns || cr.cells.Load() != baseCells {
		t.Errorf("cache hit executed work: runs %d→%d cells %d→%d",
			baseRuns, cr.runs.Load(), baseCells, cr.cells.Load())
	}
	if again := fetchResult(t, srv, second["hash"].(string)); !bytes.Equal(again, served) {
		t.Error("cache hit served different bytes")
	}

	// Byte-identity with a local run of the same capture via trace:<path>.
	sw := &hybridtier.Sweep{
		Policies: spec.Policies,
		Ratios:   spec.Ratios,
		Seeds:    spec.Seeds,
		Base: []hybridtier.Option{
			hybridtier.WithWorkloadName("trace:" + path),
			hybridtier.WithOps(recordedOps),
		},
	}
	cells, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Error("served corpus sweep JSON is not byte-identical to the local trace: run")
	}
}

// TestTraceEndpoints covers the read side: listing, metadata, immutable
// bytes with ETag, and the 4xx surface.
func TestTraceEndpoints(t *testing.T) {
	srv, _, _ := newTestServer(t, DaemonConfig{})
	path, _ := recordTestTrace(t, t.TempDir())
	_, up := uploadFile(t, srv, path)
	hash := up["hash"].(string)

	var list struct {
		Traces []corpus.Meta `json:"traces"`
	}
	resp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Traces) != 1 || list.Traces[0].Hash != hash {
		t.Fatalf("listing = %+v, %v", list, err)
	}

	resp, err = http.Get(srv.URL + "/traces/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	var meta corpus.Meta
	err = json.NewDecoder(resp.Body).Decode(&meta)
	resp.Body.Close()
	if err != nil || meta.Hash != hash || meta.Ops == 0 {
		t.Fatalf("metadata = %+v, %v", meta, err)
	}

	// The bytes round-trip verbatim and carry immutability headers.
	resp, err = http.Get(srv.URL + "/traces/" + hash + "/bytes")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("served trace bytes differ from the upload")
	}
	if etag := resp.Header.Get("ETag"); etag != `"`+hash+`"` {
		t.Errorf("bytes ETag = %q", etag)
	}
	req, _ := http.NewRequest("GET", srv.URL+"/traces/"+hash+"/bytes", nil)
	req.Header.Set("If-None-Match", `"`+hash+`"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional fetch status %d, want 304", resp.StatusCode)
	}

	// 4xx surface: malformed hashes and absent traces.
	for url, want := range map[string]int{
		"/traces/nothex":                                 http.StatusBadRequest,
		"/traces/" + strings.Repeat("ab", 32):            http.StatusNotFound,
		"/traces/" + strings.Repeat("ab", 32) + "/bytes": http.StatusNotFound,
		"/traces/" + strings.ToUpper(hash):               http.StatusBadRequest,
		"/traces/" + strings.Repeat("zz", 32) + "/bytes": http.StatusBadRequest,
	} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", url, resp.StatusCode, want)
		}
	}
}

// TestTraceUploadRejections: damaged uploads and over-limit bodies never
// enter the corpus.
func TestTraceUploadRejections(t *testing.T) {
	srv, _, d := newTestServer(t, DaemonConfig{MaxTraceMB: 1})

	post := func(body []byte) int {
		resp, err := http.Post(srv.URL+"/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post([]byte("junk, not a trace")); code != http.StatusBadRequest {
		t.Errorf("junk upload status %d, want 400", code)
	}
	if code := post(bytes.Repeat([]byte("x"), 1<<20+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload status %d, want 413", code)
	}
	if d.corpus.Len() != 0 {
		t.Fatalf("rejected uploads entered the store: %d", d.corpus.Len())
	}
}

// TestCorpusSubmitChecks: corpus specs against a daemon without that hash
// (or without a corpus at all) fail at submit time with a 400/503.
func TestCorpusSubmitChecks(t *testing.T) {
	srv, cr, _ := newTestServer(t, DaemonConfig{})
	spec := hybridtier.SweepSpec{
		Workload: "corpus:" + strings.Repeat("ab", 32),
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier},
	}
	code, resp := submit(t, srv, spec)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown corpus hash: status %d, %v", code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "POST /traces") {
		t.Errorf("400 body does not point at the upload API: %q", msg)
	}
	if cr.runs.Load() != 0 {
		t.Error("rejected submission started a job")
	}

	// Multi-seed corpus sweeps are rejected like multi-seed trace replays.
	spec.Seeds = []uint64{1, 2}
	if code, _ := submit(t, srv, spec); code != http.StatusBadRequest {
		t.Errorf("multi-seed corpus spec: status %d, want 400", code)
	}

	// A handler with no corpus: the trace API 503s and corpus specs 400.
	// Every daemon NewDaemon builds has a corpus, so this one is built by
	// hand, as bench/'s handler drive builds its own.
	cache, _ := jobs.NewCache(1<<20, "")
	m := jobs.NewManager(jobs.Config{Workers: 1, Run: Runner(1), Cache: cache})
	bare := httptest.NewServer(NewHandler(Config{Manager: m}))
	t.Cleanup(func() { bare.Close(); Drain(m, time.Second) })
	resp2, err := http.Get(bare.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("corpus-less /traces status %d, want 503", resp2.StatusCode)
	}
	if code, _ := submit(t, bare, spec); code != http.StatusBadRequest {
		t.Errorf("corpus spec on corpus-less daemon: status %d, want 400", code)
	}
}

// TestUploadedV2TraceRuns: the corpus is format-agnostic — a converted v2
// trace uploads, lists with format_version 2, and runs to the same result
// as its v1 twin (which hashes differently but replays identically).
func TestUploadedV2TraceRuns(t *testing.T) {
	srv, _, _ := newTestServer(t, DaemonConfig{})
	dir := t.TempDir()
	v1, recordedOps := recordTestTrace(t, dir)
	v2 := filepath.Join(dir, "cap.v2.htrc")
	if err := tracefile.Convert(v1, v2, tracefile.Version2); err != nil {
		t.Fatal(err)
	}
	_, upA := uploadFile(t, srv, v1)
	_, upB := uploadFile(t, srv, v2)
	hashA, hashB := upA["hash"].(string), upB["hash"].(string)
	if hashA == hashB {
		t.Fatal("different containers hashed identically")
	}
	if v := int(upB["format_version"].(float64)); v != tracefile.Version2 {
		t.Errorf("v2 upload format_version = %d", v)
	}

	results := map[string][]byte{}
	for _, h := range []string{hashA, hashB} {
		spec := hybridtier.SweepSpec{
			Workload: "corpus:" + h,
			Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier},
			Ops:      recordedOps,
		}
		code, resp := submit(t, srv, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit corpus:%s status %d: %v", h[:12], code, resp)
		}
		streamEvents(t, srv, resp["id"].(string))
		results[h] = fetchResult(t, srv, resp["hash"].(string))
	}
	// The two containers carry the same stream, so everything except the
	// workload label position must match; in fact the cells marshal
	// identically because the trace header (the name) survived conversion.
	if !bytes.Equal(results[hashA], results[hashB]) {
		t.Error("v1 and v2 uploads of the same capture produced different sweep JSON")
	}
}
