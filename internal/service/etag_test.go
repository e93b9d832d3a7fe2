package service

// Conditional-request semantics: RFC 9110 §8.8.3.2 If-None-Match over the
// two content-addressed GET routes (/results/{hash} and
// /traces/{hash}/bytes), plus the allocation contract of the cache-hit
// serving path — the daemon's hottest read must not allocate at all.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
)

func TestEtagMatch(t *testing.T) {
	const tag = `"abc123"`
	cases := []struct {
		name   string
		header string
		want   bool
	}{
		{"exact", `"abc123"`, true},
		{"star", `*`, true},
		{"weak", `W/"abc123"`, true},
		{"list tail", `"zzz", "abc123"`, true},
		{"list head", `"abc123", "zzz"`, true},
		{"list weak member", `"zzz", W/"abc123", "yyy"`, true},
		{"list no spaces", `"zzz","abc123"`, true},
		{"tabs", "\t\"abc123\"\t", true},
		{"no match", `"zzz"`, false},
		{"empty", ``, false},
		{"prefix only", `"abc"`, false},
		{"superstring", `"abc1234"`, false},
		{"unquoted token", `abc123`, false},
		{"weak unquoted", `W/abc123`, false},
		{"unterminated quote", `"abc123`, false},
		{"lone W", `W`, false},
		{"list then garbage", `"zzz", oops, "abc123"`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := etagMatch(tc.header, tag); got != tc.want {
				t.Errorf("etagMatch(%q, %q) = %v, want %v", tc.header, tag, got, tc.want)
			}
		})
	}
}

// conditionalGet issues GET url with the given If-None-Match field lines
// and returns the response (body drained and closed).
func conditionalGet(t *testing.T, url string, inm ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range inm {
		req.Header.Add("If-None-Match", v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// inmCases is the shared status matrix: both content-addressed routes
// must implement the same conditional semantics.
func inmCases(etag string) []struct {
	name string
	inm  []string
	want int
} {
	return []struct {
		name string
		inm  []string
		want int
	}{
		{"no header", nil, http.StatusOK},
		{"exact", []string{etag}, http.StatusNotModified},
		{"star", []string{"*"}, http.StatusNotModified},
		{"weak", []string{"W/" + etag}, http.StatusNotModified},
		{"list", []string{`"0000", ` + etag}, http.StatusNotModified},
		{"two field lines", []string{`"0000"`, etag}, http.StatusNotModified},
		{"no match", []string{`"0000"`}, http.StatusOK},
		{"unquoted", []string{etag[1 : len(etag)-1]}, http.StatusOK},
		{"malformed", []string{`garbage`}, http.StatusOK},
	}
}

func TestResultIfNoneMatchMatrix(t *testing.T) {
	srv, _, _ := newTestServer(t, DaemonConfig{})
	_, resp := submit(t, srv, testSpec())
	streamEvents(t, srv, resp["id"].(string))
	hash := resp["hash"].(string)
	url := srv.URL + "/results/" + hash
	etag := `"` + hash + `"`

	for _, tc := range inmCases(etag) {
		t.Run(tc.name, func(t *testing.T) {
			r := conditionalGet(t, url, tc.inm...)
			if r.StatusCode != tc.want {
				t.Fatalf("If-None-Match %q: status %d, want %d", tc.inm, r.StatusCode, tc.want)
			}
			// Both the 200 and the 304 must carry the validator the client
			// caches against (RFC 9110 §15.4.5 includes ETag in 304s).
			if got := r.Header.Get("ETag"); got != etag {
				t.Errorf("If-None-Match %q: ETag = %q, want %q", tc.inm, got, etag)
			}
			if tc.want == http.StatusOK && r.ContentLength == 0 {
				t.Errorf("If-None-Match %q: 200 with empty body", tc.inm)
			}
		})
	}
}

func TestTraceBytesIfNoneMatchMatrix(t *testing.T) {
	srv, _, _ := newTestServer(t, DaemonConfig{})
	path, _ := recordTestTrace(t, t.TempDir())
	_, up := uploadFile(t, srv, path)
	hash := up["hash"].(string)
	url := srv.URL + "/traces/" + hash + "/bytes"
	etag := `"` + hash + `"`

	for _, tc := range inmCases(etag) {
		t.Run(tc.name, func(t *testing.T) {
			r := conditionalGet(t, url, tc.inm...)
			if r.StatusCode != tc.want {
				t.Fatalf("If-None-Match %q: status %d, want %d", tc.inm, r.StatusCode, tc.want)
			}
			if got := r.Header.Get("ETag"); got != etag {
				t.Errorf("If-None-Match %q: ETag = %q, want %q", tc.inm, got, etag)
			}
		})
	}
}

// nopResponseWriter is the benchmark's sink: a header map and nothing
// else, so the measurement isolates the handler's own allocations from
// net/http connection machinery.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// benchHandler builds a handler whose in-memory cache holds one result,
// returning it with the result's hash.
func benchHandler(b testing.TB) (*handler, string) {
	b.Helper()
	cache, err := jobs.NewCache(64<<20, "")
	if err != nil {
		b.Fatal(err)
	}
	m := jobs.NewManager(jobs.Config{
		Run:   func(context.Context, []byte, func(int, int)) ([]byte, error) { return nil, nil },
		Cache: cache,
	})
	b.Cleanup(func() { Drain(m, time.Second) })
	hash := "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	if err := cache.Put(hash, []byte(`[{"index":0}]`), []byte(`{}`)); err != nil {
		b.Fatal(err)
	}
	return &handler{m: m}, hash
}

// BenchmarkResultServeHit is the acceptance benchmark for the
// allocation-free serving path: a cache-hit GET /results/{hash} must run
// at 0 allocs/op in steady state. The handler method is invoked directly
// (the ServeMux clones the request per dispatch, which would charge mux
// overhead to the handler).
func BenchmarkResultServeHit(b *testing.B) {
	h, hash := benchHandler(b)
	r := httptest.NewRequest("GET", "/results/"+hash, nil)
	r.SetPathValue("hash", hash)
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.result(w, r)
	}
}

// BenchmarkResultServe304 is the revalidation half: a conditional GET
// answered 304 must also be allocation-free.
func BenchmarkResultServe304(b *testing.B) {
	h, hash := benchHandler(b)
	r := httptest.NewRequest("GET", "/results/"+hash, nil)
	r.SetPathValue("hash", hash)
	r.Header.Set("If-None-Match", `"`+hash+`"`)
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.result(w, r)
	}
}

// TestResultServeHitAllocatesNothing asserts what the two benchmarks above
// measure: in steady state a cache-hit GET /results/{hash}, answered 200 or
// 304, allocates nothing.
func TestResultServeHitAllocatesNothing(t *testing.T) {
	h, hash := benchHandler(t)
	for _, tc := range []struct{ name, ifNoneMatch string }{
		{"200", ""},
		{"304", `"` + hash + `"`},
	} {
		r := httptest.NewRequest("GET", "/results/"+hash, nil)
		r.SetPathValue("hash", hash)
		if tc.ifNoneMatch != "" {
			r.Header.Set("If-None-Match", tc.ifNoneMatch)
		}
		w := &nopResponseWriter{h: make(http.Header)}
		if n := testing.AllocsPerRun(100, func() { h.result(w, r) }); n != 0 {
			t.Errorf("%s: %v allocs per cache-hit serve, want 0", tc.name, n)
		}
	}
}

func BenchmarkEtagMatch(b *testing.B) {
	const tag = `"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"`
	header := `W/"0000", "1111", ` + tag
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !etagMatch(header, tag) {
			b.Fatal("no match")
		}
	}
}
