package fabric

// The fabric's HTTP error strings and the /healthz fleet JSON are API
// surface: operators grep logs for them, clients branch on them, and the
// docs quote them. Like internal/registry's errors_test.go, every string
// is pinned EXACTLY — if one of these fails, either fix an accidental
// rewording or update the string everywhere it is documented.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// handlerError performs one request against h and returns the status
// code and the decoded {"error": ...} body.
func handlerError(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &e)
	return rec.Code, e.Error
}

func TestCoordinatorErrorStrings(t *testing.T) {
	cache, err := jobs.NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Config{Cache: cache, Cells: LocalCells(1)})
	h := coord.Handler()
	missHash := strings.Repeat("0", 64)
	cases := []struct {
		name, method, path, body string
		wantCode                 int
		wantError                string
	}{
		{"register bad json", http.MethodPost, "/fabric/register", "{",
			http.StatusBadRequest, "fabric: bad register body: unexpected EOF"},
		{"register empty url", http.MethodPost, "/fabric/register", `{"url":""}`,
			http.StatusBadRequest, "fabric: register needs a worker url"},
		{"register relative url", http.MethodPost, "/fabric/register", `{"url":"notaurl"}`,
			http.StatusBadRequest, `fabric: register url "notaurl" is not an absolute http url`},
		{"result malformed hash", http.MethodGet, "/fabric/result/nope", "",
			http.StatusBadRequest, "fabric: malformed result hash: want 64 lowercase hex digits"},
		{"result miss", http.MethodGet, "/fabric/result/" + missHash, "",
			http.StatusNotFound, "fabric: no local result for hash " + missHash},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, msg := handlerError(t, h, tc.method, tc.path, tc.body)
			if code != tc.wantCode {
				t.Errorf("status = %d, want %d", code, tc.wantCode)
			}
			if msg != tc.wantError {
				t.Errorf("error = %q, want %q", msg, tc.wantError)
			}
		})
	}
}

func TestWorkerErrorStrings(t *testing.T) {
	w := NewWorker(WorkerConfig{
		Self:        "http://self",
		Coordinator: "http://coord",
		Run:         referenceRunner(1),
	})
	h := w.Handler()
	spec := string(canonical(t, testSpec()))
	cases := []struct {
		name, body string
		wantCode   int
		wantError  string
	}{
		{"bad json", "{",
			http.StatusBadRequest, "fabric: bad shard body: unexpected EOF"},
		{"no cells", `{"spec":` + spec + `,"cells":[]}`,
			http.StatusBadRequest, "fabric: shard needs at least one cell"},
		{"index out of range", `{"spec":` + spec + `,"cells":[99]}`,
			http.StatusBadRequest, "fabric: shard cell index 99 outside the spec's 8 cells"},
		{"negative index", `{"spec":` + spec + `,"cells":[-1]}`,
			http.StatusBadRequest, "fabric: shard cell index -1 outside the spec's 8 cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, msg := handlerError(t, h, http.MethodPost, "/fabric/run", tc.body)
			if code != tc.wantCode {
				t.Errorf("status = %d, want %d", code, tc.wantCode)
			}
			if msg != tc.wantError {
				t.Errorf("error = %q, want %q", msg, tc.wantError)
			}
		})
	}
}

// marshalCompact is json.Marshal or bust.
func marshalCompact(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestFleetStatusJSONShape(t *testing.T) {
	coord := NewCoordinator(Config{Cells: LocalCells(1)})
	if got, want := marshalCompact(t, coord.Status()), `{"workers":[],"live":0}`; got != want {
		t.Errorf("empty fleet status = %s, want %s", got, want)
	}
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fabric/register",
		strings.NewReader(`{"url":"http://w0"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register status %d", rec.Code)
	}
	if got, want := strings.TrimSpace(rec.Body.String()), `{"workers":1}`; got != want {
		t.Errorf("register body = %s, want %s", got, want)
	}
	want := `{"workers":[{"url":"http://w0","live":true,"inflight_cells":0,"committed_cells":0}],"live":1}`
	if got := marshalCompact(t, coord.Status()); got != want {
		t.Errorf("fleet status = %s, want %s", got, want)
	}
}
