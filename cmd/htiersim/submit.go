package main

// The -submit client: instead of simulating locally, the CLI posts its
// sweep to a running htiersimd daemon (docs/SERVICE.md), tails the job's
// progress stream, and fetches the result from the content-addressed
// cache. Because the daemon serves the byte-identical sweep JSON an
// in-process run produces, `htiersim -submit URL ... -json` prints
// exactly what the same flags print locally — the CLI test pins that.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	hybridtier "repro"
	"repro/internal/jobs"
	"repro/internal/tracefile"
)

// A 503 from POST /jobs is transient by design — the daemon is draining
// for restart or its queue is momentarily full — and so is a connection
// the daemon's restart window refuses or drops, so the client retries
// both with capped exponential backoff before giving up. The knobs are
// variables so the retry tests run in milliseconds.
var (
	submitRetries     = 5
	submitBackoffBase = 200 * time.Millisecond
	submitBackoffCap  = 3 * time.Second
	submitSleep       = time.Sleep
)

// retryableDialError classifies transport failures a daemon restart
// explains: nothing listening yet (refused), a connection torn down by
// the exiting process (reset), or one dropped mid-exchange (EOF).
// Anything else — bad URL, DNS, TLS — is permanent and surfaces at once.
func retryableDialError(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// postJob submits the spec, retrying transient 503s and restart-window
// connection failures on one shared backoff schedule. It returns the
// first non-transient response, or the final 503/error once retries are
// exhausted — the caller's handling sees exactly what a single post
// would.
func postJob(base string, body []byte, stderr io.Writer) (*http.Response, error) {
	backoff := submitBackoffBase
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		switch {
		case err != nil && (!retryableDialError(err) || attempt >= submitRetries):
			return nil, err
		case err != nil:
			fmt.Fprintf(stderr, "htiersim: daemon unreachable (%v); retrying in %s\n", err, backoff)
		case resp.StatusCode != http.StatusServiceUnavailable || attempt >= submitRetries:
			return resp, nil
		default:
			var e struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			fmt.Fprintf(stderr, "htiersim: daemon unavailable (%s); retrying in %s\n", e.Error, backoff)
		}
		submitSleep(backoff)
		backoff *= 2
		if backoff > submitBackoffCap {
			backoff = submitBackoffCap
		}
	}
}

// submitToDaemon drives the submit → stream → fetch flow. Exit codes
// mirror the local path: 0 success, 1 run/transport failure, 2 when the
// daemon rejects the spec (the 400 body carries the validator's exact
// message).
func submitToDaemon(base string, spec hybridtier.SweepSpec, jsonOut, series bool, ratio string, huge, cache bool, stdout, stderr io.Writer) int {
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "htiersim: "+format+"\n", args...)
		return code
	}
	base = strings.TrimRight(base, "/")

	body, err := json.Marshal(spec)
	if err != nil {
		return fail(1, "%v", err)
	}
	resp, err := postJob(base, body, stderr)
	if err != nil {
		return fail(1, "submit: %v", err)
	}
	var sub struct {
		ID        string `json:"id"`
		CacheHit  bool   `json:"cache_hit"`
		EventsURL string `json:"events_url"`
		ResultURL string `json:"result_url"`
		Error     string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		return fail(2, "daemon rejected the spec: %s", sub.Error)
	case resp.StatusCode == http.StatusServiceUnavailable:
		return fail(1, "daemon unavailable: %s", sub.Error)
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return fail(1, "submit: unexpected status %s", resp.Status)
	case derr != nil:
		return fail(1, "submit: decoding response: %v", derr)
	}
	if sub.CacheHit {
		fmt.Fprintf(stderr, "htiersim: cache hit on %s — served without running\n", sub.ID)
	}

	// Tail the event stream to the job's terminal state, mirroring the
	// local sweep's progress line on stderr.
	final, err := tailEvents(base+sub.EventsURL, jsonOut, stderr)
	if err != nil {
		return fail(1, "progress stream: %v", err)
	}
	switch final.State {
	case jobs.Done:
	case jobs.Canceled:
		return fail(1, "job %s canceled: %s", sub.ID, final.Error)
	default:
		return fail(1, "job %s failed: %s", sub.ID, final.Error)
	}

	res, err := http.Get(base + sub.ResultURL)
	if err != nil {
		return fail(1, "result fetch: %v", err)
	}
	raw, rerr := io.ReadAll(res.Body)
	res.Body.Close()
	if rerr != nil || res.StatusCode != http.StatusOK {
		return fail(1, "result fetch: status %s, %v", res.Status, rerr)
	}

	var cells []hybridtier.CellResult
	if err := json.Unmarshal(raw, &cells); err != nil {
		return fail(1, "result decode: %v", err)
	}
	failed := 0
	for _, c := range cells {
		if c.Err != "" {
			failed++
			fmt.Fprintf(stderr, "htiersim: %s 1:%d seed %d: %s\n", c.Policy, c.Ratio, c.Seed, c.Err)
		}
	}
	switch {
	case jsonOut:
		// Re-indenting the served bytes (rather than re-marshaling the
		// decoded structs) keeps the output byte-identical to a local
		// `-json` run: json.Indent preserves every literal.
		var out bytes.Buffer
		if err := json.Indent(&out, raw, "", "  "); err != nil {
			return fail(1, "%v", err)
		}
		out.WriteByte('\n')
		stdout.Write(out.Bytes())
	case len(cells) == 1:
		if failed == 0 {
			printSingle(stdout, cells[0], ratio, huge, cache, series)
		}
	default:
		printSweep(stdout, cells)
	}
	if failed > 0 {
		return fail(1, "%d of %d cells failed", failed, len(cells))
	}
	return 0
}

// uploadTrace streams a local trace file into the daemon's corpus and
// returns its content hash plus the recorded op count (the replay-length
// default). The trace is validated locally first, so a truncated capture
// fails with the decoder's diagnosis instead of a round trip. Exit-code
// conventions match submitToDaemon; 0 means the upload (or dedup hit)
// succeeded.
func uploadTrace(base, path string, stderr io.Writer) (hash string, recordedOps int64, code int) {
	fail := func(code int, format string, args ...any) (string, int64, int) {
		fmt.Fprintf(stderr, "htiersim: "+format+"\n", args...)
		return "", 0, code
	}
	info, err := tracefile.Stat(path)
	if err != nil {
		return fail(2, "%v", err)
	}
	if !info.Clean {
		return fail(2, "trace %s is incomplete (aborted or chopped capture); re-record it before submitting", path)
	}
	if info.Ops == 0 {
		return fail(2, "trace %s has no op records", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer f.Close()
	resp, err := http.Post(strings.TrimRight(base, "/")+"/traces", "application/octet-stream", f)
	if err != nil {
		return fail(1, "trace upload: %v", err)
	}
	var up struct {
		Hash  string `json:"hash"`
		Ops   int64  `json:"ops"`
		Error string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusRequestEntityTooLarge:
		return fail(2, "daemon rejected the trace: %s", up.Error)
	case resp.StatusCode == http.StatusServiceUnavailable:
		return fail(1, "daemon unavailable: %s", up.Error)
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated:
		return fail(1, "trace upload: unexpected status %s", resp.Status)
	case derr != nil:
		return fail(1, "trace upload: decoding response: %v", derr)
	}
	if resp.StatusCode == http.StatusOK {
		fmt.Fprintf(stderr, "htiersim: trace already in corpus as %s\n", up.Hash[:12])
	} else {
		fmt.Fprintf(stderr, "htiersim: trace uploaded as %s (%d ops)\n", up.Hash[:12], up.Ops)
	}
	return up.Hash, up.Ops, 0
}

// tailEvents consumes the NDJSON event stream and returns the terminal
// state event.
func tailEvents(url string, quiet bool, stderr io.Writer) (jobs.Event, error) {
	resp, err := http.Get(url)
	if err != nil {
		return jobs.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Event{}, fmt.Errorf("status %s", resp.Status)
	}
	var last jobs.Event
	progressed := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return jobs.Event{}, fmt.Errorf("bad event %q: %v", sc.Text(), err)
		}
		switch e.Type {
		case "progress":
			if !quiet {
				progressed = true
				fmt.Fprintf(stderr, "\rhtiersim: %d/%d cells", e.Done, e.Total)
			}
		case "state":
			last = e
		}
	}
	if progressed {
		fmt.Fprintln(stderr)
	}
	if err := sc.Err(); err != nil {
		return jobs.Event{}, err
	}
	if !last.State.Terminal() {
		return jobs.Event{}, fmt.Errorf("stream ended before a terminal state")
	}
	return last, nil
}
