package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/jobs"
)

// Deadlines: a hung daemon becomes a failed operation, never a hung
// benchmark.
const (
	requestTimeout = 20 * time.Second // one HTTP exchange
	jobTimeout     = 90 * time.Second // submit to terminal state
)

// client is one connection's worth of HTTP client: its transport keeps a
// single keep-alive connection, so N clients are N connections.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // response body of the latest call
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do performs one exchange and leaves the body in c.buf.
func (c *client) do(ctx context.Context, method, path string, body []byte, ifNoneMatch string) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// submit POSTs a spec. The reply is the job snapshot: 202 queued or running,
// 200 already done (cache hit).
func (c *client) submit(ctx context.Context, spec []byte) (jobs.Info, int, error) {
	var info jobs.Info
	status, err := c.do(ctx, http.MethodPost, "/jobs", spec, "")
	if err != nil {
		return info, status, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return info, status, fmt.Errorf("POST /jobs: status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return info, status, json.Unmarshal(c.buf.Bytes(), &info)
}

// awaitDone follows the job's event stream to its terminal event.
func (c *client) awaitDone(ctx context.Context, id string) error {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /jobs/%s/events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("job %s: bad event %q: %w", id, sc.Bytes(), err)
		}
		if ev.Type == "state" && ev.State.Terminal() {
			// Drain to EOF so the connection returns to the pool.
			io.Copy(io.Discard, resp.Body)
			if ev.State != jobs.Done {
				return fmt.Errorf("job %s ended %s: %s", id, ev.State, ev.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %s: event stream: %w", id, err)
	}
	return fmt.Errorf("job %s: event stream ended without a terminal state", id)
}

// fetch GETs a result. The returned bytes alias the client's buffer and are
// valid until its next call.
func (c *client) fetch(ctx context.Context, hash, ifNoneMatch string) ([]byte, int, error) {
	status, err := c.do(ctx, http.MethodGet, "/results/"+hash, nil, ifNoneMatch)
	return c.buf.Bytes(), status, err
}

func (c *client) jobInfo(ctx context.Context, id string) (jobs.Info, error) {
	var info jobs.Info
	status, err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, "")
	if err != nil {
		return info, err
	}
	if status != http.StatusOK {
		return info, fmt.Errorf("GET /jobs/%s: status %d", id, status)
	}
	return info, json.Unmarshal(c.buf.Bytes(), &info)
}

// jobTiming is what one submit-to-bytes exchange measured.
type jobTiming struct {
	submit, wait, fetch time.Duration
	// queueWait, run and streamLag come from the daemon's own timestamps
	// (GET /jobs/{id}); they are filled only when tracing.
	queueWait, run, streamLag time.Duration
}

// runJob submits spec, waits for the job, and fetches its result: the user's
// whole wait. With a recorder it also adds the job's spans and asks the
// daemon for the job's timestamps. The returned bytes are the caller's.
func (c *client) runJob(ctx context.Context, rec *recorder, name string, spec []byte) ([]byte, jobTiming, error) {
	var tm jobTiming
	t0 := time.Now()
	info, status, err := c.submit(ctx, spec)
	if err != nil {
		return nil, tm, err
	}
	t1 := time.Now()
	if status == http.StatusAccepted {
		if err := c.awaitDone(ctx, info.ID); err != nil {
			return nil, tm, err
		}
	}
	t2 := time.Now()
	body, status, err := c.fetch(ctx, info.Hash, "")
	if err != nil {
		return nil, tm, err
	}
	if status != http.StatusOK {
		return nil, tm, fmt.Errorf("GET /results/%s: status %d", info.Hash, status)
	}
	data := bytes.Clone(body)
	t3 := time.Now()
	tm.submit, tm.wait, tm.fetch = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if rec == nil {
		return data, tm, nil
	}
	root := rec.add("client.job", -1, name, t0, t3)
	rec.add("client.submit", root, name, t0, t1)
	waitSpan := rec.add("client.wait", root, name, t1, t2)
	rec.add("client.fetch", root, name, t2, t3)
	if ji, err := c.jobInfo(ctx, info.ID); err == nil && ji.StartedNs != 0 && ji.FinishedNs != 0 {
		created, started, finished := time.Unix(0, ji.CreatedNs), time.Unix(0, ji.StartedNs), time.Unix(0, ji.FinishedNs)
		tm.queueWait, tm.run, tm.streamLag = started.Sub(created), finished.Sub(started), t2.Sub(finished)
		rec.add("jobs.queue", waitSpan, name, created, started)
		rec.add("jobs.run", waitSpan, name, started, finished)
	}
	return data, tm, nil
}
