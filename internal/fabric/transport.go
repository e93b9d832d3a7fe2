package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// call performs one fabric exchange over t (nil = http.DefaultTransport):
// send body as JSON (nothing when nil) and decode the JSON response into
// out — or, when out is a *[]byte, hand back the response bytes as they
// are; a nil out discards them. Non-2xx statuses surface as errors carrying
// the body's error text so the caller can log why a peer refused.
func call(ctx context.Context, t http.RoundTripper, method, url string, body any, out any) error {
	if t == nil {
		t = http.DefaultTransport
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &e)
		if e.Error == "" {
			e.Error = fmt.Sprintf("%.120s", data)
		}
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out = data
		return nil
	default:
		return json.Unmarshal(data, out)
	}
}

// StatusError is a non-2xx fabric reply: the peer answered, it just said
// no. Distinguishing it from transport failure matters to the scheduler —
// a refusal is deterministic and retrying another worker is pointless,
// while a dropped message is exactly what retry exists for.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("fabric: peer returned %d: %s", e.Code, e.Msg)
}

// probeTimeout bounds one remote cache probe, on either side.
const probeTimeout = 250 * time.Millisecond

// probe asks a peer's LOCAL cache tiers for hash. Misses and transport
// failures are both "no": a probe is an optimization, never a dependency.
func probe(t http.RoundTripper, base, hash string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	var data []byte
	err := call(ctx, t, http.MethodGet, base+"/fabric/result/"+hash, nil, &data)
	return data, err == nil
}
