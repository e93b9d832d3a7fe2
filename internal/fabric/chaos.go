package fabric

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/xrand"
)

// ChaosPlan parameterizes deterministic fault injection. Probabilities
// are per delivery attempt in [0, 1]; an attempt may suffer several
// faults (delayed AND duplicated), but drop and drop-reply are exclusive
// (a message lost on the way out cannot also lose its reply).
type ChaosPlan struct {
	// Seed roots every fault decision. Same plan + same traffic → the
	// same faults, independent of goroutine interleaving (see Chaos).
	Seed uint64
	// Drop loses the request before delivery: the peer never sees it.
	Drop float64
	// DropReply delivers the request — the peer EXECUTES it — then loses
	// the response. The cruelest fault for exactly-once designs, and the
	// one at-most-once commit must shrug off.
	DropReply float64
	// Dup delivers the request twice, back to back, returning the second
	// response. Duplicate execution must be invisible by idempotence.
	Dup float64
	// DelayProb delays delivery by a deterministic duration in
	// (0, DelayMax]; zero DelayMax never delays.
	DelayProb float64
	DelayMax  time.Duration
}

// Chaos wraps a transport with ChaosPlan's seeded faults. Decisions are a
// pure function of (plan seed, request key, per-key attempt number),
// where the key is the method plus the URL path — NOT a global message
// counter — so concurrent fleets reproduce the same fault multiset no
// matter how the scheduler interleaves goroutines: reruns of a seeded
// test meet the same storms, and an assertion that survives one run
// survives them all. Per-key attempt numbers advance on every attempt,
// so a retried message eventually rolls a clean delivery; any Drop
// probability below 1 cannot starve a retry loop forever.
type Chaos struct {
	Inner http.RoundTripper
	Plan  ChaosPlan

	mu       sync.Mutex
	attempts map[string]uint64
	faults   int
}

// NewChaos wraps inner (nil = http.DefaultTransport) with plan's faults.
func NewChaos(inner http.RoundTripper, plan ChaosPlan) *Chaos {
	return &Chaos{Inner: inner, Plan: plan, attempts: map[string]uint64{}}
}

// Faults reports how many faults have been injected — the harness's
// proof that a chaos run actually exercised the failure paths.
func (c *Chaos) Faults() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults
}

// chaosDropError marks a chaos-injected loss, so logs can tell injected
// faults from real transport failures.
type chaosDropError struct{ key string }

func (e *chaosDropError) Error() string { return fmt.Sprintf("chaos: dropped %s", e.key) }

// RoundTrip applies the scheduled faults for this request's next attempt,
// then (unless dropped) delegates to the inner transport.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Method + " " + req.URL.Path
	c.mu.Lock()
	attempt := c.attempts[key]
	c.attempts[key] = attempt + 1
	c.mu.Unlock()

	// One deterministic RNG per (key, attempt): successive draws decide
	// the fault set for this delivery.
	rng := xrand.New(c.Plan.Seed ^ xrand.Hash64(strHash(key)^attempt*0x9e3779b97f4a7c15))

	if c.roll(rng, c.Plan.DelayProb) && c.Plan.DelayMax > 0 {
		d := time.Duration(rng.Uint64n(uint64(c.Plan.DelayMax))) + 1
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if c.roll(rng, c.Plan.Drop) {
		return nil, &chaosDropError{key}
	}
	inner := c.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	dropReply := c.roll(rng, c.Plan.DropReply)
	if c.roll(rng, c.Plan.Dup) {
		// First delivery: executed, response discarded either way.
		if resp, err := inner.RoundTrip(cloneRequest(req)); err == nil {
			resp.Body.Close()
		}
		c.count()
	}
	resp, err := inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if dropReply {
		resp.Body.Close()
		c.count()
		return nil, &chaosDropError{key + " (reply)"}
	}
	return resp, nil
}

// roll draws one fault decision and counts injected faults.
func (c *Chaos) roll(rng *xrand.RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	hit := rng.Float64() < p
	if hit {
		c.count()
	}
	return hit
}

func (c *Chaos) count() {
	c.mu.Lock()
	c.faults++
	c.mu.Unlock()
}

// cloneRequest shallow-copies a request for a duplicate delivery. Fabric
// requests buffer their bodies (call marshals to a bytes.Reader with
// GetBody set), so the clone re-reads from the start.
func cloneRequest(req *http.Request) *http.Request {
	clone := req.Clone(req.Context())
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			clone.Body = body
		}
	}
	return clone
}

// strHash is FNV-1a 64, inlined so chaos decisions depend on nothing but
// this package and the seed.
func strHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
