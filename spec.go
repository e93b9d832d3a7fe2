package hybridtier

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/registry"
)

// SweepSpec is the declarative, serializable form of a Sweep: everything
// that determines the sweep's RESULTS, and nothing that does not. It is
// the wire format of the experiment service (docs/SERVICE.md) — clients
// POST one to /jobs — and the input to content-addressed result caching:
// Canonical() normalizes a spec into a unique spelling, CanonicalJSON()
// serializes that deterministically, and Hash() digests the bytes, so two
// requests share one cache entry iff they run the same cells.
//
// Execution knobs that provably do not move results are deliberately
// absent: worker counts (the determinism contracts in sweep_test.go and
// determinism_test.go are what make their exclusion sound), progress
// callbacks, and recording tees. A spec that
// differs only in those would be the same experiment — and hashes the
// same because they cannot be expressed here.
type SweepSpec struct {
	// Workload is a registry name or a composition spec
	// (docs/COMPOSITION.md). Canonicalization rewrites it to the
	// grammar's canonical spelling. trace:<path> replays are rejected:
	// the hash could not cover the trace file's bytes, so they are not
	// content-addressable — replay traces locally instead.
	Workload string `json:"workload"`
	// Params sizes the workload. Its Seed field is ignored: cells are
	// seeded from Seeds. A nil or all-zero Params means package defaults
	// and canonicalizes to absent.
	Params *WorkloadParams `json:"params,omitempty"`
	// Policies, Ratios, and Seeds span the sweep's cross product, in
	// cell-enumeration order (policy-major, like Sweep.Cells). Order is
	// significant — it defines cell indices in the result — so
	// canonicalization preserves it and rejects duplicates rather than
	// sorting. Ratios defaults to [8], Seeds to [1].
	Policies []PolicyName `json:"policies"`
	Ratios   []int        `json:"ratios,omitempty"`
	Seeds    []uint64     `json:"seeds,omitempty"`
	// Ops is the per-cell operation count (default 1,000,000).
	Ops int64 `json:"ops,omitempty"`
	// Huge selects 2 MB tracking/migration granularity.
	Huge bool `json:"huge,omitempty"`
	// Cache enables the full CPU-cache model.
	Cache bool `json:"cache,omitempty"`
	// WindowNs overrides the latency time-series window (0 = default).
	WindowNs int64 `json:"window_ns,omitempty"`
	// Tracker forces one access tracker (TrackerList()) on every cell.
	// Canonicalization folds it into per-policy "Name@tracker" qualifiers
	// and zeroes this field, so a forced tracker and the equivalent
	// qualified spellings are the same spec — and pre-tracker specs,
	// whose policies all resolve to their registered defaults, serialize
	// (and hash) exactly as they did before this field existed.
	Tracker string `json:"tracker,omitempty"`
}

// specDefaults mirror NewExperiment's and Sweep.Run's defaulting, applied
// at canonicalization time so an explicit default and an omitted field
// are the same spec — and the same hash.
const (
	defaultSpecOps   = 1_000_000
	defaultSpecRatio = 8
	defaultSpecSeed  = 1
)

// maxSpecCells bounds a spec's policies × ratios × seeds. A job
// enumerates and canonicalizes every cell of its spec, so an unbounded
// cross product would let one request exhaust the daemon's memory.
const maxSpecCells = 65_536

// Canonical validates the spec and returns its canonical form: workload
// normalized through the composition grammar, defaults made explicit,
// ignored fields zeroed. Two specs describe the same sweep iff their
// canonical forms are equal. The error text for a bad workload is exactly
// what registry validation reports (pinned by test), so service clients
// see the same diagnostics the CLI prints.
func (s SweepSpec) Canonical() (SweepSpec, error) {
	c := s
	name, err := registry.Workloads.Normalize(s.Workload)
	if err != nil {
		return SweepSpec{}, err
	}
	// Trace replays cannot be content-addressed: the hash would cover the
	// path string, not the trace file's bytes, so a rewritten file would
	// serve stale cached results as fresh — and a served daemon would let
	// any client make it open arbitrary server-side paths. Run replays
	// locally (WithTraceFile / htiersim -replay) instead.
	if hasTrace, terr := registry.Workloads.HasTraceWorkload(name); terr != nil {
		return SweepSpec{}, terr
	} else if hasTrace {
		return SweepSpec{}, fmt.Errorf("hybridtier: trace workloads are not content-addressable "+
			"(the spec hash covers the path, not the trace bytes); replay %q locally instead, "+
			"or upload the trace and submit it as corpus:<hash>", s.Workload)
	}
	// corpus:<hash> IS content-addressable (the hash names the trace
	// bytes), but a pure replay ignores seeds, so a multi-seed sweep of a
	// bare corpus leaf would archive identical cells under distinct labels.
	// Composed specs keep their seeds: the other tenants still draw on them.
	if strings.HasPrefix(name, registry.CorpusScheme) && len(s.Seeds) > 1 {
		return SweepSpec{}, fmt.Errorf("hybridtier: a corpus trace replay ignores seeds; "+
			"sweeping %d seeds would produce identical cells under different labels", len(s.Seeds))
	}
	c.Workload = name
	if len(s.Policies) == 0 {
		return SweepSpec{}, fmt.Errorf("hybridtier: spec needs at least one policy")
	}
	// Policy names resolve to (bare policy, tracker kind) pairs: a
	// "Name@tracker" qualifier wins, then the spec-level Tracker, then the
	// policy's registered default. The canonical spelling re-attaches the
	// qualifier only when the resolved kind differs from the default — so
	// "LRU@pebs", "LRU" under no forced tracker, and "LRU" under
	// Tracker:"pebs" are all the same cell — and the spec-level field is
	// zeroed once folded in.
	c.Policies = make([]PolicyName, len(s.Policies))
	seenP := make(map[PolicyName]bool, len(c.Policies))
	for i, p := range s.Policies {
		bare, kind, err := resolveTracker(string(p), s.Tracker, "spec")
		if err != nil {
			return SweepSpec{}, err
		}
		entry, _ := registry.Policies.Lookup(bare)
		def, err := normTrackerKind(entry.Tracker)
		if err != nil {
			return SweepSpec{}, err
		}
		canon := PolicyName(bare)
		if kind != def {
			canon = PolicyName(bare + registry.PolicyQualifierSep + kind)
		}
		if seenP[canon] {
			return SweepSpec{}, fmt.Errorf("hybridtier: policy %q listed twice; duplicate cells would shadow each other in the result", canon)
		}
		seenP[canon] = true
		c.Policies[i] = canon
	}
	c.Tracker = ""
	c.Ratios = append([]int(nil), s.Ratios...)
	if len(c.Ratios) == 0 {
		c.Ratios = []int{defaultSpecRatio}
	}
	seenR := make(map[int]bool, len(c.Ratios))
	for _, r := range c.Ratios {
		if r <= 0 {
			return SweepSpec{}, fmt.Errorf("hybridtier: spec ratios must be positive, got %d", r)
		}
		if seenR[r] {
			return SweepSpec{}, fmt.Errorf("hybridtier: ratio %d listed twice", r)
		}
		seenR[r] = true
	}
	c.Seeds = append([]uint64(nil), s.Seeds...)
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{defaultSpecSeed}
	}
	seenS := make(map[uint64]bool, len(c.Seeds))
	for _, sd := range c.Seeds {
		if sd == 0 {
			return SweepSpec{}, fmt.Errorf("hybridtier: spec seeds must be nonzero")
		}
		if seenS[sd] {
			return SweepSpec{}, fmt.Errorf("hybridtier: seed %d listed twice", sd)
		}
		seenS[sd] = true
	}
	// Built stepwise so the product never overflows: each factor is
	// checked against what the bound leaves for it.
	cells := len(c.Policies)
	for _, n := range []int{len(c.Ratios), len(c.Seeds)} {
		if n > maxSpecCells/cells {
			return SweepSpec{}, fmt.Errorf("hybridtier: spec spans %.0f cells (%d policies × %d ratios × %d seeds), more than the %d one sweep may run",
				float64(len(c.Policies))*float64(len(c.Ratios))*float64(len(c.Seeds)),
				len(c.Policies), len(c.Ratios), len(c.Seeds), maxSpecCells)
		}
		cells *= n
	}
	if s.Ops < 0 {
		return SweepSpec{}, fmt.Errorf("hybridtier: spec ops must be non-negative, got %d", s.Ops)
	}
	if s.Ops == 0 {
		c.Ops = defaultSpecOps
	}
	if s.WindowNs < 0 {
		return SweepSpec{}, fmt.Errorf("hybridtier: spec window_ns must be non-negative, got %d", s.WindowNs)
	}
	if s.Params != nil {
		p := *s.Params
		p.Seed = 0 // per-cell seeding owns this; a stray value must not split the hash
		if p.Pages < 0 || p.CacheObjects < 0 || p.GraphScale < 0 || p.GraphDegree < 0 ||
			p.Cells < 0 || p.Records < 0 || p.Rows < 0 || p.Features < 0 {
			return SweepSpec{}, fmt.Errorf("hybridtier: spec params must be non-negative")
		}
		if p.Skew < 0 || math.IsNaN(p.Skew) || math.IsInf(p.Skew, 0) {
			return SweepSpec{}, fmt.Errorf("hybridtier: spec skew must be a non-negative finite number")
		}
		if p == (WorkloadParams{}) {
			c.Params = nil // all defaults: same spec as no params at all
		} else {
			c.Params = &p
		}
	}
	return c, nil
}

// joinPolicies renders the known-policy list for error messages.
func joinPolicies(names []PolicyName) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += string(n)
	}
	return out
}

// CanonicalJSON canonicalizes the spec and serializes it as compact JSON
// with a fixed field order — the byte string Hash digests, and the body
// the service archives beside each cached result.
func (s SweepSpec) CanonicalJSON() ([]byte, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Hash canonicalizes the spec and returns the lowercase hex SHA-256 of
// its canonical JSON: the spec's content address. Identical experiments
// hash identically no matter how they were spelled; any change that
// could move results changes the hash.
func (s SweepSpec) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return HashCanonicalJSON(b), nil
}

// HashCanonicalJSON digests bytes produced by CanonicalJSON — the one
// definition of the spec content address, shared by Hash and by callers
// (the service) that already hold the canonical bytes and must not pay
// for, or risk diverging from, a second canonicalization.
func HashCanonicalJSON(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Sweep canonicalizes the spec and builds the equivalent runnable Sweep.
// Workers is left zero (callers schedule execution; the spec only
// describes results).
func (s SweepSpec) Sweep() (*Sweep, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	base := []Option{
		WithWorkloadName(c.Workload),
		WithOps(c.Ops),
		WithHugePages(c.Huge),
		WithCacheModel(c.Cache),
	}
	if c.Params != nil {
		base = append(base, WithWorkloadParams(*c.Params))
	}
	if c.WindowNs > 0 {
		base = append(base, WithWindowNs(c.WindowNs))
	}
	return &Sweep{
		Policies: c.Policies,
		Ratios:   c.Ratios,
		Seeds:    c.Seeds,
		Base:     base,
	}, nil
}

// CellSpec returns the singleton spec of cell c: the same workload,
// params, and execution-irrelevant knobs, with the sweep axes narrowed to
// the cell's coordinates. Because cells are independent and deterministic,
// a singleton sweep of CellSpec(c) produces exactly the cell's Result —
// which makes CellSpec's Hash the cell-level content address the sweep
// fabric (internal/fabric) shards, caches, and dedupes by: a cell computed
// for one sweep is a cache hit for every other sweep that contains it.
func (s SweepSpec) CellSpec(c Cell) SweepSpec {
	out := s
	out.Policies = []PolicyName{c.Policy}
	out.Ratios = []int{c.Ratio}
	out.Seeds = []uint64{c.Seed}
	return out
}
