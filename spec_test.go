package hybridtier

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func validSpec() SweepSpec {
	return SweepSpec{
		Workload: "zipf",
		Params:   &WorkloadParams{Pages: 2048},
		Policies: []PolicyName{PolicyHybridTier, "LRU"},
		Ratios:   []int{16, 4},
		Seeds:    []uint64{1, 2},
		Ops:      20_000,
	}
}

func TestSpecCanonicalAppliesDefaults(t *testing.T) {
	c, err := SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU"}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops != 1_000_000 || len(c.Ratios) != 1 || c.Ratios[0] != 8 ||
		len(c.Seeds) != 1 || c.Seeds[0] != 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
	// Explicit defaults and omitted fields are the same spec.
	explicit := SweepSpec{
		Workload: "zipf", Policies: []PolicyName{"LRU"},
		Ratios: []int{8}, Seeds: []uint64{1}, Ops: 1_000_000,
	}
	h1, err := SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU"}}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("explicit defaults hash differently from omitted fields")
	}
}

// TestSpecHashInvariants: the hash must be insensitive to spelling
// (workload normalization, zero-value params, stray params seed) and
// sensitive to anything that moves results.
func TestSpecHashInvariants(t *testing.T) {
	base := validSpec()
	hash := func(s SweepSpec) string {
		t.Helper()
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := hash(base)
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Errorf("hash %q is not lowercase hex sha256", h)
	}

	same := []func(*SweepSpec){
		func(s *SweepSpec) { s.Workload = " zipf " },
		func(s *SweepSpec) { s.Workload = "(zipf)" },
		func(s *SweepSpec) { s.Params.Seed = 99 }, // ignored: cells own seeding
	}
	for i, mut := range same {
		s := validSpec()
		mut(&s)
		if hash(s) != h {
			t.Errorf("mutation %d changed the hash but not the experiment", i)
		}
	}

	diff := []func(*SweepSpec){
		func(s *SweepSpec) { s.Workload = "cdn" },
		func(s *SweepSpec) { s.Params.Pages = 4096 },
		func(s *SweepSpec) { s.Policies = []PolicyName{"LRU", PolicyHybridTier} }, // order = cell order
		func(s *SweepSpec) { s.Ratios = []int{4, 16} },
		func(s *SweepSpec) { s.Seeds = []uint64{2, 1} },
		func(s *SweepSpec) { s.Ops = 30_000 },
		func(s *SweepSpec) { s.Huge = true },
		func(s *SweepSpec) { s.Cache = true },
		func(s *SweepSpec) { s.WindowNs = 1_000_000 },
	}
	for i, mut := range diff {
		s := validSpec()
		mut(&s)
		if hash(s) == h {
			t.Errorf("mutation %d changed the experiment but not the hash", i)
		}
	}

	// Composed specs normalize before hashing: implicit and explicit mix
	// weights are the same experiment.
	a := SweepSpec{Workload: "mix:zipf,zipf", Policies: []PolicyName{"LRU"}}
	b := SweepSpec{Workload: "mix:1*zipf,1*zipf", Policies: []PolicyName{"LRU"}}
	if hash(a) != hash(b) {
		t.Error("normalized composition specs hash differently")
	}
}

func TestSpecCanonicalErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SweepSpec)
		want string
	}{
		{"no policies", func(s *SweepSpec) { s.Policies = nil }, "at least one policy"},
		{"unknown policy", func(s *SweepSpec) { s.Policies = []PolicyName{"Nope"} }, `"Nope"`},
		{"duplicate policy", func(s *SweepSpec) { s.Policies = []PolicyName{"LRU", "LRU"} }, "twice"},
		{"bad workload", func(s *SweepSpec) { s.Workload = "nope" }, `"nope"`},
		{"bad grammar", func(s *SweepSpec) { s.Workload = "mix:zipf" }, "at least two"},
		// Trace replays are path references, so the hash cannot cover the
		// stream bytes — specs must reject them, even nested.
		{"trace workload", func(s *SweepSpec) { s.Workload = "trace:/tmp/x.htrc" }, "content-addressable"},
		{"nested trace workload", func(s *SweepSpec) { s.Workload = "mix:0.5*zipf,0.5*(trace:/tmp/x.htrc)" }, "content-addressable"},
		{"zero ratio", func(s *SweepSpec) { s.Ratios = []int{0} }, "positive"},
		{"duplicate ratio", func(s *SweepSpec) { s.Ratios = []int{8, 8} }, "twice"},
		{"zero seed", func(s *SweepSpec) { s.Seeds = []uint64{0} }, "nonzero"},
		{"duplicate seed", func(s *SweepSpec) { s.Seeds = []uint64{3, 3} }, "twice"},
		{"negative ops", func(s *SweepSpec) { s.Ops = -1 }, "non-negative"},
		{"negative window", func(s *SweepSpec) { s.WindowNs = -1 }, "non-negative"},
		{"negative params", func(s *SweepSpec) { s.Params = &WorkloadParams{Pages: -1} }, "non-negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mut(&s)
			_, err := s.Canonical()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Canonical() error %v, want substring %q", err, c.want)
			}
			// The three derived forms must agree on rejection.
			if _, err := s.CanonicalJSON(); err == nil {
				t.Error("CanonicalJSON accepted an invalid spec")
			}
			if _, err := s.Hash(); err == nil {
				t.Error("Hash accepted an invalid spec")
			}
			if _, err := s.Sweep(); err == nil {
				t.Error("Sweep accepted an invalid spec")
			}
		})
	}
}

// TestSpecCanonicalBoundsCells: a spec may span at most maxSpecCells
// cells; the bound is inclusive and the error names the product.
func TestSpecCanonicalBoundsCells(t *testing.T) {
	grid := func(policies []PolicyName, ratios, seeds int) SweepSpec {
		s := validSpec()
		s.Policies, s.Ratios, s.Seeds = policies, nil, nil
		for i := 1; i <= ratios; i++ {
			s.Ratios = append(s.Ratios, i)
		}
		for i := 1; i <= seeds; i++ {
			s.Seeds = append(s.Seeds, uint64(i))
		}
		return s
	}
	c, err := grid([]PolicyName{"LRU"}, 256, 256).Canonical()
	if err != nil {
		t.Fatalf("1×256×256 spec rejected: %v", err)
	}
	if len(c.Ratios) != 256 || len(c.Seeds) != 256 {
		t.Errorf("canonical spec spans %d ratios × %d seeds, want 256 × 256", len(c.Ratios), len(c.Seeds))
	}
	for _, c := range []struct {
		spec SweepSpec
		want string
	}{
		{grid([]PolicyName{"LRU"}, 256, 257), "hybridtier: spec spans 65792 cells (1 policies × 256 ratios × 257 seeds), more than the 65536 one sweep may run"},
		{grid([]PolicyName{PolicyHybridTier, "LRU"}, 300, 300), "hybridtier: spec spans 180000 cells (2 policies × 300 ratios × 300 seeds), more than the 65536 one sweep may run"},
	} {
		if _, err := c.spec.Canonical(); err == nil || err.Error() != c.want {
			t.Errorf("Canonical() error %v, want %q", err, c.want)
		}
	}
}

func TestSpecCanonicalJSONIsStable(t *testing.T) {
	b1, err := validSpec().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := validSpec().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("canonical JSON is not deterministic")
	}
	// Canonical JSON round-trips through SweepSpec to the same bytes: the
	// service stores it and re-parses it when executing a job.
	var rt SweepSpec
	if err := json.Unmarshal(b1, &rt); err != nil {
		t.Fatal(err)
	}
	b3, err := rt.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b3) != string(b1) {
		t.Errorf("canonical JSON not a fixed point:\n%s\n%s", b1, b3)
	}
}

// TestSpecSweepMatchesHandBuiltSweep: running the spec-built Sweep yields
// byte-identical JSON to the equivalent hand-assembled Sweep — the bridge
// the service's byte-identity guarantee stands on.
func TestSpecSweepMatchesHandBuiltSweep(t *testing.T) {
	sw, err := validSpec().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := testSweep(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Error("spec-built sweep JSON diverges from the hand-built sweep")
	}
}
