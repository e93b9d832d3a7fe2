package hybridtier

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSpecPreTrackerHashCompat replays canonical (JSON, hash) pairs
// captured before the Tracker field and "Policy@tracker" qualifiers
// existed (testdata/pretracker_hashes.txt). The spec hash is a content
// address: archived results and the service's dedup cache are keyed by
// it, so a spec spelled the old way must canonicalize to byte-identical
// JSON — and the identical hash — forever. A failure here silently
// orphans every previously archived result.
func TestSpecPreTrackerHashCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/pretracker_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || len(lines)%2 != 0 {
		t.Fatalf("fixture wants alternating JSON/hash lines, got %d lines", len(lines))
	}
	for i := 0; i < len(lines); i += 2 {
		wantJSON, wantHash := lines[i], lines[i+1]
		var s SweepSpec
		if err := json.Unmarshal([]byte(wantJSON), &s); err != nil {
			t.Fatalf("fixture line %d: %v", i+1, err)
		}
		gotJSON, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("fixture line %d: %v", i+1, err)
		}
		if string(gotJSON) != wantJSON {
			t.Errorf("pre-tracker spec no longer canonicalizes to its archived bytes:\n got %s\nwant %s", gotJSON, wantJSON)
		}
		gotHash, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if gotHash != wantHash {
			t.Errorf("pre-tracker spec hash drifted:\n got %s\nwant %s\nfor %s", gotHash, wantHash, wantJSON)
		}
	}
}

// TestSpecTrackerFold: the canonical form folds the spec-level Tracker
// into per-policy qualifiers, re-attaching a qualifier only when the
// resolved tracker differs from the policy's registered default — so
// every spelling of the same cells is one spec, one hash.
func TestSpecTrackerFold(t *testing.T) {
	canon := func(s SweepSpec) SweepSpec {
		t.Helper()
		c, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	base := func() SweepSpec {
		return SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU"}, Ops: 10_000}
	}

	// A redundant qualifier and a redundant forced tracker both fold away.
	for name, s := range map[string]SweepSpec{
		"explicit pebs qualifier": {Workload: "zipf", Policies: []PolicyName{"LRU@pebs"}, Ops: 10_000},
		"forced pebs tracker":     {Workload: "zipf", Policies: []PolicyName{"LRU"}, Tracker: TrackerPEBS, Ops: 10_000},
		"empty qualifier":         {Workload: "zipf", Policies: []PolicyName{"LRU@"}, Ops: 10_000},
	} {
		c := canon(s)
		if len(c.Policies) != 1 || c.Policies[0] != "LRU" || c.Tracker != "" {
			t.Errorf("%s: canonical %+v, want bare LRU with empty Tracker", name, c)
		}
		h1, _ := s.Hash()
		h2, _ := base().Hash()
		if h1 != h2 {
			t.Errorf("%s hashes differently from the bare spelling", name)
		}
	}

	// A non-default tracker becomes a qualifier, whether forced or inline,
	// and the spec-level field always canonicalizes to empty.
	forced := base()
	forced.Tracker = TrackerIdlepage
	inline := SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU@idlepage"}, Ops: 10_000}
	cf, ci := canon(forced), canon(inline)
	if cf.Policies[0] != "LRU@idlepage" || cf.Tracker != "" {
		t.Errorf("forced idlepage canonical %+v, want LRU@idlepage with empty Tracker", cf)
	}
	hf, _ := forced.Hash()
	hi, _ := inline.Hash()
	hb, _ := base().Hash()
	if hf != hi {
		t.Error("forced and inline idlepage spellings hash differently")
	}
	if hf == hb {
		t.Error("tracker choice moves results but not the hash")
	}
	_ = ci

	// A policy registered against a non-PEBS tracker stays bare under its
	// own default and gains a qualifier only when moved off it.
	own := SweepSpec{Workload: "zipf", Policies: []PolicyName{"Heat-Idle@idlepage"}, Ops: 10_000}
	if c := canon(own); c.Policies[0] != "Heat-Idle" {
		t.Errorf("Heat-Idle@idlepage canonicalizes to %q, want bare Heat-Idle", c.Policies[0])
	}
	moved := SweepSpec{Workload: "zipf", Policies: []PolicyName{"Heat-Idle@pebs"}, Ops: 10_000}
	if c := canon(moved); c.Policies[0] != "Heat-Idle@pebs" {
		t.Errorf("Heat-Idle@pebs canonicalizes to %q, want the qualifier kept", c.Policies[0])
	}

	// Duplicates are detected after folding: "LRU" and "LRU@pebs" are the
	// same cell, so listing both is the same error as listing LRU twice.
	dup := SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU", "LRU@pebs"}, Ops: 10_000}
	if _, err := dup.Canonical(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("post-fold duplicate not rejected: %v", err)
	}
	// ...but the same policy under two trackers is two distinct cells.
	two := SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU", "LRU@idlepage"}, Ops: 10_000}
	if _, err := two.Canonical(); err != nil {
		t.Errorf("same policy under two trackers rejected: %v", err)
	}
}

// TestSpecTrackerExactErrors pins the EXACT text of every tracker
// resolution failure. Like the workload grammar's messages these travel
// verbatim in the service's 400 responses (docs/SERVICE.md), so a
// rewording is a breaking change.
func TestSpecTrackerExactErrors(t *testing.T) {
	cases := []struct {
		name string
		spec SweepSpec
		want string
	}{
		{
			"unknown forced tracker",
			SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU"}, Tracker: "nope"},
			`hybridtier: unknown tracker "nope" (known: idlepage, pebs, softdirty)`,
		},
		{
			"unknown tracker qualifier",
			SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU@nope"}},
			`hybridtier: unknown tracker "nope" (known: idlepage, pebs, softdirty)`,
		},
		{
			"qualifier vs forced conflict",
			SweepSpec{Workload: "zipf", Policies: []PolicyName{"LRU@idlepage"}, Tracker: TrackerSoftDirty},
			`hybridtier: policy "LRU@idlepage" pins tracker "idlepage" but the spec forces "softdirty"`,
		},
		{
			"unknown policy keeps its full spelling",
			SweepSpec{Workload: "zipf", Policies: []PolicyName{"Nope@pebs"}},
			`hybridtier: unknown policy "Nope@pebs" (known: `,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Canonical()
			if err == nil {
				t.Fatal("Canonical() = nil, want error")
			}
			got := err.Error()
			if strings.HasSuffix(c.want, ": ") { // prefix pin: the known list grows
				if !strings.HasPrefix(got, c.want) {
					t.Errorf("error %q, want prefix %q", got, c.want)
				}
			} else if got != c.want {
				t.Errorf("error\n  %q\nwant\n  %q", got, c.want)
			}
		})
	}

	// ValidateTracker (the CLI's upfront check) and the spec agree on the
	// diagnostic, so -tracker and -submit report identically.
	if err := ValidateTracker("nope"); err == nil ||
		err.Error() != `hybridtier: unknown tracker "nope" (known: idlepage, pebs, softdirty)` {
		t.Errorf("ValidateTracker diverges from the spec diagnostic: %v", err)
	}
	if err := ValidateTracker(""); err != nil {
		t.Errorf("ValidateTracker(\"\") = %v, want nil (empty means default)", err)
	}
}
