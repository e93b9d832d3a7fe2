package hybridtier_test

// Result pins for every registered policy. TestRunMatchesReference holds
// the simulator loop to a naive reference, but both sides run the same
// policy code, and bench/golden.json covers only some policies; these
// pins are what notices a policy deciding differently. Regenerate after
// an intentional behaviour change with:
//
//	go test -run TestPolicyPins -update .
//
// and say in the change which policies moved and why.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hybridtier "repro"
)

var update = flag.Bool("update", false, "rewrite testdata/policy_results.txt with current results")

// pinCell is one pinned (workload, page size, ratio) point; every
// registered policy runs at it.
type pinCell struct {
	label    string
	workload string
	huge     bool
	ratio    int
}

var pinCells = []pinCell{
	{"cdn/4k/1:16", "cdn", false, 16},
	{"silo/huge/1:4", "silo", true, 4},
}

// walkingPolicies demote by walking the fast tier under a free-space
// watermark; each must demote in at least one pinned cell, or the pins
// would not cover the walk.
var walkingPolicies = []hybridtier.PolicyName{
	"HybridTier", "Memtis", "AutoNUMA", "TPP", "Heat-Idle", "Age-Idle",
}

// TestPolicyPins runs every registered policy on the pinned cells and
// compares the sha256 of each cell's Result JSON with
// testdata/policy_results.txt.
func TestPolicyPins(t *testing.T) {
	var lines []string
	demoted := map[hybridtier.PolicyName]bool{}
	for _, pc := range pinCells {
		cells, err := (&hybridtier.Sweep{
			Policies: hybridtier.Policies(),
			Ratios:   []int{pc.ratio},
			Seeds:    []uint64{3},
			Base: []hybridtier.Option{
				hybridtier.WithWorkloadName(pc.workload),
				hybridtier.WithWorkloadParams(hybridtier.WorkloadParams{
					CacheObjects: 4000,
					Records:      1 << 17,
					Skew:         1.0,
				}),
				hybridtier.WithHugePages(pc.huge),
				hybridtier.WithOps(1_000_000),
			},
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Err != "" {
				t.Fatalf("%s %s: %s", pc.label, c.Policy, c.Err)
			}
			b, err := json.Marshal(c.Result)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			lines = append(lines, fmt.Sprintf("%s %s %s", pc.label, c.Policy, hex.EncodeToString(sum[:])))
			if c.Result.Mem.Demotions > 0 {
				demoted[c.Policy] = true
			}
		}
	}
	for _, p := range walkingPolicies {
		if !demoted[p] {
			t.Errorf("%s demoted nothing in any pinned cell: its fast-tier walk is unpinned", p)
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "policy_results.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pins (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("pinned %d cells, ran %d; regenerate with -update if a policy was added or removed", len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("result drifted:\n got %s\nwant %s", l, wantLines[i])
		}
	}
}
