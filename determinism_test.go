package hybridtier_test

// Facade-level determinism: what the reference simulator in internal/sim
// cannot see. It compares sim.Run with a naive loop cell by cell; these
// tests pin what happens around a cell — sweeps over many workers, and a
// capture replayed from disk — to the same bytes.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	hybridtier "repro"

	"repro/internal/registry"
	"repro/internal/trace"
)

// goldenParams sizes the workloads small enough for the test suite.
func goldenParams() registry.WorkloadParams {
	return registry.WorkloadParams{
		CacheObjects: 800,
		GraphScale:   10,
		GraphDegree:  8,
		Records:      1 << 15,
		Rows:         1 << 14,
		Features:     8,
		Pages:        1 << 13,
		Skew:         1.0,
	}
}

// TestTrackerSweepWorkerInvariance: scan trackers keep per-cell state
// (bitmaps, recycled rings); concurrent cells must not observe each
// other. One worker vs many must serialize identically. The grid spans
// both scan trackers under their native policies, a PEBS-native policy
// forced onto each via qualifier, and an unqualified PEBS control.
func TestTrackerSweepWorkerInvariance(t *testing.T) {
	run := func(workers int) []byte {
		cells, err := (&hybridtier.Sweep{
			Policies: []hybridtier.PolicyName{"Heat-Idle", "Age-Idle", "Heat-Dirty",
				"Memtis@idlepage", "LRU@softdirty", "HybridTier"},
			Ratios:  []int{8},
			Seeds:   []uint64{7},
			Workers: workers,
			Base: []hybridtier.Option{
				hybridtier.WithWorkloadName("cdn"),
				hybridtier.WithWorkloadParams(goldenParams()),
				hybridtier.WithOps(200_000),
			},
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Err != "" {
				t.Fatalf("cell %s failed: %s", c.Policy, c.Err)
			}
			// Liveness guard: scan trackers only emit at 20 ms scan
			// boundaries, so a run too short to cross one is silent and
			// the comparison passes vacuously. cdn writes its cache heap,
			// so soft-dirty cells must see samples too.
			if trk := c.Result.Tracker; trk != "" && c.Result.Pebs.Sampled == 0 {
				t.Fatalf("cell %s (%s tracker) took 0 samples: run too short to scan, test is vacuous", c.Policy, trk)
			}
		}
		b, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(run(1)) != string(run(4)) {
		t.Fatal("tracker sweep JSON depends on worker count")
	}
}

// TestRecordReplayByteIdentical: recording a run and replaying the capture
// under the recorded coordinates reproduces the live Result byte for byte
// — for a composed workload, whose interleave, per-tenant seeding and page
// remapping must all survive the file, and for scan-tracker cells, which
// watch the access stream and so must observe a replayed one identically.
func TestRecordReplayByteIdentical(t *testing.T) {
	for _, c := range []struct {
		name, workload string
		policy         hybridtier.PolicyName
		ops            int64
	}{
		{"composed", "mix:0.7*zipf,0.3*silo", "HybridTier", 20_000},
		{"idlepage", "cdn", "Heat-Idle", 200_000},
		{"softdirty", "cdn", "LRU@softdirty", 200_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			capPath := filepath.Join(t.TempDir(), "run.htrc")
			runOnce := func(extra ...hybridtier.Option) []byte {
				t.Helper()
				res, err := hybridtier.NewExperiment(append([]hybridtier.Option{
					hybridtier.WithWorkloadName(c.workload),
					hybridtier.WithWorkloadParams(goldenParams()),
					hybridtier.WithPolicy(c.policy),
					hybridtier.WithOps(c.ops),
					hybridtier.WithSeed(7),
				}, extra...)...).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if res.Tracker != "" && res.Pebs.Sampled == 0 {
					t.Fatalf("%s: 0 samples — run too short for the scan to fire, replay test is vacuous", c.policy)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			live := runOnce(hybridtier.WithRecordTo(capPath))
			replayed := runOnce(hybridtier.WithTraceFile(capPath))
			if string(live) != string(replayed) {
				t.Fatal("replaying the capture diverges from the live run")
			}
		})
	}
}

// TestTrackerAccountingExact: the simulator hoists the tracker's sampling
// countdown into its hot loop and folds the remainder back through
// ObserveSkipped at simulation end. For a single-access-per-op workload
// the tracker's access counter must equal the op count exactly — here a
// prime count, not a multiple of the PEBS period (13), which leaves a
// partial countdown to fold. An off-by-one would silently skew every
// sampled-fraction statistic in the paper's overhead tables. The reference
// simulator checks the same identity on every differential cell.
func TestTrackerAccountingExact(t *testing.T) {
	// Long enough (tens of virtual ms) for the scan trackers to cross
	// several 20 ms scans.
	const ops = 200_003
	for _, pol := range []hybridtier.PolicyName{"Memtis", "Heat-Idle", "LRU@softdirty"} {
		res, err := hybridtier.NewExperiment(
			hybridtier.WithWorkload(trace.NewZipfSource("acct", 1<<12, 1.0, 0, 7)),
			hybridtier.WithPolicy(pol),
			hybridtier.WithOps(ops),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Pebs.Accesses != ops {
			t.Errorf("%s: tracker saw %d accesses, want exactly %d", pol, res.Pebs.Accesses, ops)
		}
	}
}
