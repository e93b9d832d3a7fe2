package hybridtier_test

// Golden tests extending the determinism contract to the pluggable
// trackers: sweeps whose cells observe memory through idlepage scans or
// soft-dirty write tracking must produce byte-identical JSON across fetch
// schedules (BatchOps 1 vs default vs oversized), worker counts, and
// record→replay — exactly the guarantees the PEBS path already pins in
// batch_determinism_test.go. A separate accounting test checks the
// tracker's access counters are EXACT, not approximately right: the
// skip-countdown fold-back at simulation end must account for every
// access even when the op count is not a multiple of the sampling period.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	hybridtier "repro"

	"repro/internal/registry"
)

// trackerGoldenPolicies spans the tracker matrix: both new trackers under
// their native policies, a PEBS-native policy forced onto each scan
// tracker via qualifier, and an unqualified PEBS control.
func trackerGoldenPolicies() []hybridtier.PolicyName {
	return []hybridtier.PolicyName{
		"Heat-Idle", "Age-Idle", "Heat-Dirty",
		"Memtis@idlepage", "LRU@softdirty",
		"HybridTier",
	}
}

// runTrackerSweep executes the tracker golden grid and returns its
// marshaled cells. workloadWrites says whether the workload issues write
// ops: the liveness guard below requires soft-dirty cells to have drained
// samples only then (an all-read workload is legitimately invisible to
// write tracking — the documented soft-dirty blind spot — and its cells
// stay deterministic precisely by observing nothing).
func runTrackerSweep(t *testing.T, workers int, workloadWrites bool, base ...hybridtier.Option) []byte {
	t.Helper()
	cells, err := (&hybridtier.Sweep{
		Policies: trackerGoldenPolicies(),
		Ratios:   []int{8},
		Seeds:    []uint64{7},
		Workers:  workers,
		Base:     base,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Policy, c.Err)
		}
		// Liveness guard: scan trackers only emit at 20 ms scan
		// boundaries, so a run too short to cross one is observationally
		// silent and the byte-identity assertions pass vacuously. Every
		// caller runs enough ops (>=150k, tens of virtual ms) that each
		// scan-tracker cell must have drained samples — except soft-dirty
		// under an all-read workload, which sees nothing by design.
		trk := c.Result.Tracker
		if trk == "" || trk == "pebs" {
			continue
		}
		if trk == "softdirty" && !workloadWrites {
			continue
		}
		if c.Result.Pebs.Sampled == 0 {
			t.Fatalf("cell %s (%s tracker) drained 0 samples: run too short to scan, test is vacuous", c.Policy, trk)
		}
	}
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// trackerSingleVsBatched asserts single-op, default-batched, and
// large-batch runs of the same workload are byte-identical under the
// tracker grid. name resolves through the workload registry.
func trackerSingleVsBatched(t *testing.T, name string, writes bool) {
	t.Helper()
	single := runTrackerSweep(t, 0, writes,
		hybridtier.WithWorkloadFunc(func(seed uint64) (hybridtier.Workload, error) {
			p := goldenParams()
			p.Seed = seed
			w, err := registry.Workloads.New(name, p)
			if err != nil {
				return nil, err
			}
			return wrap(w), nil
		}),
		hybridtier.WithOps(200_000),
		hybridtier.WithBatchOps(1),
	)
	for _, batch := range []int{0, 64} { // 0 = package default
		batched := runTrackerSweep(t, 0, writes,
			hybridtier.WithWorkloadName(name),
			hybridtier.WithWorkloadParams(goldenParams()),
			hybridtier.WithOps(200_000),
			hybridtier.WithBatchOps(batch),
		)
		if string(single) != string(batched) {
			t.Fatalf("%s: BatchOps(%d) sweep JSON diverges from single-op path", name, batch)
		}
	}
}

func TestTrackerSweepMatchesSingleOp(t *testing.T) {
	// cdn writes its cache heap (soft-dirty sees admissions); the composed
	// mix additionally rides the shared in-memory replay stream — but both
	// of its components are all-read (zipf issues no writes, silo defaults
	// to YCSB-C), so its soft-dirty cells are expected-blind.
	trackerSingleVsBatched(t, "cdn", true)
	trackerSingleVsBatched(t, "mix:0.7*zipf,0.3*silo", false)
}

// TestTrackerSweepWorkerInvariance: scan trackers keep per-cell state
// (bitmaps, recycled rings); concurrent cells must not observe each
// other. One worker vs many must serialize identically.
func TestTrackerSweepWorkerInvariance(t *testing.T) {
	base := []hybridtier.Option{
		hybridtier.WithWorkloadName("cdn"),
		hybridtier.WithWorkloadParams(goldenParams()),
		hybridtier.WithOps(200_000),
	}
	serial := runTrackerSweep(t, 1, true, base...)
	concurrent := runTrackerSweep(t, 4, true, base...)
	if string(serial) != string(concurrent) {
		t.Fatal("tracker sweep JSON depends on worker count")
	}
}

// TestTrackerRecordReplayByteIdentical: recording a tracker-observed run
// and replaying the capture reproduces the live Result byte for byte —
// the tracker watches the access stream, so an identical stream must
// produce identical observations.
func TestTrackerRecordReplayByteIdentical(t *testing.T) {
	for _, pol := range []hybridtier.PolicyName{"Heat-Idle", "LRU@softdirty"} {
		capPath := filepath.Join(t.TempDir(), string(pol)+".htrc")
		runOnce := func(extra ...hybridtier.Option) []byte {
			t.Helper()
			res, err := hybridtier.NewExperiment(append([]hybridtier.Option{
				hybridtier.WithWorkloadName("cdn"),
				hybridtier.WithWorkloadParams(goldenParams()),
				hybridtier.WithPolicy(pol),
				hybridtier.WithOps(200_000),
				hybridtier.WithSeed(7),
			}, extra...)...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Pebs.Sampled == 0 {
				t.Fatalf("%s: 0 samples drained — run too short for the scan to fire, replay test is vacuous", pol)
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
			t.Fatalf("%s: replaying a capture diverges from the live run", pol)
		}
	}
}

// TestSweepRecycledRingMatchesFreshRuns is the ring-scrub regression: a
// sweep worker recycles sample rings across cells, so a cell whose
// tracker drains fewer samples than its predecessor wrote must never see
// the predecessor's leftovers. Every cell of a mixed-tracker sweep (PEBS
// ring, then idlepage ring, then soft-dirty — maximally different fill
// patterns) must equal the same cell run as a fresh singleton experiment.
// The CI race job additionally runs this under -race, catching any
// sharing the scrub hides.
func TestSweepRecycledRingMatchesFreshRuns(t *testing.T) {
	policies := []hybridtier.PolicyName{"Memtis", "Heat-Idle", "LRU@softdirty", "HybridTier"}
	base := []hybridtier.Option{
		hybridtier.WithWorkloadName("cdn"),
		hybridtier.WithWorkloadParams(goldenParams()),
		hybridtier.WithOps(200_000),
	}
	cells, err := (&hybridtier.Sweep{
		Policies: policies,
		Ratios:   []int{8},
		Seeds:    []uint64{7},
		Workers:  1, // one worker = every cell reuses the same scratch
		Base:     base,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Policy, c.Err)
		}
		if trk := c.Result.Tracker; trk != "" && trk != "pebs" && c.Result.Pebs.Sampled == 0 {
			t.Fatalf("cell %s (%s tracker) drained 0 samples: scrub test is vacuous", c.Policy, trk)
		}
		fresh, err := hybridtier.NewExperiment(append(base,
			hybridtier.WithPolicy(c.Policy),
			hybridtier.WithRatio(c.Ratio),
			hybridtier.WithSeed(c.Seed),
		)...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(c.Result)
		want, _ := json.Marshal(fresh)
		if string(got) != string(want) {
			t.Errorf("%s: recycled-scratch cell diverges from a fresh run", c.Policy)
		}
	}
}

// TestTrackerAccountingExact: the simulator hoists the tracker's sampling
// countdown into its hot loop and folds the remainder back through
// ObserveSkipped at simulation end. For a single-access-per-op workload
// the invariant is exact: the tracker's access counter equals the op
// count, for ANY op count — including ones that are not a multiple of
// the PEBS period (13) and leave a partial countdown to fold — and for
// any fetch schedule. An off-by-one here would silently skew every
// sampled-fraction statistic in the paper's overhead tables.
func TestTrackerAccountingExact(t *testing.T) {
	// Prime: not a multiple of any period or batch size, and large enough
	// (tens of virtual ms) that scan trackers cross several 20 ms scan
	// boundaries, so the cross-mode identity covers Sync costs too.
	const ops = 200_003
	for _, tc := range []struct {
		name string
		pol  hybridtier.PolicyName
	}{
		{"pebs", "Memtis"},
		{"idlepage", "Heat-Idle"},
		{"softdirty", "LRU@softdirty"},
	} {
		var ref []byte
		for _, mode := range []struct {
			label string
			extra []hybridtier.Option
		}{
			{"batch1", []hybridtier.Option{hybridtier.WithBatchOps(1)}},
			{"batch7", []hybridtier.Option{hybridtier.WithBatchOps(7)}},
			{"default", nil},
		} {
			res, err := hybridtier.NewExperiment(append([]hybridtier.Option{
				hybridtier.WithWorkload(hybridtier.Zipf("acct", 1<<12, 1.0, 7)),
				hybridtier.WithPolicy(tc.pol),
				hybridtier.WithOps(ops),
				hybridtier.WithSeed(7),
			}, mode.extra...)...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Pebs.Accesses != ops {
				t.Errorf("%s/%s: tracker saw %d accesses, want exactly %d",
					tc.name, mode.label, res.Pebs.Accesses, ops)
			}
			b, _ := json.Marshal(res)
			if ref == nil {
				ref = b
			} else if string(b) != string(ref) {
				t.Errorf("%s/%s: result diverges from the batch-1 reference", tc.name, mode.label)
			}
		}
	}
}
