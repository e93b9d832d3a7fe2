package fabric

// Unit pins for the merge math the whole fabric rests on: a sweep
// executed as singleton cells, reindexed, and merged must produce the
// exact bytes one local Sweep.Run marshals. If these fail, nothing else
// in this package can be trusted.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/jobs"
)

// testSpec is the grid the fabric tests shard: 2 policies × 2 ratios ×
// 2 seeds = 8 cells, small enough to run in milliseconds.
func testSpec() hybridtier.SweepSpec {
	return hybridtier.SweepSpec{
		Workload: "zipf",
		Params:   &hybridtier.WorkloadParams{Pages: 2048},
		Policies: []hybridtier.PolicyName{hybridtier.PolicyHybridTier, "LRU"},
		Ratios:   []int{8, 16},
		Seeds:    []uint64{1, 2},
		Ops:      8_000,
	}
}

func canonical(t *testing.T, spec hybridtier.SweepSpec) []byte {
	t.Helper()
	b, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceRunner is the reference every byte-identity test here compares
// against — service.Runner, restated because internal/service imports this
// package: a plain Sweep.Run of the spec, marshaled.
func referenceRunner(sweepWorkers int) jobs.Runner {
	return func(ctx context.Context, canonical []byte, _ func(done, total int)) ([]byte, error) {
		var spec hybridtier.SweepSpec
		if err := json.Unmarshal(canonical, &spec); err != nil {
			return nil, err
		}
		sw, err := spec.Sweep()
		if err != nil {
			return nil, err
		}
		sw.Workers = sweepWorkers
		cells, err := sw.Run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(cells)
	}
}

// localRun executes a canonical spec exactly as a plain in-process sweep
// would.
func localRun(t *testing.T, spec []byte) []byte {
	t.Helper()
	out, err := referenceRunner(2)(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drain shuts a test's job manager down, as service.Drain does.
func drain(m *jobs.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.Drain(ctx)
}

func TestReindexedSingletonsMergeToLocalBytes(t *testing.T) {
	spec := canonical(t, testSpec())
	expected := localRun(t, spec)

	_, plans, err := hybridtier.CellPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 8 {
		t.Fatalf("planned %d cells, want 8", len(plans))
	}
	elements := make([][]byte, len(plans))
	for i, p := range plans {
		single, err := referenceRunner(1)(context.Background(), p.Spec, nil)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		elements[i], err = hybridtier.ReindexCellJSON(single, p.Cell.Index)
		if err != nil {
			t.Fatalf("cell %d reindex: %v", i, err)
		}
	}
	if got := hybridtier.MergeCellJSON(elements); !bytes.Equal(got, expected) {
		t.Errorf("merged singleton cells differ from local run:\n got %s\nwant %s", got, expected)
	}
}

func TestPlanCellsDerivesDistinctCellAddresses(t *testing.T) {
	spec := canonical(t, testSpec())
	_, plans, err := hybridtier.CellPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, p := range plans {
		if p.Hash != hybridtier.HashCanonicalJSON(p.Spec) {
			t.Errorf("cell %d: stored hash is not the hash of its singleton spec", i)
		}
		if seen[p.Hash] {
			t.Errorf("cell %d: hash %s collides with another cell", i, p.Hash)
		}
		seen[p.Hash] = true
		if p.Cell.Index != i {
			t.Errorf("cell %d: enumeration index %d", i, p.Cell.Index)
		}
	}
	// Planning is deterministic: same canonical bytes, same plan.
	_, again, err := hybridtier.CellPlans(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if plans[i].Hash != again[i].Hash || !bytes.Equal(plans[i].Spec, again[i].Spec) {
			t.Fatalf("replanning cell %d produced different spec/hash", i)
		}
	}
}

func TestReindexRejectsNonSingletons(t *testing.T) {
	if _, err := hybridtier.ReindexCellJSON([]byte(`[]`), 0); err == nil {
		t.Error("empty array: want error")
	}
	if _, err := hybridtier.ReindexCellJSON([]byte(`not json`), 0); err == nil {
		t.Error("garbage: want error")
	}
}

// okTransport answers every request 200 with an empty JSON object and
// counts deliveries — the probe behind the chaos determinism pins.
type okTransport struct{ deliveries int }

func (o *okTransport) RoundTrip(*http.Request) (*http.Response, error) {
	o.deliveries++
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusOK)
	rec.Body.WriteString("{}")
	return rec.Result(), nil
}

// chaosOutcome runs n attempts of the same request through a fresh Chaos
// and records, per attempt, whether it was delivered and how many inner
// deliveries it caused (2 = duplicated).
func chaosOutcome(t *testing.T, plan ChaosPlan, n int) []string {
	t.Helper()
	inner := &okTransport{}
	ch := NewChaos(inner, plan)
	out := make([]string, n)
	for i := range n {
		before := inner.deliveries
		req := httptest.NewRequest(http.MethodPost, "http://peer/fabric/run", bytes.NewReader([]byte("{}")))
		_, err := ch.RoundTrip(req)
		switch {
		case err != nil && inner.deliveries == before:
			out[i] = "dropped"
		case err != nil:
			out[i] = "reply-dropped"
		case inner.deliveries-before > 1:
			out[i] = "duplicated"
		default:
			out[i] = "clean"
		}
	}
	return out
}

func TestChaosScheduleIsDeterministicPerSeed(t *testing.T) {
	plan := ChaosPlan{Seed: 42, Drop: 0.3, DropReply: 0.2, Dup: 0.2}
	a := chaosOutcome(t, plan, 64)
	b := chaosOutcome(t, plan, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %s vs %s — same seed must fault identically", i, a[i], b[i])
		}
	}
	faults := 0
	for _, o := range a {
		if o != "clean" {
			faults++
		}
	}
	if faults == 0 {
		t.Error("a 70-percent-fault plan injected nothing in 64 attempts")
	}
	diff := 0
	for i, o := range chaosOutcome(t, ChaosPlan{Seed: 43, Drop: 0.3, DropReply: 0.2, Dup: 0.2}, 64) {
		if o != a[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed changed nothing — the schedule is not seeded")
	}
}

func TestChaosCannotStarveRetries(t *testing.T) {
	// Even at 90% drop, per-attempt decisions mean some attempt lands.
	out := chaosOutcome(t, ChaosPlan{Seed: 7, Drop: 0.9}, 100)
	for _, o := range out {
		if o == "clean" {
			return
		}
	}
	t.Error("no attempt out of 100 was delivered at Drop=0.9 — retries could starve")
}

func TestChaosDelayIsBoundedAndInterruptible(t *testing.T) {
	plan := ChaosPlan{Seed: 1, DelayProb: 1, DelayMax: 5 * time.Millisecond}
	ch := NewChaos(&okTransport{}, plan)
	start := time.Now()
	req := httptest.NewRequest(http.MethodGet, "http://peer/fabric/result/x", nil)
	if _, err := ch.RoundTrip(req); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("delay ran %s, far past DelayMax", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req = httptest.NewRequest(http.MethodGet, "http://peer/fabric/result/y", nil).WithContext(ctx)
	if _, err := ch.RoundTrip(req); err == nil {
		t.Error("canceled context: want error from delayed delivery")
	}
}
