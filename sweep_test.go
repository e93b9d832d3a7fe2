package hybridtier

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func testSweep(workers int) *Sweep {
	return &Sweep{
		Policies: []PolicyName{PolicyHybridTier, "LRU"},
		Ratios:   []int{16, 4},
		Seeds:    []uint64{1, 2},
		Workers:  workers,
		Base: []Option{
			WithWorkloadName("zipf"),
			WithWorkloadParams(WorkloadParams{Pages: 2048}),
			WithOps(20_000),
		},
	}
}

func TestSweepCellsOrder(t *testing.T) {
	cells := testSweep(1).Cells()
	if len(cells) != 2*2*2 {
		t.Fatalf("cross product size = %d, want 8", len(cells))
	}
	// Policy-major enumeration with Index matching position.
	want := Cell{Index: 0, Policy: PolicyHybridTier, Ratio: 16, Seed: 1}
	if cells[0] != want {
		t.Errorf("cells[0] = %+v, want %+v", cells[0], want)
	}
	want = Cell{Index: 7, Policy: "LRU", Ratio: 4, Seed: 2}
	if cells[7] != want {
		t.Errorf("cells[7] = %+v, want %+v", cells[7], want)
	}
}

// TestSweepDeterministicAcrossWorkers is the core contract: the same sweep
// produces byte-identical JSON no matter how many workers execute it.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var blobs [][]byte
	for _, workers := range []int{1, 4, 4} {
		cells, err := testSweep(workers).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Err != "" {
				t.Fatalf("cell %+v failed: %s", c.Cell, c.Err)
			}
		}
		b, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Error("1-worker and 4-worker sweeps produced different JSON")
	}
	if string(blobs[1]) != string(blobs[2]) {
		t.Error("two identical 4-worker sweeps produced different JSON")
	}
}

// TestSweepRunsCellsConcurrently proves the worker pool overlaps cells: two
// workload factories rendezvous at a barrier, which deadlocks (and times
// out into a cell error) if the two cells were executed sequentially. One
// policy over two seeds gives each seed a single cell, so no seed shares
// a stream and every factory call is a cell's own: only concurrent cells
// can meet at the barrier.
func TestSweepRunsCellsConcurrently(t *testing.T) {
	var arrivals atomic.Int32
	ready := make(chan struct{})
	sw := &Sweep{
		Policies: []PolicyName{PolicyHybridTier},
		Seeds:    []uint64{1, 2},
		Workers:  2,
		Base: []Option{
			WithOps(10_000),
			WithWorkloadFunc(func(seed uint64) (Workload, error) {
				if arrivals.Add(1) == 2 {
					close(ready)
				}
				select {
				case <-ready:
				case <-time.After(10 * time.Second):
					return nil, errors.New("cells did not run concurrently")
				}
				return trace.NewZipfSource("conc", 2048, 1.0, 0, seed), nil
			}),
		},
	}
	cells, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Err != "" {
			t.Fatalf("cell %s: %s", c.Policy, c.Err)
		}
	}
}

func TestSweepProgress(t *testing.T) {
	var calls []int
	sw := testSweep(4)
	sw.Progress = func(done, total int) {
		if total != 8 {
			t.Errorf("total = %d, want 8", total)
		}
		calls = append(calls, done)
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 8 {
		t.Fatalf("progress called %d times, want 8", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress counts not monotonic: %v", calls)
		}
	}
}

// TestSweepProgressStrictlyIncreasing is the regression test for the
// done-counter race: the completion count used to be incremented outside
// progMu, so two workers could acquire the lock out of increment order and
// deliver Progress(n+1) before Progress(n). A many-cell sweep with cheap
// cells and more workers than cores maximizes the completion contention
// that used to reorder the callbacks; run under -race this also proves the
// callback path is properly synchronized.
func TestSweepProgressStrictlyIncreasing(t *testing.T) {
	for round := 0; round < 3; round++ {
		seeds := make([]uint64, 12)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		var calls []int
		sw := &Sweep{
			Policies: []PolicyName{PolicyHybridTier, "LRU"},
			Ratios:   []int{8, 4},
			Seeds:    seeds,
			Workers:  16,
			Base: []Option{
				WithWorkloadName("zipf"),
				WithWorkloadParams(WorkloadParams{Pages: 512}),
				WithOps(1_000),
			},
		}
		total := len(sw.Cells())
		sw.Progress = func(done, tot int) {
			if tot != total {
				t.Errorf("total = %d, want %d", tot, total)
			}
			calls = append(calls, done)
		}
		if _, err := sw.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(calls) != total {
			t.Fatalf("progress called %d times, want %d", len(calls), total)
		}
		for i := 1; i < len(calls); i++ {
			if calls[i] <= calls[i-1] {
				t.Fatalf("progress went backwards at call %d: %v", i, calls)
			}
		}
		if calls[len(calls)-1] != total {
			t.Fatalf("final progress = %d, want %d", calls[len(calls)-1], total)
		}
	}
}

func TestSweepRejectsSharedWorkloadInstance(t *testing.T) {
	sw := &Sweep{
		Policies: []PolicyName{PolicyHybridTier},
		Base:     []Option{WithWorkload(trace.NewZipfSource("t", 1024, 1.0, 0, 1))},
	}
	_, err := sw.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "WithWorkloadName") {
		t.Errorf("sweep must reject a shared workload instance, got %v", err)
	}
}

func TestSweepRequiresPolicies(t *testing.T) {
	if _, err := (&Sweep{}).Run(context.Background()); err == nil {
		t.Error("empty sweep must fail")
	}
}

func TestSweepPerCellErrorsDoNotAbort(t *testing.T) {
	sw := testSweep(2)
	sw.Policies = []PolicyName{PolicyHybridTier, "no-such-policy"}
	cells, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	good, bad := 0, 0
	for _, c := range cells {
		if c.Err != "" {
			bad++
			if !strings.Contains(c.Err, "no-such-policy") {
				t.Errorf("unexpected cell error: %s", c.Err)
			}
		} else {
			good++
		}
	}
	if good != 4 || bad != 4 {
		t.Errorf("good=%d bad=%d, want 4/4", good, bad)
	}
}

// TestSweepCancellation cancels mid-sweep: Run must return promptly with
// the context error and whatever cells completed.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw := testSweep(1)
	sw.Base = append(sw.Base, WithOps(500_000))
	fired := false
	sw.Progress = func(done, total int) {
		if !fired {
			fired = true
			cancel()
		}
	}
	cells, err := sw.Run(ctx)
	if err == nil {
		t.Fatal("canceled sweep must return an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error must wrap context.Canceled: %v", err)
	}
	completed := 0
	for _, c := range cells {
		if c.Result != nil {
			completed++
		}
		// Every entry, run or not, must keep its coordinates and satisfy
		// the exactly-one-of-Result-and-Err contract.
		if c.Policy == "" || c.Seed == 0 {
			t.Errorf("cell %d lost its coordinates: %+v", c.Index, c.Cell)
		}
		if (c.Result == nil) == (c.Err == "") {
			t.Errorf("cell %d violates the Result/Err contract: %+v", c.Index, c)
		}
	}
	if completed == 0 || completed == len(cells) {
		t.Errorf("cancellation should leave a partial sweep, got %d/%d completed", completed, len(cells))
	}
}

func TestSweepRejectsZeroCoordinates(t *testing.T) {
	sw := testSweep(1)
	sw.Seeds = []uint64{0}
	if _, err := sw.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "seed") {
		t.Errorf("seed 0 must be rejected (it would run as seed 1 mislabeled), got %v", err)
	}
	sw = testSweep(1)
	sw.Ratios = []int{0}
	if _, err := sw.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "ratio") {
		t.Errorf("ratio 0 must be rejected (it would run as 1:8 mislabeled), got %v", err)
	}
}
