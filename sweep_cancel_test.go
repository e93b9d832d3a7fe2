package hybridtier

// Mid-CELL cancellation coverage for Sweep.Run: the op loop checks for
// cancellation on a countdown, and the other sweep tests only cancel at
// cell boundaries (via Sweep.Progress). Here the cancel lands inside a
// cell's op loop, and the partial results must hold: the interrupted cell
// carries a CanceledError whose op count reflects real mid-run progress,
// finished cells keep their Results, and never-started cells are marked
// as such.

import (
	"context"
	"errors"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// canceledOps extracts the completed-op count from a CellResult.Err that
// wraps a *sim.CanceledError ("sim: run canceled after N ops: ...").
var canceledOps = regexp.MustCompile(`canceled after (\d+) ops`)

// fetchCapSource hands out at most limit ops per NextBatch, so the op
// loop's cancel countdown is consumed across short fetches instead of
// full default-size batches. Once it has handed out cancelAt ops it calls
// cancel on every fetch, so a test can fire a cancellation from inside
// the op loop. Embedding only the BatchSource interface hides ClockFree,
// so every cell generates live.
type fetchCapSource struct {
	trace.BatchSource
	limit    int
	cancelAt int64
	cancel   func()
	served   int64
}

func (f *fetchCapSource) NextBatch(dst []trace.Access, max int) []trace.Access {
	n := len(dst)
	dst = f.BatchSource.NextBatch(dst, min(max, f.limit))
	for _, a := range dst[n:] {
		if a.EndOp {
			f.served++
		}
	}
	if f.served >= f.cancelAt {
		f.cancel()
	}
	return dst
}

func TestSweepMidCellCancellation(t *testing.T) {
	const cellOps = 3_000_000
	for _, tc := range []struct {
		name  string
		limit int
	}{
		{"batched-default", math.MaxInt},
		{"batched-64", 64},
		// One op per fetch, the schedule the reference simulator runs.
		{"single-op-reference", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Workers=1 serializes the cells, so cell 0 finishes, the
			// cancel fires inside cell 1, and cell 2 never starts —
			// deterministic coverage of all three partial-result kinds.
			var cellsDone int
			sw := &Sweep{
				Policies: []PolicyName{PolicyHybridTier, "LRU", PolicyTPP},
				Seeds:    []uint64{1},
				Workers:  1,
				Base: []Option{
					WithWorkloadFunc(func(seed uint64) (Workload, error) {
						return &fetchCapSource{
							BatchSource: trace.NewZipfSource("zipf", 4096, 1.0, 0.1, seed),
							limit:       tc.limit,
							// Fires within each cell's op loop; arm the
							// cancel partway through the SECOND cell.
							cancelAt: cellOps / 4,
							cancel: func() {
								if cellsDone == 1 {
									cancel()
								}
							},
						}, nil
					}),
					WithOps(cellOps),
				},
				Progress: func(done, total int) { cellsDone = done },
			}
			cells, err := sw.Run(ctx)
			if err == nil {
				t.Fatal("canceled sweep must return an error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("sweep error must wrap context.Canceled: %v", err)
			}
			if len(cells) != 3 {
				t.Fatalf("got %d cells, want 3", len(cells))
			}

			// Cell 0 completed before the cancel: full Result, no error.
			if cells[0].Result == nil || cells[0].Err != "" {
				t.Errorf("finished cell lost its result: %+v", cells[0])
			}
			if got := cells[0].Result.Ops; got != cellOps {
				t.Errorf("finished cell ran %d ops, want %d", got, cellOps)
			}

			// Cell 1 was interrupted mid-run: no Result, and the error is
			// the simulator's CanceledError with a believable op count.
			if cells[1].Result != nil {
				t.Errorf("interrupted cell kept a result: %+v", cells[1])
			}
			m := canceledOps.FindStringSubmatch(cells[1].Err)
			if m == nil {
				t.Fatalf("interrupted cell error %q does not carry the CanceledError op count", cells[1].Err)
			}
			opsDone, aerr := strconv.ParseInt(m[1], 10, 64)
			if aerr != nil {
				t.Fatal(aerr)
			}
			if opsDone <= 0 || opsDone >= cellOps {
				t.Errorf("canceled op count %d not strictly mid-run (0, %d)", opsDone, cellOps)
			}
			// The cancel fired from the fetch that reached a quarter of the
			// cell, and that fetch's ops all run before the next poll.
			if opsDone < cellOps/4 {
				t.Errorf("op count %d below the %d ops fetched when cancel fired", opsDone, cellOps/4)
			}

			// Cell 2 never started and must say so.
			if cells[2].Result != nil || !strings.Contains(cells[2].Err, "before this cell ran") {
				t.Errorf("never-started cell = %+v", cells[2])
			}

			// Every cell, regardless of fate, keeps coordinates and the
			// exactly-one-of-Result-and-Err contract.
			for i, c := range cells {
				if c.Policy == "" || c.Seed == 0 || c.Index != i {
					t.Errorf("cell %d lost coordinates: %+v", i, c.Cell)
				}
				if (c.Result == nil) == (c.Err == "") {
					t.Errorf("cell %d violates the Result/Err contract: %+v", i, c)
				}
			}
		})
	}
}
