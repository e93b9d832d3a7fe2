package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/baselines"
	"repro/internal/trace"
)

func cancelConfig(ops int64) Config {
	w := trace.NewZipfSource("cancel", 4096, 1.0, 0, 1)
	cfg := DefaultConfig(w, baselines.NewStatic("FirstTouch"), 512)
	cfg.Ops = ops
	return cfg
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cancelConfig(100_000)
	cfg.Ctx = ctx
	_, err := Run(cfg)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CanceledError, got %v", err)
	}
	if ce.OpsDone != 0 {
		t.Errorf("OpsDone = %d, want 0", ce.OpsDone)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("must unwrap to context.Canceled: %v", err)
	}
}

// cancelingSource hands out its source's ops and cancels once it has
// handed out at least at of them, so the cancel fires from inside the op
// loop's fetch at an op count the test knows: firedAt, the ops fetched
// when it fired.
type cancelingSource struct {
	trace.BatchSource
	at, served, firedAt int64
	cancel              func()
}

func (c *cancelingSource) NextBatch(dst []trace.Access, max int) []trace.Access {
	n := len(dst)
	dst = c.BatchSource.NextBatch(dst, max)
	for _, a := range dst[n:] {
		if a.EndOp {
			c.served++
		}
	}
	if c.firedAt == 0 && c.served >= c.at {
		c.firedAt = c.served
		c.cancel()
	}
	return dst
}

// TestRunCanceledMidRun also passes the canceled run a Scratch that a
// finished run filled, then reuses it for a reference cell: the canceled
// run stopped inside an open window of latency counts, and none of them
// may reach the next run's bytes.
func TestRunCanceledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := new(Scratch)
	cell := refCell{workload: "zipf", policy: "FirstTouch", ops: 20_000, window: 100_000_000}
	cell.check(t, sc)
	cfg := cancelConfig(1_000_000)
	src := &cancelingSource{BatchSource: trace.AsBatchSource(cfg.Workload), at: 1 << 16, cancel: cancel}
	cfg.Workload, cfg.Ctx, cfg.Scratch = src, ctx, sc
	_, err := Run(cfg)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CanceledError, got %v", err)
	}
	if src.firedAt == 0 {
		t.Fatalf("the cancel never fired; OpsDone = %d of %d", ce.OpsDone, cfg.Ops)
	}
	// The batch whose fetch fired the cancel runs to its end, and the loop
	// polls the context at the first batch boundary after cancelCheckEvery
	// ops since its last poll.
	if ce.OpsDone < src.firedAt || ce.OpsDone > src.firedAt+cancelCheckEvery+batchOps {
		t.Errorf("run stopped after %d ops; the cancel fired at op %d, so it must stop within %d ops of it",
			ce.OpsDone, src.firedAt, cancelCheckEvery+batchOps)
	}
	cell.check(t, sc)
}
