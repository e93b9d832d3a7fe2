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
	cfg.Ctx, cfg.Scratch = ctx, sc
	cfg.Progress = func(done, total int64) {
		if done >= progressEvery && done < total {
			cancel()
		}
	}
	_, err := Run(cfg)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CanceledError, got %v", err)
	}
	if ce.OpsDone <= 0 || ce.OpsDone >= cfg.Ops {
		t.Errorf("cancellation should land mid-run: OpsDone = %d of %d", ce.OpsDone, cfg.Ops)
	}
	cell.check(t, sc)
}

func TestRunProgressReachesTotal(t *testing.T) {
	cfg := cancelConfig(3*progressEvery + 1000)
	var last, calls int64
	cfg.Progress = func(done, total int64) {
		if total != cfg.Ops {
			t.Errorf("total = %d, want %d", total, cfg.Ops)
		}
		if done < last {
			t.Errorf("progress went backwards: %d after %d", done, last)
		}
		last = done
		calls++
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if last != cfg.Ops {
		t.Errorf("final progress = %d, want %d", last, cfg.Ops)
	}
	if calls < 2 {
		t.Errorf("progress called %d times, want periodic calls", calls)
	}
}
