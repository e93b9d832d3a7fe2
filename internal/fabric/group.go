package fabric

import (
	"context"
	"encoding/json"
	"fmt"

	hybridtier "repro"
	"repro/internal/jobs"
)

// GroupRunner executes the cells at the given indices of a canonical
// sweep spec as one group, calling onCell — serialized — once per
// completed cell with the cell (its index in the whole sweep inside) and
// its canonical singleton result bytes. It stores nothing: the engine
// commits cells from onCell. A failed cell is data: it carries its error
// in cr.Err and in the bytes. The returned error means the group could
// not run (a bad spec, cancellation).
type GroupRunner func(ctx context.Context, canonical []byte, cells []int, onCell func(cr hybridtier.CellResult, single []byte)) error

// LocalCells returns the in-process executor every daemon gives its
// engine: the chosen cells run through Sweep.RunCells — one worker pool of
// sweepWorkers cells (0 = all cores), one shared op stream where the sweep
// has one — and reach onCell in completion order.
func LocalCells(sweepWorkers int) GroupRunner {
	return func(ctx context.Context, canonical []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		var spec hybridtier.SweepSpec
		if err := json.Unmarshal(canonical, &spec); err != nil {
			return fmt.Errorf("fabric: corrupt canonical spec: %w", err)
		}
		sw, err := spec.Sweep()
		if err != nil {
			return err
		}
		sw.Workers = sweepWorkers
		var marshalErr error
		sw.OnCell = func(cr hybridtier.CellResult) {
			single, err := hybridtier.MarshalSingletonCell(cr)
			if err != nil {
				marshalErr = err
				return
			}
			onCell(cr, single)
		}
		if _, err := sw.RunCells(ctx, cells); err != nil {
			return err
		}
		return marshalErr
	}
}

// singletons adapts a whole-spec runner to GroupRunner: each cell runs as
// its own singleton sweep, so nothing is shared between them. It exists
// for Config.Local and WorkerConfig.Run, which bench/'s in-process
// launcher still assembles daemons with; all three go at the benchmark
// refresh.
func singletons(run jobs.Runner) GroupRunner {
	return func(ctx context.Context, canonical []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		_, plans, err := hybridtier.CellPlans(canonical)
		if err != nil {
			return err
		}
		for _, i := range cells {
			single, err := run(ctx, plans[i].Spec, nil)
			if err != nil {
				return err
			}
			onCell(hybridtier.CellResult{Cell: plans[i].Cell}, single)
		}
		return nil
	}
}
