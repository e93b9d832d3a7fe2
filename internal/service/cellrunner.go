package service

import (
	"context"
	"fmt"

	hybridtier "repro"
	"repro/internal/jobs"
)

// CellGroupRunner returns the engine that executes chosen cells of a
// canonical sweep spec as one group (Sweep.RunCells): one worker pool of
// sweepWorkers cells, one shared op stream where the sweep has one, and
// onCell called once per completed cell — serialized, in completion order
// — with the cell (its index in the whole sweep inside) and its canonical
// singleton result bytes. It stores nothing: whoever holds the cache
// writes cells through from onCell, once. A cell that failed carries its
// error in cr.Err and in the bytes; the returned error is non-nil only
// for configuration errors and cancellation, as with Sweep.Run.
func CellGroupRunner(sweepWorkers int) func(ctx context.Context, canonical []byte, cells []int, onCell func(cr hybridtier.CellResult, single []byte)) error {
	return func(ctx context.Context, canonical []byte, cells []int, onCell func(hybridtier.CellResult, []byte)) error {
		sw, err := sweepOf(canonical, sweepWorkers)
		if err != nil {
			return err
		}
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

// CellRunner is Runner made crash-safe: it executes a canonical sweep
// spec as content-addressed cells against the result cache, so a daemon
// killed mid-sweep re-runs only the cells that never landed. One path:
// probe the cache for every cell, run the missing ones as one group —
// each written through as it completes, which is what turns a later crash
// into a partial-hit resume — and merge cached and fresh cells. A cold
// sweep misses everywhere and runs whole; a restarted-after-the-last-cell
// one hits everywhere and runs nothing.
//
// The output is byte-identical to Runner's whichever cells were cached:
// ReindexCellJSON/MergeCellJSON reassemble singleton bytes exactly as
// json.Marshal renders the whole-sweep slice — the identity the fabric's
// tests pin and the crash-restart e2e test re-proves.
//
// With a nil cache, and for a one-cell sweep, it is Runner: a single
// cell's content address is the sweep's own, under which the job manager
// stores the result anyway. Cells that end in an error (cancellation
// included) are never written through, so resume re-runs them rather than
// caching a half-truth.
func CellRunner(sweepWorkers int, cache *jobs.Cache) jobs.Runner {
	plain := Runner(sweepWorkers)
	group := CellGroupRunner(sweepWorkers)
	return func(ctx context.Context, spec []byte, progress func(done, total int)) ([]byte, error) {
		_, plans, err := hybridtier.CellPlans(spec)
		if cache == nil || err != nil || len(plans) < 2 {
			return plain(ctx, spec, progress)
		}
		// Probe the local tiers only: N remote probes per sweep would
		// turn one submit into a probe storm, and crash resume only needs
		// what THIS daemon's disk already holds.
		singles := make([][]byte, len(plans))
		var missing []int
		for i, p := range plans {
			if data, ok := cache.GetLocal(p.Hash); ok {
				singles[i] = data
			} else {
				missing = append(missing, i)
			}
		}
		done := len(plans) - len(missing)
		if progress != nil && done > 0 {
			progress(done, len(plans)) // surface the cached head start immediately
		}
		if len(missing) > 0 {
			err := group(ctx, spec, missing, func(cr hybridtier.CellResult, single []byte) {
				singles[cr.Index] = single
				if cr.Err == "" {
					// Put failures degrade durability (the next crash re-runs
					// this cell), never the running sweep.
					_ = cache.Put(plans[cr.Index].Hash, single, plans[cr.Index].Spec)
				}
				if done++; progress != nil {
					progress(done, len(plans))
				}
			})
			if err != nil {
				return nil, err
			}
		}
		elements := make([][]byte, len(plans))
		for i, p := range plans {
			if elements[i], err = hybridtier.ReindexCellJSON(singles[i], p.Cell.Index); err != nil {
				return nil, fmt.Errorf("service: cell %d of sweep: %w", i, err)
			}
		}
		return hybridtier.MergeCellJSON(elements), nil
	}
}
