package service

import (
	"repro/internal/fabric"
	"repro/internal/jobs"
)

// CellRunner is a single daemon's crash-safe sweep runner: the cell
// engine (fabric.Coordinator) with no fleet, executing every sweep on
// fabric.LocalCells(sweepWorkers) and writing each cell through to cache
// as it completes, so a daemon killed mid-sweep re-runs only the cells
// that never landed. Its output is byte-identical to Runner's whichever
// cells were cached. cmd/htiersimd builds the engine itself; this
// constructor is what bench/'s in-process launcher and the tests call.
func CellRunner(sweepWorkers int, cache *jobs.Cache) jobs.Runner {
	return fabric.NewCoordinator(fabric.Config{
		Cache: cache,
		Cells: fabric.LocalCells(sweepWorkers),
	}).Runner()
}
