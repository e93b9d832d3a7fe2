// Package fabric turns a fleet of experiment daemons into one sweep
// engine. A coordinator daemon shards a canonical SweepSpec into cell
// ranges, dispatches them over HTTP to registered worker daemons
// (htiersimd -worker -join <coordinator>), and merges the per-cell
// results back into the exact bytes a single-process Sweep.Run marshals —
// the per-cell determinism contract established by the facade is what
// makes shards mergeable byte-identically, and re-execution safe.
//
// The moving parts:
//
//   - Transport (transport.go) is the RPC seam every coordinator↔worker
//     message crosses. Production uses plain HTTP; tests inject Chaos
//     (chaos.go), a deterministic seeded fault schedule that drops,
//     delays, and duplicates messages so failure handling is provable,
//     not flaky.
//   - Coordinator (coordinator.go) owns the fleet: registration acts as
//     heartbeat, live workers pull shards, idle workers steal in-flight
//     cells from stragglers, a worker loss requeues its cells, and a
//     commit table applies each cell's result at most once — sound
//     because cells are idempotent by determinism, so speculative and
//     duplicated executions can only ever produce the same bytes.
//   - Worker (worker.go) executes a shard as one cell group of the
//     shard's sweep, not singleton by singleton: cached cells resolve
//     first, the rest run through Sweep.RunCells under the daemon's
//     -sweep-workers and replay the op stream their sweep shares — which
//     the facade's keyed stream cache holds across shards and sweeps, so
//     a worker generates it once. Each executed cell is cached once under
//     its cell-level content address (SweepSpec.CellSpec(c).Hash()) so
//     any daemon in the federation can serve it later.
//
// Cache hits route fleet-wide through the remote read-through tier of
// jobs.Cache: workers probe the coordinator, the coordinator probes its
// workers, and every probe is answered from local tiers only (GetLocal),
// which is what keeps mutual probing from recursing. In-flight dedupe is
// federation-aware at two grains: whole sweeps dedupe by spec hash in
// jobs.Manager as before, and overlapping cells of concurrent sweeps
// dedupe by cell hash in the coordinator's claim table, so one execution
// feeds every waiting sweep. docs/FABRIC.md walks through the topology,
// the failure model, and the at-most-once-commit argument.
package fabric

import (
	"encoding/json"
	"fmt"

	hybridtier "repro"
)

// shardRequest is the body of POST /fabric/run: the full canonical sweep
// spec plus the indices (into the spec's deterministic cell enumeration)
// this worker should execute.
type shardRequest struct {
	Spec  json.RawMessage `json:"spec"`
	Cells []int           `json:"cells"`
}

// shardCell is one executed cell of a shard response. Body is the
// canonical singleton result: the JSON array a one-cell Sweep.Run of
// CellSpec(c) marshals (so index 0 inside; the coordinator reindexes at
// commit). Exactly one of Body and Err is set — Err carries a
// deterministic runner failure, which the coordinator verifies locally
// before failing the sweep.
type shardCell struct {
	Index int             `json:"index"`
	Hash  string          `json:"hash"`
	Body  json.RawMessage `json:"body,omitempty"`
	Err   string          `json:"error,omitempty"`
}

// shardResponse is the body of a successful POST /fabric/run reply.
type shardResponse struct {
	Cells []shardCell `json:"cells"`
}

// registerRequest is the body of POST /fabric/register. Registration is
// also the heartbeat: workers re-post it every interval, and a worker
// whose last registration is older than the coordinator's TTL is
// considered lost.
type registerRequest struct {
	URL string `json:"url"`
}

// cellPlan is the coordinator's precomputed view of one cell: its
// coordinates, its singleton canonical spec, the cell-level content
// address derived from it, and the coordinator's commit bit. The planning
// itself lives in the facade (hybridtier.CellPlans), shared with the
// service's crash-safe cell runner so both shard the same addresses.
type cellPlan struct {
	cell      hybridtier.Cell
	spec      []byte // canonical JSON of CellSpec(cell)
	hash      string
	committed bool
}

// planCells derives every cell's singleton spec and hash via the facade,
// in the policy-major Cells order the merged result array must have.
func planCells(canonical []byte) (hybridtier.SweepSpec, []cellPlan, error) {
	spec, facadePlans, err := hybridtier.CellPlans(canonical)
	if err != nil {
		return spec, nil, fmt.Errorf("fabric: %w", err)
	}
	plans := make([]cellPlan, len(facadePlans))
	for i, p := range facadePlans {
		plans[i] = cellPlan{cell: p.Cell, spec: p.Spec, hash: p.Hash}
	}
	return spec, plans, nil
}

// reindexCell and mergeCells are the facade's byte-stable singleton
// rewrite and merge (hybridtier.ReindexCellJSON / MergeCellJSON); see
// their doc comments for the encoding contract the fabric leans on.
func reindexCell(singleton []byte, idx int) ([]byte, error) {
	return hybridtier.ReindexCellJSON(singleton, idx)
}

func mergeCells(elements [][]byte) []byte {
	return hybridtier.MergeCellJSON(elements)
}
