// Package fabric is the cell engine every experiment daemon runs, and the
// protocol that lets a fleet of daemons share it. A canonical SweepSpec is
// resolved cell by cell — probe the result cache, claim the misses, run
// them, commit — and merged back into the exact bytes a single-process
// Sweep.Run marshals: the per-cell determinism contract established by the
// facade is what makes cells computed anywhere mergeable byte-identically,
// and re-execution safe.
//
// The moving parts:
//
//   - Coordinator (coordinator.go) is the engine. Its one loop (cellRun)
//     serves a daemon's sweeps and a worker's shards alike; a commit table
//     applies each cell's result at most once, writes computed bytes
//     through to the cache once, and never writes back what came out of it.
//     Two kinds of executor drain the loop's queue. Live workers
//     (htiersimd -worker -join <coordinator>) pull shards over HTTP:
//     registration acts as heartbeat, idle workers steal in-flight cells
//     from stragglers, a lost worker's cells requeue. The in-process
//     GroupRunner (group.go: LocalCells, over Sweep.RunCells) takes
//     everything queued as one cell group whenever no live worker may — so
//     a daemon without a fleet, a one-cell or corpus: sweep and a fleet
//     that died mid-sweep are the same code, chosen from worker liveness,
//     not from a flag — and verifies cells a worker reported as failed.
//   - Worker (worker.go) joins a coordinator and answers its shards from an
//     engine of its own that never has workers: cached cells resolve first,
//     the rest run as one group under the daemon's -sweep-workers and
//     replay the op stream their sweep shares — which the facade's keyed
//     stream cache holds across shards and sweeps, so a worker generates it
//     once. Each executed cell is cached once under its cell-level content
//     address (SweepSpec.CellSpec(c).Hash()) so any daemon in the
//     federation can serve it later.
//   - Every message crosses one http.RoundTripper (transport.go).
//     Production uses plain HTTP; tests inject Chaos (chaos.go), a
//     deterministic seeded fault schedule that drops, delays, and
//     duplicates messages so failure handling is provable, not flaky.
//
// Cache hits route fleet-wide through the remote read-through tier of
// jobs.Cache: workers probe the coordinator, the coordinator probes its
// workers, and every probe is answered from local tiers only (GetLocal),
// which is what keeps mutual probing from recursing. In-flight dedupe works
// at two grains: whole sweeps dedupe by spec hash in jobs.Manager, and
// overlapping cells of concurrent sweeps dedupe by cell hash in the
// engine's claim table — on a lone daemon as in a fleet — so one execution
// feeds every waiting sweep. docs/FABRIC.md walks through the topology,
// the failure model, and the at-most-once-commit argument.
package fabric

import "encoding/json"

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
