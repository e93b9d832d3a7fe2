package main

import (
	"encoding/json"
	"fmt"
)

// The metric tables below are the single definition of what the benchmark
// reports; BENCHMARK.json is their rendering (-print-benchmark-json, pinned
// by test) and README.md is their glossary.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload. Bounds are the share of the parent's median a metric may worsen
// by; README.md records the spreads they were set against.
var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"iter_p50_s", "s", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"sim_mops_per_s", "Mops/s", "higher", 0.25},
}

// tracedPolicies are the policies of the workloads' lists, each with its
// own busy-time metric.
var tracedPolicies = []policyName{
	"HybridTier", "HybridTier-onlyFreq", "HybridTier-CBF", "Memtis", "ARC", "TwoQ", "FirstTouch",
	"TPP", "AutoNUMA", "LRU", "LRU@idlepage", "Heat-Idle", "Heat-Dirty", "Age-Idle",
}

// perLayer lists the traced run's metrics, grouped by layer (the prefix is
// the module name).
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	lower := func(unit string, names ...string) []layerDef {
		out := make([]layerDef, len(names))
		for i, n := range names {
			out[i] = layerDef{n, unit, "lower"}
		}
		return out
	}
	var defs []layerDef
	add := func(ds ...layerDef) { defs = append(defs, ds...) }

	add(layerDef{"gen.accesses", "count", "lower"})
	add(lower("s", "gen.busy_s")...)
	add(lower("ns", "gen.ns_per_access")...)
	add(lower("s", "trace.pack_s")...)
	add(lower("MB", "trace.packed_mb")...)
	add(layerDef{"trace.cells_per_stream", "count", "higher"})
	add(lower("s", "tracefile.record_s")...)
	add(lower("MB", "tracefile.file_mb")...)
	add(lower("ns", "tracefile.v2_decode_ns_per_access")...)
	add(layerDef{"sim.cells", "count", "higher"}, layerDef{"sim.ops", "count", "higher"}, layerDef{"sim.accesses", "count", "higher"})
	add(lower("s", "sim.run_s", "sim.self_s")...)
	add(lower("ns", "sim.self_ns_per_access")...)
	add(lower("ms", "sim.cell_p50_ms", "sim.cell_max_ms")...)
	add(lower("s", "policy.on_samples_s", "policy.tick_s", "policy.on_fault_s")...)
	add(lower("count", "policy.calls")...)
	add(lower("ns", "policy.ns_per_sample")...)
	for _, p := range tracedPolicies {
		add(lower("s", policyMetric(p))...)
	}
	add(lower("count", "policy.promotions", "policy.demotions", "policy.faults")...)
	add(lower("ns", "tracker.pebs_ns_per_access", "tracker.idlepage_ns_per_access", "tracker.softdirty_ns_per_access")...)
	add(lower("s", "tracker.sync_s")...)
	add(lower("count", "tracker.samples", "tracker.dropped")...)
	add(layerDef{"tracker.taken_ratio", "ratio", "higher"})
	add(lower("ns", "mem.ns_per_touch")...)
	add(layerDef{"mem.fast_hit_ratio", "ratio", "higher"})
	add(lower("ns", "cachesim.ns_per_access")...)
	add(lower("ratio", "cachesim.llc_miss_ratio")...)
	add(lower("ns", "stats.ns_per_observe", "cbf.ns_per_update")...)
	add(lower("us", "facade.canonical_hash_us", "facade.cellplans_us")...)
	add(lower("ms", "facade.marshal_ms")...)
	add(lower("us", "facade.merge_us")...)
	add(lower("s", "facade.sched_idle_s")...)
	add(lower("ms", "jobs.queue_wait_ms", "jobs.run_ms", "jobs.cache_put_ms")...)
	add(lower("us", "jobs.cache_get_mem_us", "jobs.cache_get_disk_us")...)
	add(lower("ms", "jobs.journal_append_ms")...)
	add(lower("us", "jobs.submit_hit_us")...)
	add(lower("us", "service.handler_fetch_us", "service.handler_304_us", "service.handler_submit_us")...)
	add(lower("count", "service.result_bytes")...)
	add(layerDef{"fabric.cells_dispatched", "count", "higher"})
	add(lower("count", "fabric.cells_local")...)
	add(lower("ratio", "fabric.worker_share_max")...)
	add(lower("s", "fabric.worker_cpu_s", "fabric.coord_cpu_s")...)
	add(lower("ms", "daemon.start_ms", "daemon.restart_ms")...)
	add(lower("s", "daemon.cpu_s")...)
	add(lower("MB", "daemon.store_mb", "daemon.peak_rss_mb")...)
	add(lower("ms", "client.submit_ms", "client.stream_lag_ms", "client.fetch_ms")...)
	add(layerDef{"client.warm_rps", "1/s", "higher"})
	add(lower("us",
		"client.submit_hit_p50_us", "client.fetch_hit_p50_us", "client.fetch_304_p50_us", "client.fetch_disk_p50_us",
		"client.submit_hit_p99_us", "client.fetch_hit_p99_us", "client.fetch_304_p99_us", "client.fetch_hit_p999_us")...)
	add(lower("count", "client.http_errors")...)
	add(lower("ratio", "bench.trace_overhead_ratio")...)
	add(lower("count", "bench.spans")...)
	add(lower("MB", "bench.peak_rss_mb")...)
	return defs
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEndReport renders an untraced run.
func endToEndReport(m *measured) report {
	// The rates are the work of one iteration over the median iteration, not
	// a whole-phase mean: one stalled fsync moves a mean (daemon_warm spread
	// 27% that way against 20%), and the run must resolve.
	iter := median(seconds(m.iters))
	vals := map[string]float64{"setup_s": median(seconds(m.setup)), "iter_p50_s": iter}
	if iter > 0 {
		vals["cells_per_s"] = float64(m.cells) / iter
		vals["sim_mops_per_s"] = float64(m.ops) / 1e6 / iter
	}
	r := newReport(m)
	for _, d := range endToEnd {
		r.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return r
}

// perLayerReport renders a traced run: every per-layer metric, zero where
// the workload does not exercise the layer.
func perLayerReport(m *measured, ly layers) (report, error) {
	r := newReport(m)
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
		r.Metrics[d.Name] = value{ly[d.Name], d.Unit}
	}
	for name := range ly {
		if !known[name] {
			return r, fmt.Errorf("traced run produced %q, which metrics.go does not define", name)
		}
	}
	return r, nil
}

func newReport(m *measured) report {
	return report{
		Correct: m.failed == 0, Attempted: max(m.attempted, 1), Failed: m.failed,
		Metrics: map[string]value{},
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables.
func benchmarkJSON() ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"},
		RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDef{w.name, w.why})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
