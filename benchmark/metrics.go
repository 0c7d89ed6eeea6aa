package main

import "encoding/json"

// MetricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists what a user of the system sees, per workload. Failed,
// refused and wrong-answer operations are reported beside them as
// failed/attempted (fail_ratio), which has no relative bound: any failure
// fails the run.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.10},
	{"query_p90_us", "us", "lower", 0.20},
	{"queries_per_s", "1/s", "higher", 0.15},
	{"allocs_per_query", "count", "lower", 0.06},
	{"bytes_per_query", "B", "lower", 0.06},
	{"heap_after_setup_mb", "MiB", "lower", 0.05},
	{"ingest_rows_per_s", "rows/s", "higher", 0.25},
	{"disk_bytes_per_row", "B", "lower", 0.02},
}

func lower(name, unit string) MetricDef  { return MetricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) MetricDef { return MetricDef{Name: name, Unit: unit, Better: "higher"} }

// PerLayer lists the outside-in layer metrics of the traced run, grouped by
// module. A workload that does not exercise a layer reports 0 for it.
var PerLayer = []MetricDef{
	// server
	lower("server.handle_us", "us"),
	lower("server.self_us", "us"),
	lower("server.transport_us", "us"),
	lower("server.queue_wait_us_p99", "us"),
	higher("server.admitted", "count"),
	lower("server.rejected", "count"),
	lower("server.errors", "count"),
	lower("server.allocs_per_request", "count"),
	// queryfmt
	lower("queryfmt.parse_us", "us"),
	lower("queryfmt.render_us", "us"),
	lower("queryfmt.render_bytes_per_query", "B"),
	// core
	lower("core.query_us", "us"),
	lower("core.self_us", "us"),
	// lineage
	lower("lineage.plan_hit_us", "us"),
	lower("lineage.plan_miss_us", "us"),
	higher("lineage.plancache.hit_ratio", "ratio"),
	lower("lineage.plancache.evictions", "count"),
	lower("lineage.execute_us", "us"),
	lower("lineage.self_us", "us"),
	lower("lineage.merge_us", "us"),
	lower("lineage.probes_per_query", "count"),
	lower("lineage.bindings_per_query", "count"),
	lower("lineage.multirun.tasks_per_query", "count"),
	higher("lineage.multirun.colscan_chunks_per_query", "count"),
	lower("lineage.ni.nodes_per_query", "count"),
	lower("lineage.allocs_per_query", "count"),
	lower("lineage.indexproj.focused_p50_us", "us"),
	lower("lineage.indexproj.unfocused_p50_us", "us"),
	lower("lineage.ni.p50_us", "us"),
	lower("lineage.multirun.colscan_p50_us", "us"),
	lower("lineage.multirun.rows_p50_us", "us"),
	// store, read side
	lower("store.probe_us", "us"),
	lower("store.probe_batch_us", "us"),
	lower("store.values_batch_us", "us"),
	lower("store.colscan_us", "us"),
	lower("store.trace_read_us", "us"),
	lower("store.view_open_us", "us"),
	lower("store.view_probe_us", "us"),
	lower("store.self_us", "us"),
	lower("store.probes_per_query", "count"),
	lower("store.probe_batches_per_query", "count"),
	higher("store.value_cache_hit_ratio", "ratio"),
	lower("store.rows_per_binding", "ratio"),
	lower("store.allocs_per_probe", "count"),
	// store, write side
	lower("store.ingest.flush_ms_p50", "ms"),
	lower("store.ingest.batches", "count"),
	lower("store.colseg_build_ms", "ms"),
	higher("store.tail.applied_events", "count"),
	lower("store.tail.dead_lettered", "count"),
	lower("store.tail.feeder_late_ms_p99", "ms"),
	// colstore
	lower("colstore.scan_us", "us"),
	lower("colstore.rows_examined_per_match", "ratio"),
	lower("colstore.build_us_per_row", "us"),
	lower("colstore.bytes_per_row", "B"),
	lower("colscan.segments_scanned_per_query", "count"),
	higher("colscan.zonemap_prunes_per_query", "count"),
	lower("colscan.fallbacks_per_query", "count"),
	// sqlike
	lower("sqlike.query_us", "us"),
	lower("sqlike.prepare_us", "us"),
	lower("sqlike.self_us", "us"),
	lower("sqlike.allocs_per_query", "count"),
	// reldb, read side
	lower("reldb.select_us", "us"),
	lower("reldb.snapshot_us", "us"),
	lower("reldb.snapshot_select_us", "us"),
	lower("reldb.rows_read_per_query", "count"),
	lower("reldb.index_scans_per_query", "count"),
	lower("reldb.full_scans", "count"),
	lower("reldb.allocs_per_select", "count"),
	// reldb, write side
	lower("reldb.wal.bytes_per_row", "B"),
	lower("reldb.wal.appends", "count"),
	lower("reldb.wal.fsync_ms_p99", "ms"),
	lower("reldb.checkpoint_ms", "ms"),
	lower("reldb.recover_ms", "ms"),
	// set-up split
	lower("gen.trace_build_s", "s"),
	lower("store.ingest_s", "s"),
	lower("store.checkpoint_s", "s"),
	// the benchmark's own tracing
	lower("trace.first_touch_us", "us"),
	lower("trace.query_us", "us"),
	higher("trace.overhead_ratio", "ratio"),
	higher("trace.coverage_ratio", "ratio"),
}

// RunSeconds is the measured window the driver asks for.
const RunSeconds = 10

// benchmarkJSON renders the contract file BENCHMARK.json from the tables
// above, so the file and the program cannot drift (bench_test.go compares
// them).
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []MetricDef `json:"end_to_end"`
		PerLayer   []MetricDef `json:"per_layer"` // Bound 0 is omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: RunSeconds,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
	for _, w := range Workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables: cannot fail
	}
	return append(out, '\n')
}
