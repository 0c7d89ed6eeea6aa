package store

import "repro/internal/obs"

// Metric handles for the store layer, resolved once at package init.
//
// store.probes mirrors the pre-existing QueryCount (every lineage-facing SQL
// query), counted through countQuery below so both move together.
// probe_batches counts batched multi-run probes (InputBindingsBatch calls
// for at least one run); since every batch issues at least one query,
// probes >= probe_batches always holds — an invariant the differential
// tests assert.
var (
	obsProbes       = obs.C("store.probes")
	obsProbeBatches = obs.C("store.probe_batches")
	obsBatchRuns    = obs.H("store.probe_batch_runs")
	obsValueHits    = obs.C("store.value_cache_hits")
	obsValueMisses  = obs.C("store.value_cache_misses")

	obsIngestRuns    = obs.C("store.ingest.runs")
	obsIngestBatches = obs.C("store.ingest.batches")
	obsIngestRows    = obs.C("store.ingest.rows")
	obsFlushNs       = obs.H("store.ingest.flush_ns")
)

// countQuery records n lineage-facing SQL queries into both the legacy
// QueryCount (always on: the benchmark harness resets and reads it around
// measurements) and the obs registry (gated).
func countQuery(n int64) {
	queryCount.Add(n)
	obsProbes.Add(n)
}
