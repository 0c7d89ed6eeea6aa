package lineage

import "repro/internal/obs"

// Metric handles for the lineage executors, resolved once at package init.
// The stage decomposition mirrors the paper's cost model (§4, Fig. 4):
// plan_ns is t1 (the specification-graph traversal), probe_ns is t2 (the
// store probes); NI has no plan phase, so its split is traverse vs value
// materialization. On sequential paths plan+probe <= query and
// traverse+probe <= query hold exactly; the parallel executor's probe spans
// overlap, so only their sum-of-stages is meaningful there.
var (
	ipQueries   = obs.C("lineage.indexproj.queries")
	ipPlanNs    = obs.H("lineage.indexproj.plan_ns")
	ipProbeNs   = obs.H("lineage.indexproj.probe_ns")
	ipQueryNs   = obs.H("lineage.indexproj.query_ns")
	ipProbes    = obs.C("lineage.indexproj.probes")
	ipBindings  = obs.C("lineage.indexproj.bindings")
	ipCacheHits = obs.C("lineage.indexproj.plan_cache_hits")
	ipCacheMiss = obs.C("lineage.indexproj.plan_cache_misses")

	niQueries    = obs.C("lineage.ni.queries")
	niQueryNs    = obs.H("lineage.ni.query_ns")
	niTraverseNs = obs.H("lineage.ni.traverse_ns")
	niProbeNs    = obs.H("lineage.ni.probe_ns")
	niNodes      = obs.C("lineage.ni.nodes")

	mrQueryNs = obs.H("lineage.multirun.query_ns")
	mrMergeNs = obs.H("lineage.multirun.merge_ns")
	mrTasks   = obs.C("lineage.multirun.tasks")
	// mrDegraded counts runs answered in degraded mode: a partial-mode
	// multi-run query proceeded although every replica of the runs' shard was
	// unavailable. Named in the shard.* family next to failover/hedge/
	// breaker_open — one dashboard row tells the whole failover story — even
	// though the executor is what detects the condition.
	mrDegraded = obs.C("shard.degraded")
)
