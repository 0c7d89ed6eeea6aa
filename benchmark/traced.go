package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// keptQueries is how many traced queries have their spans written out; the
// per-layer numbers use every traced query.
const keptQueries = 32

// RunTraced produces the per-layer metrics of one workload: one set-up, a
// fixed-count warm-up, Scale.CountedLadders ladders whose counter deltas are
// the count metrics, then ladders until the window ends for the timing
// medians, and last a short untraced loop for the tracing overhead. It is
// single-threaded: one ladder at a time, executor parallelism as users get
// it on the plain rungs and 1 on the decorated one.
func RunTraced(ctx context.Context, w Workload, cfg Config) (*Result, error) {
	cfg.Scale.SetupRepeats = 1
	streams, hash := Streams(w, cfg.Seed, cfg.Scale, 1)
	e, setups, err := setUp(ctx, w, cfg, streams[0][0])
	if err != nil {
		return nil, err
	}
	defer e.close()
	setup := setups[0]
	refs, err := e.references(streams)
	if err != nil {
		return nil, err
	}
	stream := e.prepareStreams(streams, refs)[0]
	if e.ts != nil {
		// The rungs below the handler need the tenant's data in process: a
		// second handle on the same DSN shares the server's engine.
		if err := e.openSystem("file:" + filepath.Join(e.dir, servedTenant+".db")); err != nil {
			return nil, err
		}
	}

	c := &client{stream: stream}
	// Counts repeat exactly across runs of one seed only if the caches are
	// in the same state when counting starts, so this warm-up is a number of
	// queries, not a time.
	if w.WarmAll {
		warmUp(ctx, e, []*client{c}, 0)
	}
	for i := 0; i < cfg.Scale.TracedWarm; i++ {
		c.one(ctx, e)
	}

	t, err := newTracer(e, keptQueries)
	if err != nil {
		return nil, err
	}
	defer t.close()
	s0 := obs.Default.Snapshot()
	start := time.Now()
	pos := c.pos
	next := func() *prepared { p := stream[pos%len(stream)]; pos++; return p }
	for i := 0; i < cfg.Scale.CountedLadders; i++ {
		if err := t.ladder(ctx, next(), true); err != nil {
			return nil, err
		}
	}
	var feed *feeder
	if w.TailFeed {
		if feed, err = startFeeder(e, cfg.Seconds); err != nil {
			return nil, err
		}
	}
	for deadline := start.Add(dur(cfg.Seconds)); time.Now().Before(deadline) && ctx.Err() == nil; {
		if err := t.ladder(ctx, next(), false); err != nil {
			return nil, err
		}
	}
	tracedWall := time.Since(start)
	window := obs.Default.Snapshot().Sub(s0)
	feedFailed := int64(0)
	if feed != nil {
		if err := feed.stop(); err != nil {
			fmt.Printf("# ingest_tail feeder: %v\n", err)
			feedFailed = 1
		}
	}

	// Tracing overhead: the same stream, untraced, right after.
	plain := &client{stream: stream, pos: pos}
	plainWall := runClients(ctx, e, []*client{plain}, dur(cfg.Seconds/5), false)

	if err := t.rec.write(cfg.OutDir, w.Name, cfg.Seed); err != nil {
		return nil, err
	}

	m := make(map[string]float64)
	for name, xs := range t.series {
		m[name] = median(xs)
	}
	per := func(counter string) float64 { return float64(t.counted[counter]) / float64(t.nCounted) }
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	m["lineage.plancache.hit_ratio"] = ratio(t.counted["lineage.indexproj.plan_cache_hits"], t.counted["lineage.indexproj.plan_cache_misses"])
	m["lineage.plancache.evictions"] = float64(t.counted["lineage.plancache.evictions"])
	m["lineage.probes_per_query"] = per("lineage.indexproj.probes")
	m["lineage.bindings_per_query"] = per("lineage.indexproj.bindings")
	m["lineage.multirun.tasks_per_query"] = per("lineage.multirun.tasks")
	m["lineage.multirun.colscan_chunks_per_query"] = per("lineage.multirun.colscan_chunks")
	m["lineage.ni.nodes_per_query"] = per("lineage.ni.nodes")
	m["store.probes_per_query"] = per("store.probes")
	m["store.probe_batches_per_query"] = per("store.probe_batches")
	m["store.value_cache_hit_ratio"] = ratio(t.counted["store.value_cache_hits"], t.counted["store.value_cache_misses"])
	if t.answers > 0 {
		m["store.rows_per_binding"] = float64(t.counted["reldb.rows_read"]) / float64(t.answers)
	}
	m["colscan.segments_scanned_per_query"] = per("colscan.segments_scanned")
	m["colscan.zonemap_prunes_per_query"] = per("colscan.zonemap_prunes")
	m["colscan.fallbacks_per_query"] = per("colscan.fallbacks")
	m["reldb.rows_read_per_query"] = per("reldb.rows_read")
	m["reldb.index_scans_per_query"] = per("reldb.index_scans")
	m["reldb.full_scans"] = float64(t.counted["reldb.full_scans"])
	m["server.admitted"] = float64(t.counted["server.admitted"])
	m["server.rejected"] = float64(t.counted["server.rejected"])
	m["server.errors"] = float64(t.counted["server.errors"])
	m["server.queue_wait_us_p99"] = float64(window.Hist("server.queue_wait_ns").Quantile(0.99)) / 1e3

	if t.match > 0 {
		m["colstore.rows_examined_per_match"] = float64(t.examined) / float64(t.match)
	}
	if t.segs.builtRows > 0 {
		m["colstore.build_us_per_row"] = float64(t.segs.buildNs) / 1e3 / float64(t.segs.builtRows)
		m["colstore.bytes_per_row"] = float64(t.segs.encodedBytes) / float64(t.segs.builtRows)
	}

	// Write side: what the set-up cost each layer, from the counters and
	// histograms the layers already keep.
	ws := setup.write
	m["gen.trace_build_s"] = setup.genS
	m["store.ingest_s"] = setup.ingestS
	m["store.checkpoint_s"] = setup.ckptS
	m["store.ingest.flush_ms_p50"] = float64(ws.Hist("store.ingest.flush_ns").Quantile(0.5)) / 1e6
	m["store.ingest.batches"] = float64(ws.Counter("store.ingest.batches"))
	m["store.colseg_build_ms"] = float64(ws.HistSum("colscan.build_ns")) / 1e6
	m["reldb.wal.bytes_per_row"] = float64(ws.Counter("reldb.wal.bytes")) / float64(setup.rows)
	m["reldb.wal.appends"] = float64(ws.Counter("reldb.wal.appends"))
	m["reldb.wal.fsync_ms_p99"] = float64(ws.Hist("reldb.wal.fsync_ns").Quantile(0.99)) / 1e6
	m["reldb.checkpoint_ms"] = float64(ws.HistSum("reldb.checkpoint_ns")) / 1e6
	m["reldb.recover_ms"] = setup.recoverS * 1e3
	if feed != nil {
		m["store.tail.applied_events"] = float64(window.Counter("tail.events_applied"))
		m["store.tail.dead_lettered"] = float64(window.Counter("tail.events_dead_lettered"))
		m["store.tail.feeder_late_ms_p99"] = feed.lateP99Ms()
	}
	if plain.attempted > 0 {
		m["trace.overhead_ratio"] = (float64(t.ladders) / tracedWall.Seconds()) / (float64(plain.attempted) / plainWall.Seconds())
	}

	res := &Result{
		Workload: w.Name, Seed: cfg.Seed, StreamHash: hash, Traced: true,
		Attempted: c.attempted + t.ladders + plain.attempted,
		Failed:    c.failed + t.failed + plain.failed,
		Samples:   len(t.series["trace.query_us"]), Metrics: make(map[string]Value),
	}
	if feed != nil {
		res.Attempted++
		res.Failed += feedFailed
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	for _, def := range PerLayer {
		res.Metrics[def.Name] = Value{m[def.Name], def.Unit} // 0 where the workload does not reach the layer
	}
	return res, nil
}
