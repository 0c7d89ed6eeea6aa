package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/obs"
	"repro/internal/queryfmt"
	"repro/internal/reldb"
	"repro/internal/sqlike"
)

// This file is the traced run. Each traced query is walked down the stack
// from outside — a "ladder" of calls, each one layer lower than the last:
//
//	query            the user's call: HTTP round trip, or core call + render
//	server.handle    Handler().ServeHTTP on a recorder        (served_mix)
//	queryfmt.parse / core.query / queryfmt.render
//	lineage.plan / lineage.execute
//	store.*          the executor's store calls, through a timing decorator
//	sqlike.query     the store call's SQL, prepared on store.DB()
//	reldb.select     the SQL's select, on the engine handle
//	colstore.scan    a colscan call, on segments built from outside
//
// A layer's self time is its span minus its children's spans. The rungs are
// separate executions of the same query, back to back, so every cache is in
// the same state for each.

// noPlanCache never keeps a plan: an evaluator routed through it compiles on
// every call, which is how the plan-miss cost (t1) is timed on any query.
type noPlanCache struct{}

func (noPlanCache) Get(string) (*lineage.CompiledPlan, bool)                    { return nil, false }
func (noPlanCache) Add(_ string, p *lineage.CompiledPlan) *lineage.CompiledPlan { return p }

// counterNames are the obs counters read around each traced query's root
// call; their deltas over a fixed number of queries are the count metrics.
var counterNames = []string{
	"lineage.indexproj.plan_cache_hits", "lineage.indexproj.plan_cache_misses", "lineage.plancache.evictions",
	"lineage.indexproj.probes", "lineage.indexproj.bindings", "lineage.multirun.tasks",
	"lineage.multirun.colscan_chunks", "lineage.ni.nodes",
	"store.probes", "store.probe_batches", "store.value_cache_hits", "store.value_cache_misses",
	"colscan.segments_scanned", "colscan.zonemap_prunes", "colscan.fallbacks",
	"reldb.rows_read", "reldb.index_scans", "reldb.full_scans",
	"server.admitted", "server.rejected", "server.errors",
}

type counterSet struct {
	handles []*obs.Counter
	before  []int64
}

func newCounterSet() *counterSet {
	cs := &counterSet{before: make([]int64, len(counterNames))}
	for _, n := range counterNames {
		cs.handles = append(cs.handles, obs.C(n))
	}
	return cs
}

func (cs *counterSet) begin() {
	for i, h := range cs.handles {
		cs.before[i] = h.Load()
	}
}

func (cs *counterSet) end() map[string]int64 {
	d := make(map[string]int64, len(cs.handles))
	for i, h := range cs.handles {
		d[counterNames[i]] = h.Load() - cs.before[i]
	}
	return d
}

func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// ipSet is the evaluators of one workflow: plain over the store (timed as a
// user's executor), decorated (its store calls become spans), and one that
// never caches plans.
type ipSet struct {
	plain, decorated, cold *lineage.IndexProj
}

// tracer walks queries down the stack and collects one value per query for
// every seam the query reached.
type tracer struct {
	e   *env
	rec *recorder

	rd        reads // the store, or the pinned view on ingest_tail
	timed     *timedReads
	ips       map[string]*ipSet // by workflow name
	ni, niT   *lineage.Naive
	below     *below
	segs      *segments
	rdb       *reldb.DB
	mergeNs   *obs.Histogram // lineage.multirun.merge_ns
	requestNs *obs.Histogram // server.request_ns

	series   map[string][]float64
	counters *counterSet
	counted  map[string]int64 // counter deltas summed over the counted ladders
	nCounted int
	answers  int64 // answer bindings over the counted ladders

	ladders, failed int64
	examined, match int
}

func newTracer(e *env, keepQueries int) (*tracer, error) {
	t := &tracer{e: e, rec: newRecorder(keepQueries), series: make(map[string][]float64),
		ips: make(map[string]*ipSet), counters: newCounterSet(), counted: make(map[string]int64),
		mergeNs: obs.H("lineage.multirun.merge_ns"), requestNs: obs.H("server.request_ns")}
	if e.st == nil {
		return nil, fmt.Errorf("the traced run replays store calls on a single-store backend")
	}
	t.rd = e.st
	if e.view != nil {
		t.rd = e.view
	}
	t.timed = &timedReads{reads: t.rd, rec: t.rec}
	t.ni, t.niT = lineage.NewNaive(t.rd), lineage.NewNaive(t.timed)
	for name, wf := range e.sys.Workflows() {
		s := &ipSet{}
		var err error
		if s.plain, err = lineage.NewIndexProj(t.rd, wf); err != nil {
			return nil, err
		}
		if s.decorated, err = lineage.NewIndexProj(t.timed, wf); err != nil {
			return nil, err
		}
		if s.cold, err = lineage.NewIndexProj(nil, wf); err != nil {
			return nil, err
		}
		s.cold.UsePlanCache(noPlanCache{}, "")
		t.ips[name] = s
	}
	var err error
	if t.rdb, err = sqlike.DBFor(e.st.DSN()); err != nil {
		return nil, err
	}
	if t.below, err = newBelow(t.rec, e.st, t.rdb, e.view != nil); err != nil {
		return nil, err
	}
	t.segs = &segments{db: e.st.DB(), segs: make(map[string]*colstore.Segment)}
	return t, nil
}

func (t *tracer) close() { t.below.close() }

func (t *tracer) add(name string, v float64) { t.series[name] = append(t.series[name], v) }

func (t *tracer) workflowOf(p *prepared) *ipSet {
	if p.q.Kind == GKFocused || p.q.Kind == GKUnfocused {
		return t.ips[t.e.gkWF.Name]
	}
	return t.ips[t.e.tbWF.Name]
}

// walk is one ladder in progress: the spans later rungs hang under and the
// times later rungs subtract from.
type walk struct {
	p       *prepared
	counted bool             // also read the allocation counter around rungs
	delta   map[string]int64 // obs counter deltas around the first touch

	rootID, parent, coreID int32
	rootUs, coreUs         float64
	inServerUs             float64 // served_mix: the handler's time inside the root call, by the server's own span
	res                    *lineage.Result
}

// mallocsIf reads the allocation counter on counted ladders only: the read
// stops the world, so timed-only ladders skip it.
func (w *walk) mallocsIf() float64 {
	if !w.counted {
		return 0
	}
	return mallocs()
}

// ladder walks one query down the stack.
func (t *tracer) ladder(ctx context.Context, p *prepared, counted bool) error {
	t.rec.query++
	t.ladders++
	w := &walk{p: p, counted: counted}
	if ok, err := t.rungQuery(ctx, w); !ok || err != nil {
		return err
	}
	if err := t.rungFrontEnd(ctx, w); err != nil {
		return err
	}
	if err := t.rungLineage(ctx, w); err != nil {
		return err
	}
	if err := t.rungStore(w); err != nil {
		return err
	}
	if counted {
		for k, v := range w.delta {
			t.counted[k] += v
		}
		t.answers += int64(w.res.Len())
		t.nCounted++
	}
	return nil
}

// rungQuery is the user's call, twice. The first touch is the query as the
// closed loop would meet it, checked like a measured one, with the counters
// read around it; it also leaves the query's data and plan equally warm for
// every rung that follows, which is what lets a layer's self time be a
// difference of rungs. The second is the root span. ok is false when an
// answer was wrong or refused: the ladder is counted as failed and dropped.
func (t *tracer) rungQuery(ctx context.Context, w *walk) (ok bool, err error) {
	e, rec := t.e, t.rec
	var d digest
	t.counters.begin()
	s := rec.now()
	err = e.exec(ctx, w.p, &d)
	_, firstUs := rec.add("query.first_touch", 0, s, rec.now())
	w.delta = t.counters.end()
	if err != nil || d.ref() != w.p.want {
		t.failed++
		return false, nil
	}
	t.add("trace.first_touch_us", firstUs)

	d.reset()
	w.rootID = rec.reserve()
	inServer0 := t.requestNs.Sum()
	s = rec.now()
	err = e.exec(ctx, w.p, &d)
	w.rootUs = rec.addReserved(w.rootID, "query", 0, s, rec.now())
	w.inServerUs = float64(t.requestNs.Sum()-inServer0) / 1e3
	if err != nil || d.ref() != w.p.want {
		t.failed++
		return false, nil
	}
	t.add("trace.query_us", w.rootUs)
	return true, nil
}

// rungFrontEnd is everything between the user and the evaluator: on
// served_mix the handler without the network and the network around the
// handler; everywhere parse, the core call and render.
func (t *tracer) rungFrontEnd(ctx context.Context, w *walk) error {
	e, rec, p := t.e, t.rec, w.p
	w.parent = w.rootID
	var handleUs, transportUs float64
	if e.ts != nil {
		// Transport is what the client waited beyond the handler's own time
		// inside that same round trip, which the server's request span
		// (obs server.request_ns) recorded.
		transportUs = w.rootUs - w.inServerUs
		hw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, p.url, nil)
		m0 := w.mallocsIf()
		s := rec.now()
		e.srv.Handler().ServeHTTP(hw, req)
		w.parent, handleUs = rec.add("server.handle", w.rootID, s, rec.now())
		if w.counted {
			t.add("server.allocs_per_request", mallocs()-m0)
		}
		if hw.Code != http.StatusOK {
			return fmt.Errorf("traced handler call: HTTP %d", hw.Code)
		}
		t.add("server.handle_us", handleUs)
		t.add("server.transport_us", transportUs)
	}

	s := rec.now()
	if _, _, _, err := queryfmt.ParseBinding(p.binding); err != nil {
		return err
	}
	queryfmt.ParseFocus(p.focusArg)
	if _, err := core.ParseMethod(p.method.String()); err != nil {
		return err
	}
	_, parseUs := rec.add("queryfmt.parse", w.parent, s, rec.now())
	s = rec.now()
	res, err := e.lineage(ctx, p)
	if err != nil {
		return err
	}
	w.res = res
	w.coreID, w.coreUs = rec.add("core.query", w.parent, s, rec.now())
	var out digest
	s = rec.now()
	e.render(&out, p, res)
	_, renderUs := rec.add("queryfmt.render", w.parent, s, rec.now())
	t.add("queryfmt.parse_us", parseUs)
	t.add("core.query_us", w.coreUs)
	t.add("queryfmt.render_us", renderUs)
	t.add("queryfmt.render_bytes_per_query", float64(out.n))

	// Coverage: how well the root's independently timed children
	// reconstruct it.
	covered := w.coreUs + renderUs
	if e.ts != nil {
		t.add("server.self_us", handleUs-parseUs-w.coreUs-renderUs)
		covered = handleUs + transportUs
	}
	t.add("trace.coverage_ratio", covered/w.rootUs)
	return nil
}

// rungLineage is plan and execute: plain (the time a user's executor takes)
// and through the decorator, whose store calls become the next rung.
func (t *tracer) rungLineage(ctx context.Context, w *walk) error {
	e, rec, p := t.e, t.rec, w.p
	var planUs, execUs float64
	// timedExec times the plain execution, then runs the decorated one as
	// the lineage.execute span the store spans hang under.
	timedExec := func(plain, decorated func() error) error {
		m0 := w.mallocsIf()
		s := rec.now()
		if err := plain(); err != nil {
			return err
		}
		_, execUs = rec.add("lineage.execute.plain", w.coreID, s, rec.now())
		if w.counted {
			t.add("lineage.allocs_per_query", mallocs()-m0)
		}
		id := rec.reserve()
		t.timed.begin(id)
		s = rec.now()
		if err := decorated(); err != nil {
			return err
		}
		t.add("lineage.self_us", rec.addReserved(id, "lineage.execute", w.coreID, s, rec.now())-t.timed.total())
		return nil
	}

	if p.method == core.Naive {
		err := timedExec(
			func() error { _, err := t.ni.Lineage(p.runID, p.proc, p.port, p.idx, p.focus); return err },
			func() error { _, err := t.niT.Lineage(p.runID, p.proc, p.port, p.idx, p.focus); return err })
		if err != nil {
			return err
		}
		t.add("lineage.ni.p50_us", execUs)
		t.add("core.self_us", w.coreUs-execUs)
		return nil
	}

	ips := t.workflowOf(p)
	// Prime both caching evaluators so the timed Compile is a hit.
	if _, err := ips.plain.Compile(p.proc, p.port, p.idx, p.focus); err != nil {
		return err
	}
	planD, err := ips.decorated.Compile(p.proc, p.port, p.idx, p.focus)
	if err != nil {
		return err
	}
	s := rec.now()
	plan, _ := ips.plain.Compile(p.proc, p.port, p.idx, p.focus)
	_, planUs = rec.add("lineage.plan", w.coreID, s, rec.now())
	t.add("lineage.plan_hit_us", planUs)

	if p.runIDs != nil {
		var mergeNs int64
		err = timedExec(
			func() error {
				merge0 := t.mergeNs.Sum()
				_, err := ips.plain.ExecuteMultiRun(ctx, plan, p.runIDs, e.multiRunOptions())
				mergeNs = t.mergeNs.Sum() - merge0
				return err
			},
			func() error {
				// Parallelism 1: the decorator's spans must nest, not overlap.
				_, err := ips.decorated.ExecuteMultiRun(ctx, planD, p.runIDs, lineage.MultiRunOptions{Parallelism: 1})
				return err
			})
		t.add("lineage.merge_us", float64(mergeNs)/1e3)
	} else {
		err = timedExec(
			func() error { _, err := ips.plain.Execute(plan, p.runID); return err },
			func() error { _, err := ips.decorated.Execute(planD, p.runID); return err })
	}
	if err != nil {
		return err
	}
	t.add("lineage.execute_us", execUs)
	t.add("core.self_us", w.coreUs-planUs-execUs)

	// What a plan-cache miss would have added (t1): compiled last, so its
	// garbage does not sit between the rungs compared above.
	s = rec.now()
	if _, err := ips.cold.Compile(p.proc, p.port, p.idx, p.focus); err != nil {
		return err
	}
	_, missUs := rec.add("lineage.plan.miss", w.coreID, s, rec.now())
	t.add("lineage.plan_miss_us", missUs)

	class := "lineage.multirun.rows_p50_us"
	switch {
	case p.q.Kind == IPFocused:
		class = "lineage.indexproj.focused_p50_us"
	case p.q.Kind == IPUnfocused:
		class = "lineage.indexproj.unfocused_p50_us"
	case w.delta["lineage.multirun.colscan_chunks"] > 0 && w.delta["colscan.fallbacks"] == 0:
		class = "lineage.multirun.colscan_p50_us"
	}
	t.add(class, planUs+execUs)
	return nil
}

// rungStore takes the store calls of the decorated execution and replays
// their equivalents below the store: SQL, engine select, column segment.
func (t *tracer) rungStore(w *walk) error {
	var byOp [len(opSpanNames)]float64
	var replayedUs, sqlUs, relUs, scanUs float64
	var firstProbe *storeCall
	for i := range t.timed.calls {
		c := &t.timed.calls[i]
		byOp[c.op] += c.us
		if firstProbe == nil && c.op != opValuesBatch && c.op != opColScan {
			firstProbe = c
		}
		lt, ok, err := t.below.replay(c)
		if err != nil {
			return err
		}
		if ok {
			replayedUs += c.us
			sqlUs += lt.sqlUs
			relUs += lt.relUs
		}
		if c.op == opColScan && len(c.runIDs) > 0 {
			us, ex, m, err := t.segs.scan(t.rec, c)
			if err != nil {
				return err
			}
			scanUs += us
			t.examined += ex
			t.match += m
		}
	}
	for _, m := range []struct {
		name string
		us   float64
	}{
		{"store.probe_us", byOp[opInputBindings] + byOp[opValue]},
		{"store.probe_batch_us", byOp[opInputBindingsBatch]},
		{"store.values_batch_us", byOp[opValuesBatch]},
		{"store.colscan_us", byOp[opColScan]},
		{"store.trace_read_us", byOp[opXformsByOutput] + byOp[opXfersTo]},
		{"colstore.scan_us", scanUs},
	} {
		if m.us > 0 {
			t.add(m.name, m.us)
		}
	}
	if replayedUs > 0 {
		t.add("store.self_us", replayedUs-sqlUs)
		t.add("sqlike.query_us", sqlUs)
		t.add("sqlike.self_us", sqlUs-relUs)
		t.add("reldb.select_us", relUs)
	}
	if firstProbe != nil && (w.counted || t.ladders%8 == 0) {
		return t.sideRungs(firstProbe, w.counted)
	}
	return nil
}

// sideRungs times what sits beside the probe path at the store and engine
// seams: opening a pinned view and probing through it, pinning an engine
// snapshot and selecting through it, and preparing the probe's SQL. On
// counted ladders it also reads the allocations of one probe at each layer.
func (t *tracer) sideRungs(c *storeCall, counted bool) error {
	st := t.e.st
	probe := func(r reads) error {
		var err error
		switch c.op {
		case opInputBindings:
			_, err = r.InputBindings(c.runID, c.proc, c.port, c.idx)
		case opValue:
			_, err = r.Value(c.runID, c.valID)
		case opInputBindingsBatch:
			_, err = r.InputBindingsBatch(c.runIDs, c.proc, c.port, c.idx)
		case opXformsByOutput:
			_, err = r.XformsByOutput(c.runID, c.proc, c.port, c.idx)
		case opXfersTo:
			_, err = r.XfersTo(c.runID, c.proc, c.port)
		}
		return err
	}
	t0 := time.Now()
	v, err := st.View()
	if err != nil {
		return err
	}
	opened := time.Since(t0)
	through := reads(v)
	if t.e.view != nil {
		through = t.e.view // the workload's own pinned view
	}
	t1 := time.Now()
	err = probe(through)
	probed := time.Since(t1)
	t2 := time.Now()
	v.Close()
	if err != nil {
		return err
	}
	t.add("store.view_open_us", float64((opened+time.Since(t2)).Nanoseconds())/1e3)
	t.add("store.view_probe_us", float64(probed.Nanoseconds())/1e3)

	sqlText, table, preds, args := equivalent(c, -1)
	t0 = time.Now()
	snap := t.rdb.Snapshot()
	pinned := time.Since(t0)
	sel := snap.Select
	if t.e.view != nil {
		sel = t.below.sel // the snapshot pinned beside the view
	}
	t1 = time.Now()
	_, err = sel(table, preds, -1)
	selected := time.Since(t1)
	t2 = time.Now()
	snap.Release()
	if err != nil {
		return err
	}
	t.add("reldb.snapshot_us", float64((pinned+time.Since(t2)).Nanoseconds())/1e3)
	t.add("reldb.snapshot_select_us", float64(selected.Nanoseconds())/1e3)

	t0 = time.Now()
	fresh, err := st.DB().Prepare(sqlText)
	if err != nil {
		return err
	}
	t.add("sqlike.prepare_us", float64(time.Since(t0).Nanoseconds())/1e3)
	fresh.Close()

	if counted {
		ps, err := t.below.stmt(sqlText)
		if err != nil {
			return err
		}
		m0 := mallocs()
		if err := probe(t.rd); err != nil {
			return err
		}
		m1 := mallocs()
		rows, err := ps.st.Query(args...)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		rows.Close()
		m2 := mallocs()
		if _, err := t.below.sel(table, preds, -1); err != nil {
			return err
		}
		m3 := mallocs()
		t.add("store.allocs_per_probe", m1-m0)
		t.add("sqlike.allocs_per_query", m2-m1)
		t.add("reldb.allocs_per_select", m3-m2)
	}
	return nil
}
