package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sqlike"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// This file builds each workload's stored data through the same public
// entry points a deployment uses (engine -> trace -> store ingest ->
// checkpoint -> core.System / server), timing the stages from outside.

const (
	servedTenant = "t0"
	gkFocusProc  = "get_pathways_by_genes"
	gkPort       = "paths_per_gene"
)

// setupStats is what one set-up cost.
type setupStats struct {
	genS, ingestS, ckptS, recoverS, totalS float64
	excludedS                              float64 // the benchmark's own pauses inside the set-up

	rows      int
	diskBytes int64 // persistent form of the stored data; 0 until measured

	write obs.Snapshot // obs delta across the set-up (write-side layer metrics)
}

// env is one workload's system under test plus what the runner needs to
// address it: run IDs by position, focus sets, and the traces the reference
// answers are computed from.
type env struct {
	w       Workload
	sc      Scale
	nproc   int
	workdir string

	sys *core.System
	st  *store.Store // the engine behind sys when it is a single store (layer replays need it)

	tbWF, gkWF     *workflow.Workflow
	tbRuns, gkRuns []string
	tbFocus, tbAll lineage.Focus
	gkFocus, gkAll lineage.Focus
	traces         map[string]*trace.Trace // by run ID; dropped once references are computed

	// served_mix
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client

	// ingest_tail
	dir    string
	view   *store.View
	viewIP *lineage.IndexProj
	tailWF *workflow.Workflow

	stats setupStats
}

func allProcs(w *workflow.Workflow) lineage.Focus {
	f := lineage.NewFocus()
	for _, p := range w.Processors {
		f[p.Name] = true
	}
	return f
}

func runIDs(ts []*trace.Trace) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.RunID
	}
	return out
}

func genTestbed(eng *engine.Engine, wf *workflow.Workflow, d, n int, prefix string) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, n)
	for r := range out {
		_, tr, err := eng.RunTrace(wf, fmt.Sprintf("%s%04d", prefix, r), gen.TestbedInputs(d))
		if err != nil {
			return nil, err
		}
		out[r] = tr
	}
	return out, nil
}

func genGK(eng *engine.Engine, wf *workflow.Workflow, n int) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, n)
	for r := range out {
		_, tr, err := eng.RunTrace(wf, fmt.Sprintf("gk%04d", r), gen.GKInputs(8+r%3, 6))
		if err != nil {
			return nil, err
		}
		out[r] = tr
	}
	return out, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// newEnv prepares the parts of an env that need no stored data.
func newEnv(w Workload, sc Scale, nproc int, workdir string) *env {
	e := &env{w: w, sc: sc, nproc: nproc, workdir: workdir, traces: make(map[string]*trace.Trace)}
	e.tbWF = gen.Testbed(sc.L)
	e.gkWF = gen.GenesToKegg()
	e.tbFocus = lineage.NewFocus(gen.ListGenName)
	e.tbAll = allProcs(e.tbWF)
	e.gkFocus = lineage.NewFocus(gkFocusProc)
	e.gkAll = allProcs(e.gkWF)
	return e
}

func (e *env) keep(ts []*trace.Trace) {
	for _, t := range ts {
		e.traces[t.RunID] = t
	}
}

// openSystem opens a core.System on dsn with the workload's workflow
// definitions registered.
func (e *env) openSystem(dsn string) error {
	sys, err := core.NewSystem(core.WithStoreDSN(dsn))
	if err != nil {
		return err
	}
	for _, wf := range []*workflow.Workflow{e.tbWF, e.gkWF, e.tailWF} {
		if wf == nil {
			continue
		}
		if err := sys.RegisterWorkflow(wf); err != nil {
			sys.Close()
			return err
		}
	}
	e.sys = sys
	e.st, _ = sys.Store().(*store.Store)
	return nil
}

// adoptRuns makes bulk-loaded runs queryable through core.System, whose
// run-to-workflow map is refreshed from the store when a streaming-ingest
// session ends: an empty, already-closed feed is the cheapest such session.
func (e *env) adoptRuns(ctx context.Context) error {
	feed := make(chan trace.Event)
	close(feed)
	_, err := e.sys.TailIngest(ctx, feed, store.TailOptions{})
	return err
}

// ingest bulk-loads traces. It starts from a collected heap — the time of
// that collection is taken out of setup_s — so the collector's schedule
// during the load does not depend on how much garbage generation left.
func (e *env) ingest(ctx context.Context, ts []*trace.Trace) error {
	t0 := time.Now()
	runtime.GC()
	e.stats.excludedS += since(t0)
	t0 = time.Now()
	err := e.sys.Store().IngestTraces(ctx, ts, store.IngestOptions{Parallelism: e.nproc})
	e.stats.ingestS += since(t0)
	return err
}

func (e *env) checkpoint() error {
	ck, ok := e.sys.Store().(store.Checkpointer)
	if !ok {
		return nil
	}
	t0 := time.Now()
	err := ck.Checkpoint()
	e.stats.ckptS += since(t0)
	return err
}

// build sets the workload up from nothing and runs its first query. It is
// the interval setup_s reports.
func (e *env) build(ctx context.Context, first Query) error {
	s0 := obs.Default.Snapshot()
	start := time.Now()
	var err error
	switch e.w.Name {
	case "focused_point", "trace_walk":
		err = e.buildTestbed(ctx, sqlike.MemoryDSN())
	case "multirun_scan":
		err = e.buildMultirun(ctx, sqlike.MemoryDSN())
	case "served_mix":
		err = e.buildServed(ctx)
	case "ingest_tail":
		err = e.buildIngestTail(ctx)
	default:
		err = fmt.Errorf("no set-up for workload %q", e.w.Name)
	}
	if err != nil {
		return err
	}
	if e.sys != nil { // served_mix counted its rows before handing the file to the server
		if e.stats.rows, err = e.sys.Store().TotalRecords(""); err != nil {
			return err
		}
	}
	p := e.prepare(first)
	if err := e.exec(ctx, &p, new(digest)); err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	e.stats.totalS = since(start) - e.stats.excludedS
	e.stats.write = obs.Default.Snapshot().Sub(s0)
	return nil
}

func (e *env) buildTestbed(ctx context.Context, dsn string) error {
	eng := engine.New(gen.Registry())
	t0 := time.Now()
	tb, err := genTestbed(eng, e.tbWF, e.sc.D, e.sc.TBRuns, "tb")
	if err != nil {
		return err
	}
	e.stats.genS = since(t0)
	e.keep(tb)
	e.tbRuns = runIDs(tb)
	if err := e.openSystem(dsn); err != nil {
		return err
	}
	if err := e.ingest(ctx, tb); err != nil {
		return err
	}
	if err := e.checkpoint(); err != nil {
		return err
	}
	return e.adoptRuns(ctx)
}

func (e *env) buildMultirun(ctx context.Context, dsn string) error {
	eng := engine.New(gen.Registry())
	t0 := time.Now()
	gk, err := genGK(eng, e.gkWF, e.sc.GKRuns)
	if err != nil {
		return err
	}
	e.stats.genS = since(t0)
	e.keep(gk)
	e.gkRuns = runIDs(gk)
	if err := e.openSystem(dsn); err != nil {
		return err
	}
	// Runs ingested before the checkpoint get a column segment; the rest
	// stay on the row path until the next checkpoint, which never comes.
	if err := e.ingest(ctx, gk[:e.sc.GKSegmented]); err != nil {
		return err
	}
	if err := e.checkpoint(); err != nil {
		return err
	}
	if err := e.ingest(ctx, gk[e.sc.GKSegmented:]); err != nil {
		return err
	}
	return e.adoptRuns(ctx)
}

func (e *env) buildServed(ctx context.Context) error {
	dir, err := os.MkdirTemp(e.workdir, "served-")
	if err != nil {
		return err
	}
	e.dir = dir
	eng := engine.New(gen.Registry())
	t0 := time.Now()
	tb, err := genTestbed(eng, e.tbWF, e.sc.D, e.sc.TBRuns, "tb")
	if err != nil {
		return err
	}
	gk, err := genGK(eng, e.gkWF, e.sc.ServedGKRuns)
	if err != nil {
		return err
	}
	e.stats.genS = since(t0)
	e.keep(tb)
	e.keep(gk)
	e.tbRuns, e.gkRuns = runIDs(tb), runIDs(gk)

	// Seed the tenant's file exactly as the server's opener will find it.
	path := filepath.Join(dir, servedTenant+".db")
	if err := e.openSystem("file:" + path); err != nil {
		return err
	}
	if err := e.ingest(ctx, append(tb, gk...)); err != nil {
		return err
	}
	t0 = time.Now()
	if err := e.sys.Save(path); err != nil {
		return err
	}
	e.stats.ckptS = since(t0)
	if e.stats.rows, err = e.sys.Store().TotalRecords(""); err != nil {
		return err
	}
	if err := e.sys.Close(); err != nil {
		return err
	}
	e.sys, e.st = nil, nil
	if e.stats.diskBytes, err = dirBytes(path); err != nil {
		return err
	}

	e.srv, err = server.New(server.Config{
		StoreTemplate: "file:" + filepath.Join(dir, "{tenant}.db"),
		TestbedL:      e.sc.L,
	})
	if err != nil {
		return err
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        e.nproc,
		MaxIdleConnsPerHost: e.nproc,
	}}
	// The first request opens the tenant (loads the snapshot); build()
	// issues it, so the load is inside setup_s and reported as recover time.
	t0 = time.Now()
	resp, err := e.client.Get(e.ts.URL + "/v1/runs?tenant=" + servedTenant + "&format=json")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("served_mix: opening tenant: HTTP %d", resp.StatusCode)
	}
	e.stats.recoverS = since(t0)
	return nil
}

func (e *env) buildIngestTail(ctx context.Context) error {
	dir, err := os.MkdirTemp(e.workdir, "durable-")
	if err != nil {
		return err
	}
	e.dir = dir
	e.tailWF = gen.Testbed(e.sc.TailL)
	eng := engine.New(gen.Registry())
	t0 := time.Now()
	tb, err := genTestbed(eng, e.tbWF, e.sc.D, e.sc.IngestRuns, "tb")
	if err != nil {
		return err
	}
	e.stats.genS = since(t0)
	e.keep(tb)
	e.tbRuns = runIDs(tb)

	dsn := "durable:" + dir
	if err := e.openSystem(dsn); err != nil {
		return err
	}
	if err := e.ingest(ctx, tb); err != nil {
		return err
	}
	if err := e.checkpoint(); err != nil {
		return err
	}
	rows, err := e.sys.Store().TotalRecords("")
	if err != nil {
		return err
	}
	if e.stats.diskBytes, err = dirBytes(dir); err != nil {
		return err
	}
	if err := e.sys.Close(); err != nil {
		return err
	}

	// Acknowledged means readable after a restart: reopen from the directory
	// alone and check that nothing was lost.
	t0 = time.Now()
	if err := e.openSystem(dsn); err != nil {
		return err
	}
	e.stats.recoverS = since(t0)
	if got, err := e.sys.Store().TotalRecords(""); err != nil {
		return err
	} else if got != rows {
		return fmt.Errorf("ingest_tail: %d rows acknowledged, %d after reopen", rows, got)
	}
	if e.st == nil {
		return fmt.Errorf("ingest_tail needs a single-store backend (pinned views)")
	}
	if e.view, err = e.st.View(); err != nil {
		return err
	}
	e.viewIP, err = lineage.NewIndexProj(e.view, e.tbWF)
	return err
}

// dirBytes sums the sizes of the regular files at or under path.
func dirBytes(path string) (int64, error) {
	var n int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// measureDisk fills stats.diskBytes for the memory-backed workloads, whose
// persistent form is the snapshot `Save` writes. Not part of setup_s.
func (e *env) measureDisk() error {
	if e.stats.diskBytes > 0 || e.sys == nil {
		return nil
	}
	f, err := os.CreateTemp(e.workdir, "snapshot-*.db")
	if err != nil {
		return err
	}
	f.Close()
	defer os.Remove(f.Name())
	if err := e.sys.Save(f.Name()); err != nil {
		return err
	}
	e.stats.diskBytes, err = dirBytes(f.Name())
	return err
}

// close tears the system under test down and removes what it wrote.
func (e *env) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.view != nil {
		note(e.view.Close())
	}
	if e.ts != nil {
		e.client.CloseIdleConnections()
		e.ts.Close()
		note(e.srv.Drain())
	}
	if e.sys != nil {
		note(e.sys.Close())
	}
	if e.dir != "" {
		note(os.RemoveAll(e.dir))
	}
	return first
}
