package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// Fig4 regenerates Figure 4: response times of focused and fully unfocused
// INDEXPROJ queries over the GK and PD workflows, as the query scope grows
// from one run to many. The defining shape: the specification-graph
// traversal (s1/t1) is shared across runs, so total time grows with t2 only;
// unfocused PD has a much larger t2 and grows proportionally faster.
func Fig4(o Options) (*Report, error) {
	runCounts := o.grid([]int{1, 2, 5, 10, 20}, []int{1, 2, 3})
	env, err := PopulateGKPD(runCounts[len(runCounts)-1])
	if err != nil {
		return nil, err
	}
	defer env.Close()

	type queryCfg struct {
		label string
		wf    *workflow.Workflow
		runs  []string
		port  string
		idx   value.Index
		focus lineage.Focus
	}
	cfgs := []queryCfg{
		{"GK focused", env.GK, env.GKRuns, "paths_per_gene", value.Ix(0, 0),
			lineage.NewFocus("get_pathways_by_genes")},
		{"GK unfocused", env.GK, env.GKRuns, "paths_per_gene", value.Ix(0, 0), AllProcs(env.GK)},
		{"PD focused", env.PD, env.PDRuns, "discovered_proteins", value.Ix(0),
			lineage.NewFocus("fetch_abstract")},
		{"PD unfocused", env.PD, env.PDRuns, "discovered_proteins", value.Ix(0), AllProcs(env.PD)},
	}

	rep := &Report{
		ID:    "fig4",
		Title: "Query response time for focused/unfocused queries ranging over multiple runs",
		Caption: "INDEXPROJ, GK and PD reconstructions. t1 = spec-graph traversal (shared\n" +
			"across runs), t2 = per-run trace queries. Paper shape: totals grow with t2\n" +
			"only; unfocused PD grows fastest (its t2 is ~10x focused). ctr_* columns\n" +
			"and probes come from the engine's obs counters (per measured query).",
		Columns: []string{"query", "runs", "t1_ms", "t2_ms", "total_ms", "probes", "ctr_t1_ms", "ctr_t2_ms"},
	}
	for _, cfg := range cfgs {
		// t1: fresh evaluator + compile, best-of-N. The obs snapshot delta
		// around the loop yields the counter-derived per-compile plan time
		// (every repetition is a cache miss on a fresh evaluator).
		s0 := obs.Default.Snapshot()
		t1, err := bestOf(o.queries(), func() error {
			ip, err := lineage.NewIndexProj(env.Store, cfg.wf)
			if err != nil {
				return err
			}
			_, err = ip.Compile(trace.WorkflowProc, cfg.port, cfg.idx, cfg.focus)
			return err
		})
		if err != nil {
			return nil, err
		}
		d1 := obs.Default.Snapshot().Sub(s0)
		ctrT1 := msNs(d1.HistSum("lineage.indexproj.plan_ns"), d1.Counter("lineage.indexproj.plan_cache_misses"))
		ip, err := lineage.NewIndexProj(env.Store, cfg.wf)
		if err != nil {
			return nil, err
		}
		plan, err := ip.Compile(trace.WorkflowProc, cfg.port, cfg.idx, cfg.focus)
		if err != nil {
			return nil, err
		}
		for _, n := range runCounts {
			runs := cfg.runs[:n]
			q0 := obs.Default.Snapshot()
			t2, err := bestOf(o.queries(), func() error {
				for _, r := range runs {
					if _, err := ip.Execute(plan, r); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			dq := obs.Default.Snapshot().Sub(q0)
			reps := int64(o.queries())
			rep.Rows = append(rep.Rows, []string{
				cfg.label, fmt.Sprint(n), ms(t1), ms(t2), ms(t1 + t2),
				fmt.Sprint(dq.Counter("store.probes") / reps),
				ctrT1,
				msNs(dq.HistSum("lineage.indexproj.probe_ns"), reps),
			})
		}
	}
	return rep, nil
}

// Fig4Parallel extends Fig. 4 beyond the paper: the probe phase t2 of a
// multi-run query executed by the parallel multi-run executor with batched
// store probes, against the sequential per-run baseline. The paper's Fig. 4
// grows linearly with the number of runs because runs are probed one after
// another; runs are independent by construction, so the executor batches
// the probes (one store call per (P, X, p) per batch of runs) and
// fans the batches out over a worker pool.
func Fig4Parallel(o Options) (*Report, error) {
	runs := 20
	if o.Quick {
		runs = 4
	}
	env, err := PopulateGKPD(runs)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	type queryCfg struct {
		label string
		wf    *workflow.Workflow
		runs  []string
		port  string
		idx   value.Index
		focus lineage.Focus
	}
	cfgs := []queryCfg{
		{"GK focused", env.GK, env.GKRuns, "paths_per_gene", value.Ix(0, 0),
			lineage.NewFocus("get_pathways_by_genes")},
		{"GK unfocused", env.GK, env.GKRuns, "paths_per_gene", value.Ix(0, 0), AllProcs(env.GK)},
		{"PD focused", env.PD, env.PDRuns, "discovered_proteins", value.Ix(0),
			lineage.NewFocus("fetch_abstract")},
		{"PD unfocused", env.PD, env.PDRuns, "discovered_proteins", value.Ix(0), AllProcs(env.PD)},
	}

	rep := &Report{
		ID:    "fig4par",
		Title: "Parallel multi-run query execution vs. the sequential per-run baseline",
		Caption: fmt.Sprintf("Fig. 4 workload, %d runs. t2 = probe phase only (shared plan, compiled\n"+
			"once). sequential = one probe round-trip per run per plan probe; parallel\n"+
			"P=n = n workers over run batches, one batched store call per probe per\n"+
			"batch. queries = index scans per execution.", runs),
		Columns: []string{"query", "runs", "mode", "t2_ms", "queries", "speedup"},
	}
	for _, cfg := range cfgs {
		ip, err := lineage.NewIndexProj(env.Store, cfg.wf)
		if err != nil {
			return nil, err
		}
		plan, err := ip.Compile(trace.WorkflowProc, cfg.port, cfg.idx, cfg.focus)
		if err != nil {
			return nil, err
		}
		seqOpt := lineage.MultiRunOptions{Parallelism: 1, BatchSize: 1}
		var baseline *lineage.Result
		seqT, err := bestOfScaled(o.queries(), func() error {
			baseline, err = ip.ExecuteMultiRun(o.ctx(), plan, cfg.runs, seqOpt)
			return err
		})
		if err != nil {
			return nil, err
		}
		addRow := func(mode string, opt lineage.MultiRunOptions, t time.Duration) error {
			store.ResetQueryCount()
			got, err := ip.ExecuteMultiRun(o.ctx(), plan, cfg.runs, opt)
			if err != nil {
				return err
			}
			if !got.Equal(baseline) {
				return fmt.Errorf("bench: %s %s diverged from the sequential baseline", cfg.label, mode)
			}
			rep.Rows = append(rep.Rows, []string{
				cfg.label, fmt.Sprint(len(cfg.runs)), mode, ms(t),
				fmt.Sprint(store.QueryCount()),
				fmt.Sprintf("%.2fx", float64(seqT)/float64(t)),
			})
			return nil
		}
		if err := addRow("sequential", seqOpt, seqT); err != nil {
			return nil, err
		}
		for _, p := range []int{1, 2, 4, 8} {
			opt := lineage.MultiRunOptions{Parallelism: p}
			t, err := bestOfScaled(o.queries(), func() error {
				_, err := ip.ExecuteMultiRun(o.ctx(), plan, cfg.runs, opt)
				return err
			})
			if err != nil {
				return nil, err
			}
			if err := addRow(fmt.Sprintf("parallel P=%d", p), opt, t); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// paperTable1 holds the record counts reported in Table 1 of the paper, by
// [d][l] over the grids below; used for side-by-side comparison.
var paperTable1 = map[int]map[int]int{
	10: {10: 626, 28: 1346, 50: 2226, 75: 3226, 100: 4226, 150: 6226},
	25: {10: 2306, 28: 4106, 50: 6306, 75: 8806, 100: 11306, 150: 16306},
	50: {10: 7106, 28: 11000, 50: 15106, 75: 20106, 100: 25106, 150: 35106},
	75: {10: 14406, 28: 15479, 50: 26406, 75: 33906, 100: 41406, 150: 49561},
}

// Table1 regenerates Table 1: the number of trace-database records for one
// run of each testbed configuration. Our counts follow the closed form
// gen.TestbedRecords (validated against the store), and share the paper's
// structure: linear growth in l·d plus a d² term from the final product.
func Table1(o Options) (*Report, error) {
	ls := o.grid([]int{10, 28, 50, 75, 100, 150}, []int{10, 28})
	ds := o.grid([]int{10, 25, 50, 75}, []int{10, 25})
	rep := &Report{
		ID:    "table1",
		Title: "Number of trace database records for one run and one test dataflow",
		Caption: "measured = rows stored (xform_in + xform_out + xfer); predicted = closed\n" +
			"form (2l+4) + 2 + 4ld + 3d^2; paper = value reported in Table 1.",
		Columns: []string{"d", "l", "measured", "predicted", "paper"},
	}
	for _, d := range ds {
		for _, l := range ls {
			env, err := PopulateTestbed(l, d, 1)
			if err != nil {
				return nil, err
			}
			got, err := env.Store.TotalRecords(env.RunIDs[0])
			env.Close()
			if err != nil {
				return nil, err
			}
			paper := "-"
			if row, ok := paperTable1[d]; ok {
				if v, ok := row[l]; ok {
					paper = fmt.Sprint(v)
				}
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(d), fmt.Sprint(l),
				fmt.Sprint(got), fmt.Sprint(gen.TestbedRecords(l, d)), paper,
			})
		}
	}
	return rep, nil
}

// Fig6 regenerates Figure 6: NI single-run query response time as traces
// accumulate in the database (l=75, d=50, 1..10 runs; roughly 15k -> 150k
// records). Paper shape: a modest increase (~20%) despite a 10-fold record
// growth, because every access path is index-backed.
func Fig6(o Options) (*Report, error) {
	l, d, maxRuns := 75, 50, 10
	if o.Quick {
		l, d, maxRuns = 10, 10, 3
	}
	env, err := PopulateTestbed(l, d, 1)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	eng := engine.New(reg)

	rep := &Report{
		ID:    "fig6",
		Title: "Lineage query response times for NI for varying trace size",
		Caption: fmt.Sprintf("l=%d, d=%d; the same single-run query measured as runs accumulate.\n"+
			"Paper shape: ~20%% increase across a 10-fold record growth.", l, d),
		Columns: []string{"runs_stored", "records_total", "NI_ms"},
	}
	focus := FocusedSet()
	for n := 1; n <= maxRuns; n++ {
		if n > 1 {
			if err := storeRun(env.Store, eng, fmt.Sprintf("run%03d", n-1), env.WF, gen.TestbedInputs(d)); err != nil {
				return nil, err
			}
		}
		total, err := env.Store.TotalRecords("")
		if err != nil {
			return nil, err
		}
		el, err := bestOf(o.queries(), func() error { return env.NaiveQuery("run000", focus) })
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(n), fmt.Sprint(total), ms(el)})
	}
	return rep, nil
}

// Fig7 regenerates Figure 7: NI query response time as the input list size d
// varies, for several chain lengths l. Paper shape: modest growth in d — d
// inflates the trace, not the number of traversal steps.
func Fig7(o Options) (*Report, error) {
	ls := o.grid([]int{10, 75, 150}, []int{5, 10})
	ds := o.grid([]int{10, 25, 50, 75}, []int{5, 10})
	rep := &Report{
		ID:      "fig7",
		Title:   "Lineage query response times for NI for varying input list size",
		Caption: "focused query, single run; series = chain length l.",
		Columns: []string{"l", "d", "NI_ms"},
	}
	for _, l := range ls {
		for _, d := range ds {
			env, err := PopulateTestbed(l, d, 1)
			if err != nil {
				return nil, err
			}
			focus := FocusedSet()
			el, err := bestOf(o.queries(), func() error { return env.NaiveQuery(env.RunIDs[0], focus) })
			env.Close()
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{fmt.Sprint(l), fmt.Sprint(d), ms(el)})
		}
	}
	return rep, nil
}

// Fig8 regenerates Figure 8: INDEXPROJ pre-processing time t1 (Alg. 1 depth
// propagation plus the spec-graph traversal of Alg. 2) against the workflow
// size. Paper shape: grows with the graph, staying small (< 1 s at 100
// nodes on 2009 hardware; far below that here).
func Fig8(o Options) (*Report, error) {
	ls := o.grid([]int{10, 25, 50, 75, 100, 150, 200}, []int{5, 10, 20})
	rep := &Report{
		ID:      "fig8",
		Title:   "Pre-processing times vs. l",
		Caption: "t1: fresh PROPAGATEDEPTHS + INDEXPROJ plan compilation (no trace access).",
		Columns: []string{"l", "graph_nodes", "t1_ms"},
	}
	for _, l := range ls {
		wf := gen.Testbed(l)
		focus := FocusedSet()
		el, err := bestOf(o.queries(), func() error {
			ip, err := lineage.NewIndexProj(nil, wf)
			if err != nil {
				return err
			}
			_, err = ip.Compile(gen.FinalName, "product", value.Ix(0, 0), focus)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(l), fmt.Sprint(wf.NumNodes()), ms(el)})
	}
	return rep, nil
}

// Fig9 regenerates Figure 9: lineage query response time across strategies
// as a function of l, for small and large d. Paper shape: NI grows linearly
// with l; INDEXPROJ-focused stays flat ("constantly low"); INDEXPROJ
// unfocused approaches NI; and the two d panels look alike.
func Fig9(o Options) (*Report, error) {
	ls := o.grid([]int{10, 28, 50, 75, 100, 150}, []int{5, 10})
	ds := o.grid([]int{10, 150}, []int{5, 15})
	rep := &Report{
		ID:    "fig9",
		Title: "Lineage query response time across strategies as a function of l",
		Caption: "strategies: NI, INDEXPROJ focused ({LISTGEN_1}), INDEXPROJ unfocused (all).\n" +
			"Stage columns come from engine obs counters, per measured query: NI splits\n" +
			"into traversal vs value materialization; INDEXPROJ into plan (t1, per\n" +
			"compile) vs probes (t2).",
		Columns: []string{"d", "l", "NI_ms", "IndexProj_focused_ms", "IndexProj_unfocused_ms",
			"NI_traverse_ms", "NI_probe_ms", "IPf_t1_ms", "IPf_t2_ms", "IPu_t1_ms", "IPu_t2_ms"},
	}
	for _, d := range ds {
		for _, l := range ls {
			env, err := PopulateTestbed(l, d, 1)
			if err != nil {
				return nil, err
			}
			row, err := fig9Row(o, env, d, l)
			env.Close()
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func fig9Row(o Options, env *TestbedEnv, d, l int) ([]string, error) {
	runID := env.RunIDs[0]
	reps := int64(o.queries())

	s0 := obs.Default.Snapshot()
	niT, err := bestOf(o.queries(), func() error { return env.NaiveQuery(runID, FocusedSet()) })
	if err != nil {
		return nil, err
	}
	dNI := obs.Default.Snapshot().Sub(s0)

	ip, err := lineage.NewIndexProj(env.Store, env.WF)
	if err != nil {
		return nil, err
	}
	s0 = obs.Default.Snapshot()
	focT, err := bestOf(o.queries(), func() error {
		_, err := ip.Lineage(runID, gen.FinalName, "product", env.QueryIndex(), FocusedSet())
		return err
	})
	if err != nil {
		return nil, err
	}
	dFoc := obs.Default.Snapshot().Sub(s0)

	unf := env.UnfocusedSet()
	s0 = obs.Default.Snapshot()
	unfT, err := bestOf(o.queries(), func() error {
		_, err := ip.Lineage(runID, gen.FinalName, "product", env.QueryIndex(), unf)
		return err
	})
	if err != nil {
		return nil, err
	}
	dUnf := obs.Default.Snapshot().Sub(s0)

	// Plan time (t1) is per compile: repeated queries hit the plan cache, so
	// the delta holds one compilation, however many repetitions ran.
	ipT1 := func(delta obs.Snapshot) string {
		return msNs(delta.HistSum("lineage.indexproj.plan_ns"),
			max64(1, delta.Counter("lineage.indexproj.plan_cache_misses")))
	}
	return []string{
		fmt.Sprint(d), fmt.Sprint(l), ms(niT), ms(focT), ms(unfT),
		msNs(dNI.HistSum("lineage.ni.traverse_ns"), reps),
		msNs(dNI.HistSum("lineage.ni.probe_ns"), reps),
		ipT1(dFoc),
		msNs(dFoc.HistSum("lineage.indexproj.probe_ns"), reps),
		ipT1(dUnf),
		msNs(dUnf.HistSum("lineage.indexproj.probe_ns"), reps),
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Fig10 regenerates Figure 10: INDEXPROJ response time on partially
// unfocused queries, as the target set grows to ~50% of the processors.
// Paper shape: time grows with |P| (each focus processor adds trace
// probes), approaching NI as the focus widens.
func Fig10(o Options) (*Report, error) {
	l, d := 75, 50
	if o.Quick {
		l, d = 10, 10
	}
	env, err := PopulateTestbed(l, d, 1)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	total := env.WF.NumNodes()
	fractions := []float64{0.01, 0.1, 0.2, 0.3, 0.4, 0.5}

	rep := &Report{
		ID:      "fig10",
		Title:   "Lineage query response for IndexProj on partially unfocused queries",
		Caption: fmt.Sprintf("l=%d, d=%d, %d processors total; |P| grows to ~50%%.", l, d, total),
		Columns: []string{"focus_procs", "focus_pct", "IndexProj_ms"},
	}
	ip, err := lineage.NewIndexProj(env.Store, env.WF)
	if err != nil {
		return nil, err
	}
	runID := env.RunIDs[0]
	for _, frac := range fractions {
		k := int(frac * float64(total))
		if k < 1 {
			k = 1
		}
		focus := env.PartialFocus(k)
		el, err := bestOf(o.queries(), func() error {
			_, err := ip.Lineage(runID, gen.FinalName, "product", env.QueryIndex(), focus)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(len(focus)),
			fmt.Sprintf("%.0f%%", 100*float64(len(focus))/float64(total)),
			ms(el),
		})
	}
	return rep, nil
}

// All runs every experiment in paper order.
func All(o Options) ([]*Report, error) {
	type exp struct {
		name string
		fn   func(Options) (*Report, error)
	}
	exps := []exp{
		{"fig4", Fig4}, {"fig4par", Fig4Parallel}, {"fig4shard", Fig4Shard}, {"fig4col", Fig4Col}, {"table1", Table1}, {"fig6", Fig6},
		{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10},
		{"ingest", Ingest}, {"serve", FigServe}, {"failover", Failover},
		{"stream", Stream},
	}
	out := make([]*Report, 0, len(exps))
	for _, e := range exps {
		start := time.Now()
		rep, err := e.fn(o)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.name, err)
		}
		rep.Caption += fmt.Sprintf("\n(regenerated in %v)", time.Since(start).Round(time.Millisecond))
		out = append(out, rep)
	}
	return out, nil
}
