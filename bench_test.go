// Benchmarks regenerating one measurement per table and figure of the
// paper's evaluation (§4). Each benchmark populates its provenance database
// once (outside the timer) and times the operation the corresponding
// table/figure reports. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// BenchmarkTable1Populate measures trace ingestion (the population cost
// behind Table 1's record counts) for a mid-grid configuration.
func BenchmarkTable1Populate(b *testing.B) {
	for _, cfg := range []struct{ l, d int }{{10, 10}, {50, 25}} {
		b.Run(fmt.Sprintf("l=%d_d=%d", cfg.l, cfg.d), func(b *testing.B) {
			records := gen.TestbedRecords(cfg.l, cfg.d)
			b.ReportMetric(float64(records), "records/run")
			for i := 0; i < b.N; i++ {
				env, err := bench.PopulateTestbed(cfg.l, cfg.d, 1)
				if err != nil {
					b.Fatal(err)
				}
				env.Close()
			}
		})
	}
}

// BenchmarkFig4MultiRun measures the multi-run query of Fig. 4 on the GK
// workflow: INDEXPROJ compiles once and probes per run; NI re-traverses
// every run.
func BenchmarkFig4MultiRun(b *testing.B) {
	env, err := bench.PopulateGKPD(10)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	focus := lineage.NewFocus("get_pathways_by_genes")
	idx := value.Ix(0, 0)

	b.Run("indexproj", func(b *testing.B) {
		ip, err := lineage.NewIndexProj(env.Store, env.GK)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ip.LineageMultiRun(env.GKRuns, trace.WorkflowProc, "paths_per_gene", idx, focus); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		ni := lineage.NewNaive(env.Store)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ni.LineageMultiRun(env.GKRuns, trace.WorkflowProc, "paths_per_gene", idx, focus); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4ParallelMultiRun measures the parallel multi-run executor
// (worker pool + batched store probes) against the sequential per-run
// baseline on the Fig. 4 workload, across parallelism levels. The plan is
// compiled once outside the timer; only the probe phase (t2) is measured.
func BenchmarkFig4ParallelMultiRun(b *testing.B) {
	env, err := bench.PopulateGKPD(20)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	for _, q := range []struct {
		name  string
		wf    *workflow.Workflow
		runs  []string
		port  string
		idx   value.Index
		focus lineage.Focus
	}{
		{"GK_focused", env.GK, env.GKRuns, "paths_per_gene",
			value.Ix(0, 0), lineage.NewFocus("get_pathways_by_genes")},
		{"PD_unfocused", env.PD, env.PDRuns, "discovered_proteins",
			value.Ix(0), bench.AllProcs(env.PD)},
	} {
		ip, err := lineage.NewIndexProj(env.Store, q.wf)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := ip.Compile(trace.WorkflowProc, q.port, q.idx, q.focus)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name+"/sequential", func(b *testing.B) {
			opt := lineage.MultiRunOptions{Parallelism: 1, BatchSize: 1}
			for i := 0; i < b.N; i++ {
				if _, err := ip.ExecuteMultiRun(context.Background(), plan, q.runs, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/parallel_p%d", q.name, p), func(b *testing.B) {
				opt := lineage.MultiRunOptions{Parallelism: p}
				for i := 0; i < b.N; i++ {
					if _, err := ip.ExecuteMultiRun(context.Background(), plan, q.runs, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConcurrentQueries measures throughput of independent single-run
// queries issued concurrently from many goroutines against one shared
// IndexProj (plan cache) and store, via the testing harness's RunParallel.
func BenchmarkConcurrentQueries(b *testing.B) {
	env, err := bench.PopulateGKPD(8)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	ip, err := lineage.NewIndexProj(env.Store, env.GK)
	if err != nil {
		b.Fatal(err)
	}
	focus := lineage.NewFocus("get_pathways_by_genes")
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			run := env.GKRuns[int(seq.Add(1))%len(env.GKRuns)]
			if _, err := ip.Lineage(run, trace.WorkflowProc, "paths_per_gene", value.Ix(0, 0), focus); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6DBSize measures the NI single-run query of Fig. 6 against a
// database holding 10 accumulated runs (l=75, d=50; ~200k records).
func BenchmarkFig6DBSize(b *testing.B) {
	env, err := bench.PopulateTestbed(75, 50, 10)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	total, err := env.Store.TotalRecords("")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(total), "records")
	focus := bench.FocusedSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.NaiveQuery(env.RunIDs[0], focus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ListSize measures the NI query of Fig. 7 across list sizes.
func BenchmarkFig7ListSize(b *testing.B) {
	for _, d := range []int{10, 75} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			env, err := bench.PopulateTestbed(75, d, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			focus := bench.FocusedSet()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.NaiveQuery(env.RunIDs[0], focus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Preprocess measures t1 of Fig. 8: depth propagation plus plan
// compilation on the bare specification graph.
func BenchmarkFig8Preprocess(b *testing.B) {
	for _, l := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			wf := gen.Testbed(l)
			focus := bench.FocusedSet()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ip, err := lineage.NewIndexProj(nil, wf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ip.Compile(gen.FinalName, "product", value.Ix(0, 0), focus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Strategies measures the three strategies of Fig. 9 on one
// configuration (l=75): NI, INDEXPROJ focused, INDEXPROJ unfocused.
func BenchmarkFig9Strategies(b *testing.B) {
	for _, d := range []int{10, 150} {
		env, err := bench.PopulateTestbed(75, d, 1)
		if err != nil {
			b.Fatal(err)
		}
		runID := env.RunIDs[0]
		ip, err := lineage.NewIndexProj(env.Store, env.WF)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%d/naive", d), func(b *testing.B) {
			focus := bench.FocusedSet()
			for i := 0; i < b.N; i++ {
				if err := env.NaiveQuery(runID, focus); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/indexproj_focused", d), func(b *testing.B) {
			focus := bench.FocusedSet()
			for i := 0; i < b.N; i++ {
				if _, err := ip.Lineage(runID, gen.FinalName, "product", env.QueryIndex(), focus); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/indexproj_unfocused", d), func(b *testing.B) {
			focus := env.UnfocusedSet()
			for i := 0; i < b.N; i++ {
				if _, err := ip.Lineage(runID, gen.FinalName, "product", env.QueryIndex(), focus); err != nil {
					b.Fatal(err)
				}
			}
		})
		env.Close()
	}
}

// BenchmarkFig10FocusShare measures INDEXPROJ as the focus set grows towards
// 50% of the processors (Fig. 10).
func BenchmarkFig10FocusShare(b *testing.B) {
	env, err := bench.PopulateTestbed(75, 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	ip, err := lineage.NewIndexProj(env.Store, env.WF)
	if err != nil {
		b.Fatal(err)
	}
	total := env.WF.NumNodes()
	runID := env.RunIDs[0]
	for _, pct := range []int{1, 10, 25, 50} {
		k := total * pct / 100
		if k < 1 {
			k = 1
		}
		focus := env.PartialFocus(k)
		b.Run(fmt.Sprintf("focus=%dpct", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ip.Lineage(runID, gen.FinalName, "product", env.QueryIndex(), focus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// obsOverheadQuery is the fig4 GK focused query used to price the obs
// instrumentation: one representative hot path through plan cache, probe
// execution and store counters.
func obsOverheadQuery(env *bench.GKPDEnv, ip *lineage.IndexProj) error {
	_, err := ip.Lineage(env.GKRuns[0], trace.WorkflowProc, "paths_per_gene",
		value.Ix(0, 0), lineage.NewFocus("get_pathways_by_genes"))
	return err
}

// BenchmarkObsOverhead runs the fig4 GK focused query with metrics disabled
// and enabled. The two sub-benchmark results are the overhead budget check:
// enabled must stay within a few percent of disabled.
func BenchmarkObsOverhead(b *testing.B) {
	env, err := bench.PopulateGKPD(5)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	ip, err := lineage.NewIndexProj(env.Store, env.GK)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := obs.Enabled()
			obs.SetEnabled(mode.enabled)
			defer obs.SetEnabled(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := obsOverheadQuery(env, ip); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestObsOverheadBudget asserts the ≤5% enabled-path budget on the fig4 GK
// focused query. Wall-clock ratios are noisy on shared runners, so the
// assertion only fires when OBS_OVERHEAD_ASSERT=1 (set in the CI smoke
// step); otherwise the measured ratio is logged and the test passes.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement needs repeated timed rounds")
	}
	env, err := bench.PopulateGKPD(5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ip, err := lineage.NewIndexProj(env.Store, env.GK)
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	// Interleaved best-of rounds: alternating the modes within each round
	// cancels machine-wide drift (thermal, noisy neighbours) that a
	// back-to-back A-then-B measurement would fold into the ratio.
	const rounds, iters = 12, 40
	measure := func(enabled bool) time.Duration {
		obs.SetEnabled(enabled)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := obsOverheadQuery(env, ip); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	measure(true) // warm plan cache and store paths before timing
	bestOff, bestOn := time.Duration(0), time.Duration(0)
	for r := 0; r < rounds; r++ {
		if off := measure(false); bestOff == 0 || off < bestOff {
			bestOff = off
		}
		if on := measure(true); bestOn == 0 || on < bestOn {
			bestOn = on
		}
	}
	ratio := float64(bestOn) / float64(bestOff)
	t.Logf("obs overhead: disabled=%v enabled=%v ratio=%.3f (budget 1.05)", bestOff, bestOn, ratio)
	// Absolute slack absorbs quantization on very fast queries: 150µs per
	// measured block of `iters` queries is a few ns per query.
	budget := time.Duration(float64(bestOff)*1.05) + 150*time.Microsecond
	if bestOn > budget {
		msg := fmt.Sprintf("obs enabled path exceeds budget: disabled=%v enabled=%v budget=%v", bestOff, bestOn, budget)
		if os.Getenv("OBS_OVERHEAD_ASSERT") == "1" {
			t.Fatal(msg)
		}
		t.Log(msg + " (not asserted; set OBS_OVERHEAD_ASSERT=1)")
	}
}

// repostore aliases the store type for the benchmark's mode table.
type repostore = store.Store

// BenchmarkIngest measures bulk trace ingestion on a small testbed
// workload: the same pre-generated traces loaded with a flush after every
// event (BatchRows 1), in default-size batches, and through the concurrent
// ingest executor (the modes of the `ingest` experiment, results/ingest.csv).
func BenchmarkIngest(b *testing.B) {
	traces, err := bench.GenerateTestbedTraces(10, 25, 4)
	if err != nil {
		b.Fatal(err)
	}
	var records int
	for _, tc := range []struct {
		name string
		load func(*repostore, []*trace.Trace) error
	}{
		{"batch_rows_1", func(st *repostore, ts []*trace.Trace) error {
			return st.IngestTraces(context.Background(), ts, store.IngestOptions{Parallelism: 1, BatchRows: 1})
		}},
		{"batched", func(st *repostore, ts []*trace.Trace) error {
			return st.IngestTraces(context.Background(), ts, store.IngestOptions{Parallelism: 1})
		}},
		{"batched_parallel_4", func(st *repostore, ts []*trace.Trace) error {
			return st.IngestTraces(context.Background(), ts, store.IngestOptions{Parallelism: 4})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.OpenMemory()
				if err != nil {
					b.Fatal(err)
				}
				if err := tc.load(st, traces); err != nil {
					b.Fatal(err)
				}
				if records == 0 {
					if records, err = st.TotalRecords(""); err != nil {
						b.Fatal(err)
					}
				}
				st.Close()
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// probeSink keeps the benchmarked probe's result alive.
var probeSink int

// benchStoreProbe times the store seam of the paper's headline cell: the one
// trace probe and the one value fetch a cached-plan focused INDEXPROJ query
// on the testbed issues (Q(LISTGEN_1, size, []) and its value), through the
// given reader over a warm memory store.
func benchStoreProbe(b *testing.B, open func(*store.Store) (store.LineageQuerier, func())) {
	env, err := bench.PopulateTestbed(75, 50, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	q, done := open(env.Store)
	defer done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := env.RunIDs[i%len(env.RunIDs)]
		bs, err := q.InputBindings(run, gen.ListGenName, "size", value.Index{})
		if err != nil || len(bs) != 1 {
			b.Fatalf("probe: %d bindings, err %v", len(bs), err)
		}
		v, err := q.Value(run, bs[0].ValID)
		if err != nil {
			b.Fatal(err)
		}
		probeSink += len(bs) + v.Depth()
	}
}

// BenchmarkStoreProbeLive probes the live store (latest committed version).
func BenchmarkStoreProbeLive(b *testing.B) {
	benchStoreProbe(b, func(s *store.Store) (store.LineageQuerier, func()) { return s, func() {} })
}

// BenchmarkStoreProbeView probes through one pinned View.
func BenchmarkStoreProbeView(b *testing.B) {
	benchStoreProbe(b, func(s *store.Store) (store.LineageQuerier, func()) {
		v, err := s.View()
		if err != nil {
			b.Fatal(err)
		}
		return v, func() { v.Close() }
	})
}

// valueSink keeps the benchmarked value's element alive.
var valueSink value.Value

// listPayload is the stored form of a d-element list like the testbed's.
func listPayload(d int) string {
	elems := make([]string, d)
	for i := range elems {
		elems[i] = fmt.Sprintf("item-%d", i)
	}
	return value.Encode(value.Strs(elems...))
}

// BenchmarkValueDecode times the full decode of a d-element stored list:
// what any accessor other than At costs, once, on a payload-backed list.
func BenchmarkValueDecode(b *testing.B) {
	for _, d := range []int{10, 50, 150} {
		payload := listPayload(d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := value.Decode(payload)
				if err != nil {
					b.Fatal(err)
				}
				valueSink = v
			}
		})
	}
}

// BenchmarkValueElement times what one returned binding pays for its
// element: eager Decode + At against DecodeStored + At on the payload.
func BenchmarkValueElement(b *testing.B) {
	for _, d := range []int{10, 50, 150} {
		payload := listPayload(d)
		for _, mode := range []struct {
			name   string
			decode func(string) (value.Value, error)
		}{{"eager", value.Decode}, {"payload", value.DecodeStored}} {
			b.Run(fmt.Sprintf("d=%d/%s", d, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				path := value.Ix(0)
				for i := 0; i < b.N; i++ {
					path[0] = i % d
					v, err := mode.decode(payload)
					if err != nil {
						b.Fatal(err)
					}
					if valueSink, err = v.At(path); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
