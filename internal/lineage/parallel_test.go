package lineage

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
)

// This file tests the parallel multi-run executor: its results must be
// indistinguishable from the sequential per-run execution for every
// parallelism level and batch size (DESIGN.md §3b, property 6), and the
// executor must be free of data races when queries overlap on a shared
// IndexProj and store.

// multiRunEnv builds a random workflow, executes it several times with
// distinct inputs, and returns the evaluator plus the run IDs.
type multiRunEnv struct {
	s      *store.Store
	ip     *IndexProj
	runs   []string
	qs     []multiRunQuery
	focus  []string
	closed bool
}

type multiRunQuery struct {
	proc, port string
	idx        value.Index
}

func buildMultiRunEnv(t *testing.T, rng *rand.Rand, trial, nRuns int) *multiRunEnv {
	t.Helper()
	reg := propertyRegistry()
	w := buildRandomWorkflow(rng, fmt.Sprintf("par%d", trial), 3+rng.Intn(8), true)
	if err := w.Validate(); err != nil {
		t.Fatalf("trial %d: generated invalid workflow: %v", trial, err)
	}
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	env := &multiRunEnv{s: s}
	qSeen := map[string]bool{}
	procSet := map[string]bool{}
	for r := 0; r < nRuns; r++ {
		runID := fmt.Sprintf("run%d", r)
		inputs := map[string]value.Value{}
		for _, in := range w.Inputs {
			inputs[in.Name] = randomInput(rng, in.DeclaredDepth, fmt.Sprintf("r%d.%s", r, in.Name), false)
		}
		_, tr, err := engine.New(reg).RunTrace(w, runID, inputs)
		if err != nil {
			t.Fatalf("trial %d: engine: %v", trial, err)
		}
		if err := s.StoreTrace(tr); err != nil {
			t.Fatal(err)
		}
		env.runs = append(env.runs, runID)
		// Query bindings recorded in any run are fair game for all runs: runs
		// have different inputs, so indices present in one run may be absent
		// or coarser in another — exactly what the batched granularity
		// fallback must handle per run.
		for _, ev := range tr.Xforms {
			procSet[ev.Proc] = true
			for _, out := range ev.Outputs {
				key := out.Proc + ":" + out.Port + out.Index.String()
				if !qSeen[key] {
					qSeen[key] = true
					env.qs = append(env.qs, multiRunQuery{out.Proc, out.Port, out.Index})
				}
			}
		}
		for _, ev := range tr.Xfers {
			if ev.To.Proc == trace.WorkflowProc {
				key := ev.To.Proc + ":" + ev.To.Port + ev.To.Index.String()
				if !qSeen[key] {
					qSeen[key] = true
					env.qs = append(env.qs, multiRunQuery{ev.To.Proc, ev.To.Port, ev.To.Index})
				}
			}
		}
	}
	for p := range procSet {
		env.focus = append(env.focus, p)
	}
	ip, err := NewIndexProj(s, w)
	if err != nil {
		t.Fatal(err)
	}
	env.ip = ip
	return env
}

func (e *multiRunEnv) Close() {
	if !e.closed {
		e.closed = true
		e.s.Close()
	}
}

// TestParallelEquivalenceRandom is the parallel-execution invariance
// property: for random workflows, run sets, queries and focus sets, the
// parallel executor returns exactly the sequential multi-run answer at every
// parallelism level and batch size.
func TestParallelEquivalenceRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized property test")
	}
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		env := buildMultiRunEnv(t, rng, trial, 2+rng.Intn(5))
		if len(env.qs) == 0 {
			env.Close()
			continue
		}
		for probe := 0; probe < 4; probe++ {
			q := env.qs[rng.Intn(len(env.qs))]
			focus := NewFocus()
			for _, p := range env.focus {
				if rng.Intn(3) == 0 {
					focus[p] = true
				}
			}
			// Sometimes query a subset of the runs, in shuffled order.
			runs := append([]string(nil), env.runs...)
			rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
			runs = runs[:1+rng.Intn(len(runs))]

			want, err := env.ip.LineageMultiRun(runs, q.proc, q.port, q.idx, focus)
			if err != nil {
				t.Fatalf("trial %d: sequential: %v", trial, err)
			}
			for _, par := range []int{1, 2, 4} {
				for _, batch := range []int{1, 2, 5} {
					opt := MultiRunOptions{Parallelism: par, BatchSize: batch}
					got, err := env.ip.LineageMultiRunParallel(context.Background(), runs, q.proc, q.port, q.idx, focus, opt)
					if err != nil {
						t.Fatalf("trial %d (P=%d batch=%d): %v", trial, par, batch, err)
					}
					if !got.Equal(want) {
						t.Fatalf("trial %d (P=%d batch=%d): parallel %v != sequential %v\nquery %s:%s%v focus %v",
							trial, par, batch, got, want, q.proc, q.port, q.idx, focus.Names())
					}
				}
			}
			// Default options (largest batch) too.
			got, err := env.ip.LineageMultiRunParallel(context.Background(), runs, q.proc, q.port, q.idx, focus, MultiRunOptions{Parallelism: 4})
			if err != nil {
				t.Fatalf("trial %d (defaults): %v", trial, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (defaults): parallel %v != sequential %v", trial, got, want)
			}
		}
		env.Close()
	}
}

// TestParallelExecutorConcurrent issues overlapping multi-run and single-run
// queries from many goroutines against one shared IndexProj and store. Under
// -race this fails if the plan cache, the batched store read path, or the
// executor's result merging race.
func TestParallelExecutorConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	env := buildMultiRunEnv(t, rng, 0, 4)
	defer env.Close()
	if len(env.qs) == 0 {
		t.Skip("random workflow produced no queries")
	}

	// Precompute per-query expected answers sequentially.
	type job struct {
		q     multiRunQuery
		focus Focus
		want  *Result
	}
	jobs := make([]job, 0, 6)
	for i := 0; i < 6 && i < len(env.qs); i++ {
		q := env.qs[i]
		focus := NewFocus()
		for j, p := range env.focus {
			if (i+j)%2 == 0 {
				focus[p] = true
			}
		}
		want, err := env.ip.LineageMultiRun(env.runs, q.proc, q.port, q.idx, focus)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{q: q, focus: focus, want: want})
	}

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := jobs[(g+i)%len(jobs)]
				if i%3 == 0 {
					// Single-run queries exercise the shared plan cache.
					run := env.runs[(g+i)%len(env.runs)]
					if _, err := env.ip.Lineage(run, j.q.proc, j.q.port, j.q.idx, j.focus); err != nil {
						errCh <- err
						return
					}
					continue
				}
				opt := MultiRunOptions{Parallelism: 1 + (g+i)%4, BatchSize: 1 + (g+i)%3}
				got, err := env.ip.LineageMultiRunParallel(context.Background(), env.runs, j.q.proc, j.q.port, j.q.idx, j.focus, opt)
				if err != nil {
					errCh <- err
					return
				}
				if !got.Equal(j.want) {
					errCh <- fmt.Errorf("goroutine %d iter %d: concurrent result diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPlanCacheConcurrentCompile hammers the plan cache with distinct and
// identical shapes from many goroutines: the read-mostly cache must neither
// race nor grow beyond one template per shape, racing compilations of one
// shape must all come away with the single winning template, and every
// goroutine's instantiated plan must equal a sequential compilation's.
func TestPlanCacheConcurrentCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := buildMultiRunEnv(t, rng, 1, 1)
	defer env.Close()
	if len(env.qs) == 0 {
		t.Skip("random workflow produced no queries")
	}
	focus := NewFocus(env.focus...)
	const goroutines, calls = 8, 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	tmpls := make([][]*CompiledPlan, goroutines)
	plans := make([][]*CompiledPlan, goroutines)
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < calls; i++ {
				q := env.qs[i%len(env.qs)]
				tmpl, err := env.ip.template(q.proc, q.port, len(q.idx))
				if err != nil {
					t.Error(err)
					return
				}
				plan, err := env.ip.Compile(q.proc, q.port, q.idx, focus)
				if err != nil {
					t.Error(err)
					return
				}
				tmpls[g] = append(tmpls[g], tmpl)
				plans[g] = append(plans[g], plan)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	shapes := map[string]*CompiledPlan{}
	for g := range tmpls {
		for i, tmpl := range tmpls[g] {
			q := env.qs[i%len(env.qs)]
			l, _ := env.ip.bound(q.proc, q.port)
			key := planKey(q.proc, q.port, min(len(q.idx), l))
			if won, ok := shapes[key]; ok && won != tmpl {
				t.Fatalf("goroutine %d got a different template instance for query %d", g, i)
			}
			shapes[key] = tmpl
		}
	}
	if cs := env.ip.CacheSize(); cs != len(shapes) {
		t.Errorf("plan cache holds %d entries for %d distinct shapes", cs, len(shapes))
	}
	for i := 0; i < calls; i++ {
		q := env.qs[i%len(env.qs)]
		want, err := env.ip.Compile(q.proc, q.port, q.idx, focus)
		if err != nil {
			t.Fatal(err)
		}
		for g := range plans {
			if !reflect.DeepEqual(plans[g][i], want) {
				t.Fatalf("goroutine %d query %d: plan %v, want %v", g, i, plans[g][i].Probes, want.Probes)
			}
		}
	}
}

// TestMultiRunOptionsNormalize pins the defaulting rules of the executor
// options.
func TestMultiRunOptionsNormalize(t *testing.T) {
	for _, tc := range []struct {
		in       MultiRunOptions
		par, bat int
	}{
		{MultiRunOptions{}, 1, DefaultBatchSize},
		{MultiRunOptions{Parallelism: -3, BatchSize: -1}, 1, 1},
		{MultiRunOptions{Parallelism: 4, BatchSize: 2}, 4, 2},
		{MultiRunOptions{Parallelism: 0, BatchSize: 7}, 1, 7},
	} {
		got := tc.in.normalize()
		if got.Parallelism != tc.par || got.BatchSize != tc.bat {
			t.Errorf("normalize(%+v) = %+v, want P=%d batch=%d", tc.in, got, tc.par, tc.bat)
		}
	}
}

// TestChunkRuns pins the run partitioner.
func TestChunkRuns(t *testing.T) {
	runs := []string{"a", "b", "c", "d", "e"}
	chunks := chunkRuns(runs, 2)
	if len(chunks) != 3 || len(chunks[0]) != 2 || len(chunks[2]) != 1 {
		t.Errorf("chunkRuns(5, 2) = %v", chunks)
	}
	if got := chunkRuns(nil, 3); got != nil {
		t.Errorf("chunkRuns(nil) = %v", got)
	}
	if got := chunkRuns(runs, 10); len(got) != 1 || len(got[0]) != 5 {
		t.Errorf("chunkRuns(5, 10) = %v", got)
	}
}

// TestExecuteMultiRunNoStore: an evaluator compiled without a store must
// refuse multi-run execution cleanly instead of panicking.
func TestExecuteMultiRunNoStore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := buildRandomWorkflow(rng, "nostore", 3, false)
	ip, err := NewIndexProj(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	plan := &CompiledPlan{Probes: []Probe{{Proc: "p00", Port: "x0", Index: value.EmptyIndex}}}
	if _, err := ip.ExecuteMultiRun(context.Background(), plan, []string{"r1", "r2"}, MultiRunOptions{Parallelism: 2}); err == nil {
		t.Fatal("expected an error from ExecuteMultiRun without a store")
	}
}
