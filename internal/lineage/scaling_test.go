package lineage

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// testbedEnv stores nRuns deterministic runs of the l-stage testbed over
// d-element lists in a memory store, which the caller closes.
func testbedEnv(t *testing.T, l, d, nRuns int) (*store.Store, *workflow.Workflow, []string) {
	t.Helper()
	wf := gen.Testbed(l)
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	eng := engine.New(reg)
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := eng.RunTrace(wf, "", gen.TestbedInputs(d))
	if err != nil {
		t.Fatal(err)
	}
	// The runs are deterministic: one trace, bulk-loaded under n run IDs.
	runs := make([]string, nRuns)
	traces := make([]*trace.Trace, nRuns)
	for r := range runs {
		runs[r] = fmt.Sprintf("c%03d", r)
		copied := *tr
		copied.RunID = runs[r]
		traces[r] = &copied
	}
	if err := s.IngestTraces(context.Background(), traces, store.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	return s, wf, runs
}

// perBinding runs query a few times on a warm store and returns the heap
// bytes and allocations it cost per binding its probes returned (the count
// every executor keeps in lineage.indexproj.bindings).
func perBinding(t *testing.T, query func() (*Result, error)) (bytes, allocs float64) {
	t.Helper()
	if _, err := query(); err != nil { // warms the plan cache
		t.Fatal(err)
	}
	const rounds = 20
	var before, after runtime.MemStats
	counted := obs.Default.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := query(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(obs.Default.Snapshot().Sub(counted).Counter("lineage.indexproj.bindings"))
	if n == 0 {
		t.Fatal("the executor counted no bindings")
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestMaterializeCostFlatInListSize is the paper's Fig. 7/9 claim as a guard:
// an answer shows one element per binding, so what a binding costs must not
// grow with the size d of the collections the bindings point into.
func TestMaterializeCostFlatInListSize(t *testing.T) {
	const l = 6
	type cost struct {
		bytes, allocs float64
		probes        int64 // store probes of one query
	}
	measure := func(d int) (single, multi cost) {
		s, wf, runs := testbedEnv(t, l, d, 8)
		defer s.Close()
		ip, err := NewIndexProj(s, wf)
		if err != nil {
			t.Fatal(err)
		}
		focus := NewFocus()
		for _, p := range wf.Processors {
			focus[p.Name] = true
		}
		idx := value.Ix(d/2, d/2)
		for _, m := range []struct {
			c     *cost
			query func() (*Result, error)
		}{
			{&single, func() (*Result, error) { return ip.Lineage(runs[0], gen.FinalName, "product", idx, focus) }},
			{&multi, func() (*Result, error) {
				return ip.LineageMultiRunParallel(context.Background(), runs, gen.FinalName, "product", idx, focus,
					MultiRunOptions{Parallelism: 2})
			}},
		} {
			m.c.bytes, m.c.allocs = perBinding(t, m.query)
			before := store.QueryCount()
			if _, err := m.query(); err != nil {
				t.Fatal(err)
			}
			m.c.probes = store.QueryCount() - before
		}
		return single, multi
	}
	smallSingle, smallMulti := measure(10)
	largeSingle, largeMulti := measure(100)
	for _, c := range []struct {
		name         string
		small, large cost
	}{{"single-run", smallSingle, largeSingle}, {"8-run parallel", smallMulti, largeMulti}} {
		t.Logf("%s: per binding %.0f B / %.1f allocs at d=10, %.0f B / %.1f allocs at d=100",
			c.name, c.small.bytes, c.small.allocs, c.large.bytes, c.large.allocs)
		// The cross product's d bindings per input all name one element:
		// materialize fetches a value once per entry, not once per binding.
		if c.large.probes != c.small.probes {
			t.Errorf("%s: %d store probes at d=100, %d at d=10: duplicate bindings are being fetched",
				c.name, c.large.probes, c.small.probes)
		}
		if c.large.bytes > 1.25*c.small.bytes || c.large.allocs > 1.25*c.small.allocs {
			t.Errorf("%s: a binding costs %.0f B / %.1f allocs at d=100 against %.0f B / %.1f at d=10: more than 1.25x",
				c.name, c.large.bytes, c.large.allocs, c.small.bytes, c.small.allocs)
		}
	}
}

// TestFocusedPointAllocBudget pins the paper's headline cell — a cached-plan
// focused query: one probe, one atom value — to the allocations it cost
// before values became payload-backed. The materialize stage sits on this
// path and must not add to it.
func TestFocusedPointAllocBudget(t *testing.T) {
	s, wf, runs := testbedEnv(t, 8, 6, 1)
	defer s.Close()
	ip, err := NewIndexProj(s, wf)
	if err != nil {
		t.Fatal(err)
	}
	focus := NewFocus(gen.ListGenName)
	idx := value.Ix(2, 3)
	query := func() {
		res, err := ip.Lineage(runs[0], gen.FinalName, "product", idx, focus)
		if err != nil || res.Len() != 1 {
			t.Fatalf("focused query: %v, %v", res, err)
		}
	}
	query()
	const budget = 9 // the parent commit's count
	if n := testing.AllocsPerRun(200, query); n > budget {
		t.Errorf("focused point query: %v allocations, budget %d", n, budget)
	}
}
