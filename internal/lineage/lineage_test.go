package lineage

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

func testRegistry() *engine.Registry {
	r := engine.NewRegistry()
	r.Register("upper", func(args []value.Value) ([]value.Value, error) {
		s, _ := args[0].StringVal()
		return []value.Value{value.Str(strings.ToUpper(s))}, nil
	})
	r.Register("tolist", func(args []value.Value) ([]value.Value, error) {
		s, _ := args[0].StringVal()
		return []value.Value{value.Strs(s+"1", s+"2")}, nil
	})
	r.Register("combine", func(args []value.Value) ([]value.Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = value.Encode(a)
		}
		return []value.Value{value.Str(strings.Join(parts, "+"))}, nil
	})
	r.Register("flatten", func(args []value.Value) ([]value.Value, error) {
		f, err := value.Flatten(args[0])
		if err != nil {
			return nil, err
		}
		return []value.Value{f}, nil
	})
	r.Register("id", func(args []value.Value) ([]value.Value, error) {
		return []value.Value{args[0]}, nil
	})
	return r
}

// fig3 is the paper's abstract workflow (Fig. 3).
func fig3() *workflow.Workflow {
	w := workflow.New("fig3")
	w.AddInput("v", 1).AddInput("w", 0).AddInput("c", 1)
	w.AddOutput("y", 2)
	w.AddProcessor("Q", "upper", []workflow.Port{workflow.In("X", 0)}, []workflow.Port{workflow.Out("Y", 0)})
	w.AddProcessor("R", "tolist", []workflow.Port{workflow.In("X", 0)}, []workflow.Port{workflow.Out("Y", 1)})
	w.AddProcessor("P", "combine",
		[]workflow.Port{workflow.In("X1", 0), workflow.In("X2", 1), workflow.In("X3", 0)},
		[]workflow.Port{workflow.Out("Y", 0)})
	w.Connect("", "v", "Q", "X")
	w.Connect("", "w", "R", "X")
	w.Connect("", "c", "P", "X2")
	w.Connect("Q", "Y", "P", "X1")
	w.Connect("R", "Y", "P", "X3")
	w.Connect("P", "Y", "", "y")
	return w
}

// setup runs a workflow, stores the trace, and returns everything a lineage
// test needs.
func setup(t *testing.T, w *workflow.Workflow, runID string, inputs map[string]value.Value) (*store.Store, *trace.Trace, *Naive, *IndexProj) {
	t.Helper()
	e := engine.New(testRegistry())
	_, tr, err := e.RunTrace(w, runID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.StoreTrace(tr); err != nil {
		t.Fatal(err)
	}
	ip, err := NewIndexProj(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return s, tr, NewNaive(s), ip
}

func fig3Inputs() map[string]value.Value {
	return map[string]value.Value{
		"v": value.Strs("a", "b", "c"),
		"w": value.Str("w"),
		"c": value.Strs("k"),
	}
}

// TestPaperWorkedExample reproduces the computation in §2.4:
// lin(⟨P:Y[h,l]⟩, {Q,R}) = {⟨Q:X[h]⟩, ⟨R:X[]⟩}.
func TestPaperWorkedExample(t *testing.T) {
	_, tr, ni, ip := setup(t, fig3(), "r1", fig3Inputs())
	focus := NewFocus("Q", "R")
	for h := 0; h < 3; h++ {
		for l := 0; l < 2; l++ {
			want := []string{
				fmt.Sprintf("<Q:X[%d]>@r1", h),
				"<R:X[]>@r1",
			}
			got, err := ni.Lineage("r1", "P", "Y", value.Ix(h, l), focus)
			if err != nil {
				t.Fatal(err)
			}
			if keys := got.Keys(); !equalStrings(keys, want) {
				t.Errorf("NI lin(P:Y[%d,%d]) = %v, want %v", h, l, keys, want)
			}
			got2, err := ip.Lineage("r1", "P", "Y", value.Ix(h, l), focus)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(got2) {
				t.Errorf("INDEXPROJ differs from NI at [%d,%d]: %v vs %v", h, l, got2, got)
			}
			mem, err := NewNaiveMem(tr).Lineage("P", "Y", value.Ix(h, l), focus)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(mem) {
				t.Errorf("NaiveMem differs from NI at [%d,%d]: %v vs %v", h, l, mem, got)
			}
		}
	}
}

// TestPaperCoarseExample reproduces the second computation in §2.4:
// lin(⟨P:Y[]⟩, {Q,R}) = {⟨Q:X[]⟩, ⟨R:X[]⟩} — here the coarse query returns
// every element-level binding of the focus inputs.
func TestPaperCoarseExample(t *testing.T) {
	_, _, ni, ip := setup(t, fig3(), "r1", fig3Inputs())
	focus := NewFocus("Q", "R")
	got, err := ni.Lineage("r1", "P", "Y", value.EmptyIndex, focus)
	if err != nil {
		t.Fatal(err)
	}
	// Fine-grained traces record Q:X element-wise, so the whole-value query
	// yields all three Q:X elements plus R:X.
	want := []string{"<Q:X[0]>@r1", "<Q:X[1]>@r1", "<Q:X[2]>@r1", "<R:X[]>@r1"}
	if keys := got.Keys(); !equalStrings(keys, want) {
		t.Errorf("coarse NI = %v, want %v", keys, want)
	}
	got2, err := ip.Lineage("r1", "P", "Y", value.EmptyIndex, focus)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(got2) {
		t.Errorf("INDEXPROJ coarse = %v, want %v", got2, got)
	}
}

func TestLineageFromWorkflowOutput(t *testing.T) {
	_, _, ni, ip := setup(t, fig3(), "r1", fig3Inputs())
	focus := NewFocus("Q")
	got, err := ni.Lineage("r1", trace.WorkflowProc, "y", value.Ix(2, 1), focus)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<Q:X[2]>@r1"}
	if keys := got.Keys(); !equalStrings(keys, want) {
		t.Errorf("NI from workflow output = %v, want %v", keys, want)
	}
	got2, err := ip.Lineage("r1", trace.WorkflowProc, "y", value.Ix(2, 1), focus)
	if err != nil || !got.Equal(got2) {
		t.Errorf("INDEXPROJ from workflow output = %v (err %v), want %v", got2, err, got)
	}
}

func TestFocusedSubsetOfUnfocused(t *testing.T) {
	// Focusing on fewer processors returns a subset of the entries.
	_, _, ni, _ := setup(t, fig3(), "r1", fig3Inputs())
	small, err := ni.Lineage("r1", "P", "Y", value.Ix(0, 0), NewFocus("Q"))
	if err != nil {
		t.Fatal(err)
	}
	big, err := ni.Lineage("r1", "P", "Y", value.Ix(0, 0), NewFocus("Q", "R", "P"))
	if err != nil {
		t.Fatal(err)
	}
	if small.Len() >= big.Len() {
		t.Errorf("focused result not smaller: %d vs %d", small.Len(), big.Len())
	}
	bigKeys := map[string]bool{}
	for _, k := range big.Keys() {
		bigKeys[k] = true
	}
	for _, k := range small.Keys() {
		if !bigKeys[k] {
			t.Errorf("focused entry %s missing from unfocused result", k)
		}
	}
}

func TestEmptyFocus(t *testing.T) {
	_, _, ni, ip := setup(t, fig3(), "r1", fig3Inputs())
	got, err := ni.Lineage("r1", "P", "Y", value.Ix(0, 0), NewFocus())
	if err != nil || got.Len() != 0 {
		t.Errorf("empty focus NI = %v, %v", got, err)
	}
	got, err = ip.Lineage("r1", "P", "Y", value.Ix(0, 0), NewFocus())
	if err != nil || got.Len() != 0 {
		t.Errorf("empty focus INDEXPROJ = %v, %v", got, err)
	}
}

func TestGranularityLossThroughFlatten(t *testing.T) {
	// A flatten (list-to-list black box) destroys granularity: everything
	// downstream depends on the whole upstream collection.
	w := workflow.New("gl")
	w.AddInput("lists", 2)
	w.AddOutput("out", 1)
	w.AddProcessor("gen", "tolist", []workflow.Port{workflow.In("s", 0)}, []workflow.Port{workflow.Out("l", 1)})
	w.AddProcessor("fl", "flatten", []workflow.Port{workflow.In("in", 2)}, []workflow.Port{workflow.Out("out", 1)})
	w.AddProcessor("map", "upper", []workflow.Port{workflow.In("s", 0)}, []workflow.Port{workflow.Out("r", 0)})
	w.AddInput("seed", 0)
	_ = w
	w.Connect("", "lists", "fl", "in")
	w.Connect("fl", "out", "map", "s")
	w.Connect("map", "r", "", "out")
	// gen is disconnected from the main path: give it the seed input.
	w.Connect("", "seed", "gen", "s")

	inputs := map[string]value.Value{
		"lists": value.List(value.Strs("a", "b"), value.Strs("c")),
		"seed":  value.Str("x"),
	}
	_, _, ni, ip := setup(t, w, "r1", inputs)
	focus := NewFocus("fl")
	got, err := ni.Lineage("r1", "map", "r", value.Ix(1), focus)
	if err != nil {
		t.Fatal(err)
	}
	// The only available granularity at fl is the whole input collection.
	want := []string{"<fl:in[]>@r1"}
	if keys := got.Keys(); !equalStrings(keys, want) {
		t.Errorf("NI through flatten = %v, want %v", keys, want)
	}
	got2, err := ip.Lineage("r1", "map", "r", value.Ix(1), focus)
	if err != nil || !got.Equal(got2) {
		t.Errorf("INDEXPROJ through flatten = %v (err %v)", got2, err)
	}
}

func TestMultiRun(t *testing.T) {
	w := fig3()
	e := engine.New(testRegistry())
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var runIDs []string
	for r := 0; r < 4; r++ {
		runID := fmt.Sprintf("run%d", r)
		runIDs = append(runIDs, runID)
		inputs := map[string]value.Value{
			"v": value.Strs(fmt.Sprintf("a%d", r), fmt.Sprintf("b%d", r)),
			"w": value.Str(fmt.Sprintf("w%d", r)),
			"c": value.Strs("k"),
		}
		_, tr, err := e.RunTrace(w, runID, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.StoreTrace(tr); err != nil {
			t.Fatal(err)
		}
	}
	ni := NewNaive(s)
	ip, err := NewIndexProj(s, w)
	if err != nil {
		t.Fatal(err)
	}
	focus := NewFocus("Q")
	a, err := ni.LineageMultiRun(runIDs, "P", "Y", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ip.LineageMultiRun(runIDs, "P", "Y", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("multi-run NI %v != INDEXPROJ %v", a, b)
	}
	if a.Len() != 4 {
		t.Errorf("multi-run entries = %d, want 4 (one per run)", a.Len())
	}
	// The plan is compiled once and shared across runs.
	if ip.CacheSize() != 1 {
		t.Errorf("plan cache size = %d, want 1", ip.CacheSize())
	}
	// Per-run results stay scoped.
	one, err := ip.Lineage("run2", "P", "Y", value.Ix(1, 0), focus)
	if err != nil || one.Len() != 1 {
		t.Fatalf("single-run result = %v, %v", one, err)
	}
	if one.Entries()[0].RunID != "run2" {
		t.Errorf("entry run = %s", one.Entries()[0].RunID)
	}
}

func TestPlanCachingAndProbeCount(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	focus := NewFocus("Q", "R")
	plan, err := ip.Compile("P", "Y", value.Ix(0, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	// Probes: Q:X and R:X (plus none for P, which is unfocused).
	if len(plan.Probes) != 2 {
		t.Errorf("probes = %v", plan.Probes)
	}
	again, err := ip.Compile("P", "Y", value.Ix(0, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Errorf("recompiled plan %v, want %v", again.Probes, plan.Probes)
	}
	// A different index of the same shape instantiates the cached template
	// with its own index values.
	other, err := ip.Compile("P", "Y", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Probes) != 2 || reflect.DeepEqual(other.Probes, plan.Probes) {
		t.Errorf("distinct indices of one shape: %v and %v", plan.Probes, other.Probes)
	}
	if ip.CacheSize() != 1 {
		t.Errorf("cache size = %d, want 1 (one shape)", ip.CacheSize())
	}
	// A different |q| is a different shape.
	if _, err := ip.Compile("P", "Y", value.Ix(1), focus); err != nil {
		t.Fatal(err)
	}
	if ip.CacheSize() != 2 {
		t.Errorf("cache size = %d, want 2", ip.CacheSize())
	}
}

func TestQueryCountsFocusedVsNaive(t *testing.T) {
	// The core efficiency claim: INDEXPROJ's trace-query count depends on
	// the focus size, NI's on the traversal size.
	w := workflow.New("chain")
	w.AddInput("in", 1)
	w.AddOutput("out", 1)
	const L = 20
	prev := ""
	prevPort := "in"
	for i := 0; i < L; i++ {
		name := fmt.Sprintf("s%02d", i)
		w.AddProcessor(name, "upper", []workflow.Port{workflow.In("x", 0)}, []workflow.Port{workflow.Out("y", 0)})
		w.Connect(prev, prevPort, name, "x")
		prev, prevPort = name, "y"
	}
	w.Connect(prev, prevPort, "", "out")
	inputs := map[string]value.Value{"in": value.Strs("a", "b", "c", "d")}
	_, _, ni, ip := setup(t, w, "r1", inputs)
	focus := NewFocus("s00")

	store.ResetQueryCount()
	ra, err := ni.Lineage("r1", trace.WorkflowProc, "out", value.Ix(2), focus)
	if err != nil {
		t.Fatal(err)
	}
	niQueries := store.ResetQueryCount()

	rb, err := ip.Lineage("r1", trace.WorkflowProc, "out", value.Ix(2), focus)
	if err != nil {
		t.Fatal(err)
	}
	ipQueries := store.ResetQueryCount()

	if !ra.Equal(rb) {
		t.Fatalf("results differ: %v vs %v", ra, rb)
	}
	if ra.Len() != 1 {
		t.Errorf("result = %v", ra)
	}
	if niQueries < int64(L) {
		t.Errorf("NI issued %d queries, expected at least %d (one per hop)", niQueries, L)
	}
	if ipQueries > 4 {
		t.Errorf("INDEXPROJ issued %d queries for a single focus processor", ipQueries)
	}
}

func TestCompositeLineage(t *testing.T) {
	sub := workflow.New("inner")
	sub.AddInput("a", 0)
	sub.AddOutput("b", 1)
	sub.AddProcessor("mk", "tolist", []workflow.Port{workflow.In("x", 0)}, []workflow.Port{workflow.Out("y", 1)})
	sub.AddProcessor("up", "upper", []workflow.Port{workflow.In("s", 0)}, []workflow.Port{workflow.Out("r", 0)})
	sub.Connect("", "a", "mk", "x")
	sub.Connect("mk", "y", "up", "s")
	sub.Connect("up", "r", "", "b")

	w := workflow.New("outer")
	w.AddInput("in", 1)
	w.AddOutput("out", 2)
	w.AddComposite("comp", sub)
	w.AddProcessor("pre", "upper", []workflow.Port{workflow.In("x", 0)}, []workflow.Port{workflow.Out("y", 0)})
	w.Connect("", "in", "pre", "x")
	w.Connect("pre", "y", "comp", "a")
	w.Connect("comp", "b", "", "out")

	inputs := map[string]value.Value{"in": value.Strs("a", "b")}
	_, tr, ni, ip := setup(t, w, "r1", inputs)

	// Focus on the composite itself (black-box view).
	focus := NewFocus("comp")
	a, err := ni.Lineage("r1", trace.WorkflowProc, "out", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ip.Lineage("r1", trace.WorkflowProc, "out", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("composite black-box: NI %v != INDEXPROJ %v", a, b)
	}
	if want := []string{"<comp:a[1]>@r1"}; !equalStrings(a.Keys(), want) {
		t.Errorf("composite black-box = %v, want %v", a.Keys(), want)
	}

	// Focus inside the composite.
	focus = NewFocus("comp/up")
	a, err = ni.Lineage("r1", trace.WorkflowProc, "out", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ip.Lineage("r1", trace.WorkflowProc, "out", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("composite inner focus: NI %v != INDEXPROJ %v", a, b)
	}
	if a.Len() == 0 {
		t.Error("inner focus returned nothing")
	}
	mem, err := NewNaiveMem(tr).Lineage(trace.WorkflowProc, "out", value.Ix(1, 0), focus)
	if err != nil || !a.Equal(mem) {
		t.Errorf("NaiveMem composite = %v (err %v), want %v", mem, err, a)
	}

	// Upstream focus through the composite.
	focus = NewFocus("pre")
	a, err = ni.Lineage("r1", trace.WorkflowProc, "out", value.Ix(0, 1), focus)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ip.Lineage("r1", trace.WorkflowProc, "out", value.Ix(0, 1), focus)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("upstream of composite: NI %v != INDEXPROJ %v", a, b)
	}
	if want := []string{"<pre:x[0]>@r1"}; !equalStrings(a.Keys(), want) {
		t.Errorf("upstream of composite = %v, want %v", a.Keys(), want)
	}

	// A query starting inside the composite.
	focus = NewFocus("comp/mk")
	a, err = ni.Lineage("r1", "comp/up", "r", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	b, err = ip.Lineage("r1", "comp/up", "r", value.Ix(1, 0), focus)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("start inside composite: NI %v != INDEXPROJ %v", a, b)
	}
}

func TestDotLineage(t *testing.T) {
	w := workflow.New("dotwf")
	w.AddInput("a", 1).AddInput("b", 1)
	w.AddOutput("out", 1)
	w.AddProcessor("pa", "upper", []workflow.Port{workflow.In("x", 0)}, []workflow.Port{workflow.Out("y", 0)})
	w.AddProcessor("pb", "upper", []workflow.Port{workflow.In("x", 0)}, []workflow.Port{workflow.Out("y", 0)})
	zip := w.AddProcessor("zip", "combine",
		[]workflow.Port{workflow.In("l", 0), workflow.In("r", 0)},
		[]workflow.Port{workflow.Out("o", 0)})
	zip.Dot = true
	w.Connect("", "a", "pa", "x")
	w.Connect("", "b", "pb", "x")
	w.Connect("pa", "y", "zip", "l")
	w.Connect("pb", "y", "zip", "r")
	w.Connect("zip", "o", "", "out")

	inputs := map[string]value.Value{
		"a": value.Strs("a0", "a1", "a2"),
		"b": value.Strs("b0", "b1", "b2"),
	}
	_, tr, ni, ip := setup(t, w, "r1", inputs)
	focus := NewFocus("pa", "pb")
	a, err := ni.Lineage("r1", trace.WorkflowProc, "out", value.Ix(1), focus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ip.Lineage("r1", trace.WorkflowProc, "out", value.Ix(1), focus)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("dot lineage: NI %v != INDEXPROJ %v", a, b)
	}
	// Element 1 of the zip depends only on element 1 of each branch.
	want := []string{"<pa:x[1]>@r1", "<pb:x[1]>@r1"}
	if keys := a.Keys(); !equalStrings(keys, want) {
		t.Errorf("dot lineage = %v, want %v", keys, want)
	}
	mem, err := NewNaiveMem(tr).Lineage(trace.WorkflowProc, "out", value.Ix(1), focus)
	if err != nil || !a.Equal(mem) {
		t.Errorf("NaiveMem dot = %v (err %v)", mem, err)
	}
}

func TestResultOps(t *testing.T) {
	r := NewResult()
	e := Entry{RunID: "r", Proc: "P", Port: "X", Index: value.Ix(1), Value: value.Strs("a", "b")}
	r.Add(e)
	r.Add(e) // idempotent
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	el, err := r.Entries()[0].Element()
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := el.StringVal(); s != "b" {
		t.Errorf("Element = %s", el)
	}
	o := NewResult()
	o.Add(Entry{RunID: "r", Proc: "P", Port: "X", Index: value.Ix(2), Value: value.Strs("a", "b", "c")})
	r.Merge(o)
	if r.Len() != 2 {
		t.Errorf("after merge Len = %d", r.Len())
	}
	if r.Equal(o) {
		t.Error("unequal results reported equal")
	}
	if !strings.Contains(r.String(), "<P:X[1]>@r") {
		t.Errorf("String = %s", r.String())
	}
}

func TestCompileErrors(t *testing.T) {
	_, _, _, ip := setup(t, fig3(), "r1", fig3Inputs())
	if _, err := ip.Compile("nosuch", "Y", value.EmptyIndex, NewFocus()); err == nil {
		t.Error("unknown processor accepted")
	}
	if _, err := ip.Compile("P", "nosuch", value.EmptyIndex, NewFocus()); err == nil {
		t.Error("unknown port accepted")
	}
	if _, err := ip.Compile(trace.WorkflowProc, "nosuch", value.EmptyIndex, NewFocus()); err == nil {
		t.Error("unknown workflow port accepted")
	}
	if _, err := ip.Compile("P/inner", "x", value.EmptyIndex, NewFocus()); err == nil {
		t.Error("descent through non-composite accepted")
	}
	// Querying a workflow input is legal and empty.
	plan, err := ip.Compile(trace.WorkflowProc, "v", value.EmptyIndex, NewFocus("Q"))
	if err != nil || len(plan.Probes) != 0 {
		t.Errorf("workflow-input query = %v, %v", plan, err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCombinatorExpressionLineage(t *testing.T) {
	// (g ⊗ w) ⊙ m: genes cross weights, and a matrix of modifiers zips
	// against the resulting 2-deep index space — footnote 7's "complex
	// expressions". Both algorithms must agree on fine-grained lineage.
	w := workflow.New("comb")
	w.AddInput("g", 1).AddInput("wt", 1).AddInput("m", 2)
	w.AddOutput("out", 2)
	p := w.AddProcessor("mix", "combine",
		[]workflow.Port{workflow.In("a", 0), workflow.In("b", 0), workflow.In("c", 0)},
		[]workflow.Port{workflow.Out("r", 0)})
	p.Iter = workflow.IterDot(
		workflow.IterCross(workflow.IterLeaf("a"), workflow.IterLeaf("b")),
		workflow.IterLeaf("c"),
	)
	w.Connect("", "g", "mix", "a")
	w.Connect("", "wt", "mix", "b")
	w.Connect("", "m", "mix", "c")
	w.Connect("mix", "r", "", "out")

	inputs := map[string]value.Value{
		"g":  value.Strs("g0", "g1"),
		"wt": value.Strs("w0", "w1", "w2"),
		"m": value.List(
			value.Strs("m00", "m01", "m02"),
			value.Strs("m10", "m11", "m12"),
		),
	}
	_, tr, ni, ip := setup(t, w, "r1", inputs)
	focus := NewFocus("mix")
	for _, q := range []value.Index{value.Ix(1, 2), value.Ix(0, 0), value.Ix(1), value.EmptyIndex} {
		a, err := ni.Lineage("r1", trace.WorkflowProc, "out", q, focus)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ip.Lineage("r1", trace.WorkflowProc, "out", q, focus)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("combinator lineage at %v: NI %v != INDEXPROJ %v", q, a, b)
		}
	}
	// Element [1,2] depends on g[1], wt[2], and the zipped m[1,2].
	res, err := ip.Lineage("r1", trace.WorkflowProc, "out", value.Ix(1, 2), focus)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<mix:a[1]>@r1", "<mix:b[2]>@r1", "<mix:c[1,2]>@r1"}
	if keys := res.Keys(); !equalStrings(keys, want) {
		t.Errorf("combinator lineage = %v, want %v", keys, want)
	}
	// The in-memory reference agrees too.
	mem, err := NewNaiveMem(tr).Lineage(trace.WorkflowProc, "out", value.Ix(1, 2), focus)
	if err != nil || !res.Equal(mem) {
		t.Errorf("NaiveMem combinator = %v (err %v)", mem, err)
	}
}
