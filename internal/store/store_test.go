package store

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

func TestIdxKeyRoundTrip(t *testing.T) {
	cases := []value.Index{
		{}, value.Ix(0), value.Ix(1, 2, 3), value.Ix(999999), value.Ix(0, 0, 0),
	}
	for _, p := range cases {
		key, err := IdxKey(p)
		if err != nil {
			t.Fatalf("IdxKey(%v): %v", p, err)
		}
		back, err := ParseIdxKey(key)
		if err != nil || !back.Equal(p) {
			t.Errorf("round trip %v -> %q -> %v (%v)", p, key, back, err)
		}
	}
	if _, err := IdxKey(value.Ix(1000000)); err == nil {
		t.Error("overflowing component accepted")
	}
	if _, err := IdxKey(value.Index{-1}); err == nil {
		t.Error("negative component accepted")
	}
	for _, bad := range []string{"123", "000001x", "00000a."} {
		if _, err := ParseIdxKey(bad); err == nil {
			t.Errorf("ParseIdxKey(%q) accepted", bad)
		}
	}
}

func TestIdxKeyPrefixProperty(t *testing.T) {
	// String prefix relationships must coincide with index prefix
	// relationships — the property the LIKE queries rely on.
	f := func(rawA, rawB []uint8) bool {
		a := make(value.Index, len(rawA)%5)
		for i := range a {
			a[i] = int(rawA[i]) % 50
		}
		b := make(value.Index, len(rawB)%5)
		for i := range b {
			b[i] = int(rawB[i]) % 50
		}
		ka, kb := MustIdxKey(a), MustIdxKey(b)
		strPrefix := len(ka) <= len(kb) && kb[:len(ka)] == ka
		return strPrefix == b.HasPrefix(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// fig3Trace runs the Fig. 3 workflow and returns its definition and trace
// under the given run ID.
func fig3Trace(t *testing.T, runID string) (*workflow.Workflow, *trace.Trace) {
	t.Helper()
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

	reg := engine.NewRegistry()
	reg.Register("upper", func(args []value.Value) ([]value.Value, error) {
		s, _ := args[0].StringVal()
		return []value.Value{value.Str("U" + s)}, nil
	})
	reg.Register("tolist", func(args []value.Value) ([]value.Value, error) {
		s, _ := args[0].StringVal()
		return []value.Value{value.Strs(s+"a", s+"b")}, nil
	})
	reg.Register("combine", func(args []value.Value) ([]value.Value, error) {
		return []value.Value{value.Str(value.Encode(args[0]) + "+" + value.Encode(args[2]))}, nil
	})
	e := engine.New(reg)
	_, tr, err := e.RunTrace(w, runID, map[string]value.Value{
		"v": value.Strs("a", "b", "c"),
		"w": value.Str("w"),
		"c": value.Strs("k"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, tr
}

// storeFig3 runs the Fig. 3 workflow and persists its trace.
func storeFig3(t *testing.T) (*Store, *trace.Trace) {
	t.Helper()
	_, tr := fig3Trace(t, "run1")
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.StoreTrace(tr); err != nil {
		t.Fatal(err)
	}
	return s, tr
}

func TestStoreTraceAndCounts(t *testing.T) {
	s, tr := storeFig3(t)
	in, out, xf, err := s.RecordCounts("run1")
	if err != nil {
		t.Fatal(err)
	}
	if xf != len(tr.Xfers) {
		t.Errorf("xfer rows = %d, want %d", xf, len(tr.Xfers))
	}
	wantIn, wantOut := 0, 0
	for _, ev := range tr.Xforms {
		wantIn += len(ev.Inputs)
		wantOut += len(ev.Outputs)
	}
	if in != wantIn || out != wantOut {
		t.Errorf("xform rows = %d/%d, want %d/%d", in, out, wantIn, wantOut)
	}
	total, err := s.TotalRecords("run1")
	if err != nil || total != tr.NumRecords() {
		t.Errorf("TotalRecords = %d, want %d (%v)", total, tr.NumRecords(), err)
	}
	runs, err := s.ListRuns()
	if err != nil || len(runs) != 1 || runs[0].RunID != "run1" || runs[0].Workflow != "fig3" {
		t.Errorf("ListRuns = %v, %v", runs, err)
	}
	ids, err := s.RunsOf("fig3")
	if err != nil || len(ids) != 1 {
		t.Errorf("RunsOf = %v, %v", ids, err)
	}
	if ids, _ := s.RunsOf("nosuch"); len(ids) != 0 {
		t.Errorf("RunsOf(nosuch) = %v", ids)
	}
}

func TestDuplicateRunRejected(t *testing.T) {
	s, _ := storeFig3(t)
	if _, err := s.NewRunWriter(context.Background(), "run1", "fig3", 0); !errors.Is(err, ErrDuplicateRun) {
		t.Error("duplicate run accepted")
	}
}

// Of several writers registering one run ID at once, exactly one wins; the
// others fail with ErrDuplicateRun, and the run is listed once.
func TestConcurrentRegistrationOneWinner(t *testing.T) {
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, trials = 8, 200
	for trial := 0; trial < trials; trial++ {
		runID := fmt.Sprintf("race-%03d", trial)
		start := make(chan struct{})
		errs := make(chan error, writers)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				w, err := s.NewRunWriter(context.Background(), runID, "wf", 0)
				if err == nil {
					err = w.Close()
				}
				errs <- err
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		won := 0
		for err := range errs {
			if err == nil {
				won++
			} else if !errors.Is(err, ErrDuplicateRun) {
				t.Fatalf("trial %d: registration failed with %v, want ErrDuplicateRun", trial, err)
			}
		}
		if won != 1 {
			t.Fatalf("trial %d: %d of %d writers registered %q, want exactly 1", trial, won, writers, runID)
		}
	}
	runs, err := s.ListRuns()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range runs {
		seen[r.RunID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("ListRuns lists %q %d times", id, n)
		}
	}
	if len(seen) != trials {
		t.Errorf("ListRuns lists %d runs, want %d", len(seen), trials)
	}
}

func TestXformsByOutputExactAndFiner(t *testing.T) {
	s, _ := storeFig3(t)
	// Exact: P:Y[1,0] is one activation.
	evs, err := s.XformsByOutput("run1", "P", "Y", value.Ix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("exact match = %d events", len(evs))
	}
	ev := evs[0]
	if len(ev.Inputs) != 3 {
		t.Fatalf("inputs = %d", len(ev.Inputs))
	}
	if !ev.Inputs[0].Index.Equal(value.Ix(1)) || !ev.Inputs[1].Index.Equal(value.EmptyIndex) || !ev.Inputs[2].Index.Equal(value.Ix(0)) {
		t.Errorf("input indices = %v %v %v", ev.Inputs[0].Index, ev.Inputs[1].Index, ev.Inputs[2].Index)
	}
	// Coarse query [1] matches the two activations with q extending [1].
	evs, err = s.XformsByOutput("run1", "P", "Y", value.Ix(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Errorf("prefix match = %d events, want 2", len(evs))
	}
	// Whole-value query [] matches all six activations.
	evs, err = s.XformsByOutput("run1", "P", "Y", value.EmptyIndex)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 {
		t.Errorf("whole-value match = %d events, want 6", len(evs))
	}
}

func TestXformsByOutputCoarserFallback(t *testing.T) {
	s, _ := storeFig3(t)
	// R records a single coarse event (R:Y[]); querying a finer index must
	// fall back to it.
	evs, err := s.XformsByOutput("run1", "R", "Y", value.Ix(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || !evs[0].Output.Index.Equal(value.EmptyIndex) {
		t.Fatalf("coarser fallback = %v", evs)
	}
	// Unknown port yields nothing.
	evs, err = s.XformsByOutput("run1", "R", "nosuch", value.Ix(1))
	if err != nil || len(evs) != 0 {
		t.Errorf("unknown port = %v, %v", evs, err)
	}
}

func TestInputBindings(t *testing.T) {
	s, _ := storeFig3(t)
	// Exact.
	bs, err := s.InputBindings("run1", "Q", "X", value.Ix(2))
	if err != nil || len(bs) != 1 {
		t.Fatalf("exact input bindings = %v, %v", bs, err)
	}
	v, err := s.Value("run1", bs[0].ValID)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(v, value.Strs("a", "b", "c")) {
		t.Errorf("bound value = %s", v)
	}
	// Coarse query returns all three.
	bs, err = s.InputBindings("run1", "Q", "X", value.EmptyIndex)
	if err != nil || len(bs) != 3 {
		t.Fatalf("coarse input bindings = %d, %v", len(bs), err)
	}
	// Finer-than-recorded falls back to the coarse binding.
	bs, err = s.InputBindings("run1", "P", "X2", value.Ix(0))
	if err != nil || len(bs) == 0 {
		t.Fatalf("fallback input bindings = %v, %v", bs, err)
	}
	if !bs[0].Index.Equal(value.EmptyIndex) {
		t.Errorf("fallback index = %v", bs[0].Index)
	}
}

func TestXfersTo(t *testing.T) {
	s, _ := storeFig3(t)
	xs, err := s.XfersTo("run1", "P", "X1")
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 1 || xs[0].From.Proc != "Q" || xs[0].From.Port != "Y" {
		t.Fatalf("XfersTo = %v", xs)
	}
	// Workflow output sink.
	xs, err = s.XfersTo("run1", trace.WorkflowProc, "y")
	if err != nil || len(xs) != 1 || xs[0].From.Proc != "P" {
		t.Fatalf("workflow output xfer = %v, %v", xs, err)
	}
	// Nothing flows into workflow inputs.
	xs, err = s.XfersTo("run1", trace.WorkflowProc, "v")
	if err != nil || len(xs) != 0 {
		t.Errorf("workflow input xfer = %v, %v", xs, err)
	}
}

func TestValueErrors(t *testing.T) {
	s, _ := storeFig3(t)
	if _, err := s.Value("run1", 99999); err == nil {
		t.Error("missing value accepted")
	}
	if _, err := s.Value("norun", 0); err == nil {
		t.Error("missing run accepted")
	}
}

func TestValueDeduplication(t *testing.T) {
	s, tr := storeFig3(t)
	var n int
	if err := s.DB().QueryRow(`SELECT COUNT(*) FROM vals WHERE run_id = ?`, "run1").Scan(&n); err != nil {
		t.Fatal(err)
	}
	// Distinct port values are far fewer than bindings.
	if n >= tr.NumRecords() {
		t.Errorf("values not deduplicated: %d values for %d records", n, tr.NumRecords())
	}
	if n == 0 {
		t.Error("no values stored")
	}
}

func TestPersistAndReopen(t *testing.T) {
	s, _ := storeFig3(t)
	path := filepath.Join(t.TempDir(), "prov.db")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Open("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	total, err := back.TotalRecords("run1")
	if err != nil || total == 0 {
		t.Fatalf("reopened store has %d records, %v", total, err)
	}
	evs, err := back.XformsByOutput("run1", "P", "Y", value.Ix(0, 0))
	if err != nil || len(evs) != 1 {
		t.Fatalf("query on reopened store = %v, %v", evs, err)
	}
}

func TestMultiRunIsolation(t *testing.T) {
	s, _ := storeFig3(t)
	// A second run with different input sizes.
	w := workflow.New("fig3b")
	w.AddInput("v", 1)
	w.AddOutput("y", 1)
	w.AddProcessor("Q", "upper", []workflow.Port{workflow.In("X", 0)}, []workflow.Port{workflow.Out("Y", 0)})
	w.Connect("", "v", "Q", "X")
	w.Connect("Q", "Y", "", "y")
	reg := engine.NewRegistry()
	reg.Register("upper", func(args []value.Value) ([]value.Value, error) {
		return []value.Value{args[0]}, nil
	})
	_, tr, err := engine.New(reg).RunTrace(w, "run2", map[string]value.Value{"v": value.Strs("x", "y")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StoreTrace(tr); err != nil {
		t.Fatal(err)
	}
	// Queries stay scoped per run.
	evs, err := s.XformsByOutput("run1", "Q", "Y", value.EmptyIndex)
	if err != nil || len(evs) != 3 {
		t.Fatalf("run1 events = %d, %v", len(evs), err)
	}
	evs, err = s.XformsByOutput("run2", "Q", "Y", value.EmptyIndex)
	if err != nil || len(evs) != 2 {
		t.Fatalf("run2 events = %d, %v", len(evs), err)
	}
	total1, _ := s.TotalRecords("run1")
	totalAll, _ := s.TotalRecords("")
	if totalAll <= total1 {
		t.Errorf("all-runs total %d not greater than run1 total %d", totalAll, total1)
	}
}

func TestQueryCount(t *testing.T) {
	s, _ := storeFig3(t)
	ResetQueryCount()
	if _, err := s.InputBindings("run1", "Q", "X", value.Ix(0)); err != nil {
		t.Fatal(err)
	}
	if QueryCount() == 0 {
		t.Error("query counter not incremented")
	}
	if prev := ResetQueryCount(); prev == 0 {
		t.Error("reset returned zero")
	}
	if QueryCount() != 0 {
		t.Error("counter not reset")
	}
}

func TestLoadTraceRoundTrip(t *testing.T) {
	s, tr := storeFig3(t)
	back, err := s.LoadTrace("run1")
	if err != nil {
		t.Fatal(err)
	}
	if back.RunID != "run1" || back.Workflow != "fig3" {
		t.Errorf("metadata = %s/%s", back.RunID, back.Workflow)
	}
	if back.NumRecords() != tr.NumRecords() {
		t.Fatalf("records = %d, want %d", back.NumRecords(), tr.NumRecords())
	}
	// Compare as event sets: grouping, indices, and values all round-trip.
	want := map[string]bool{}
	for _, e := range tr.SortedXforms() {
		want["xform:"+e.String()] = true
	}
	for _, e := range tr.SortedXfers() {
		want["xfer:"+e.String()] = true
	}
	for _, e := range back.SortedXforms() {
		if !want["xform:"+e.String()] {
			t.Errorf("unexpected xform %s", e)
		}
		delete(want, "xform:"+e.String())
	}
	for _, e := range back.SortedXfers() {
		if !want["xfer:"+e.String()] {
			t.Errorf("unexpected xfer %s", e)
		}
		delete(want, "xfer:"+e.String())
	}
	for k := range want {
		t.Errorf("missing event %s", k)
	}
	// Values decode correctly and bindings resolve.
	for _, e := range back.Xforms {
		for _, b := range e.Inputs {
			if _, err := b.Element(); err != nil {
				t.Errorf("binding %s: %v", b, err)
			}
		}
	}
	// The rebuilt trace supports the in-memory reference algorithm.
	g := trace.BuildGraph(back)
	if err := g.CheckAcyclic(); err != nil {
		t.Error(err)
	}
	if _, err := s.LoadTrace("nosuch"); err == nil {
		t.Error("missing run accepted")
	}
}

func TestVerifyCleanRun(t *testing.T) {
	s, _ := storeFig3(t)
	// Structural checks only.
	rep, err := s.Verify("run1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean run reported problems: %s", rep)
	}
	if rep.Events == 0 || rep.Xfers == 0 {
		t.Errorf("report counts = %+v", rep)
	}
	// With the definition: Prop. 1 checks too.
	wf := fig3Def()
	rep, err = s.Verify("run1", wf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("Prop. 1 verification failed on clean run: %s", rep)
	}
	if !strings.Contains(rep.String(), "OK") {
		t.Errorf("report rendering: %s", rep)
	}
	if _, err := s.Verify("nosuch", nil); err == nil {
		t.Error("missing run accepted")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	s, _ := storeFig3(t)
	// Corrupt one recorded input index: point it at a wrong fragment.
	if _, err := s.DB().Exec(
		`DELETE FROM xform_in WHERE run_id = 'run1' AND proc = 'P' AND port = 'X1' AND idx = ?`,
		MustIdxKey(value.Ix(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec(
		`INSERT INTO xform_in (run_id, event_id, pos, proc, port, idx, ctx, val_id) VALUES ('run1', 999, 0, 'P', 'X1', ?, 0, 0)`,
		MustIdxKey(value.Ix(2, 7))); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify("run1", fig3Def())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupted run verified clean")
	}
	// Corrupt a stored value payload: structural check must catch it.
	s2, _ := storeFig3(t)
	if _, err := s2.DB().Exec(`DELETE FROM vals WHERE run_id = 'run1' AND val_id = 0`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.DB().Exec(`INSERT INTO vals (run_id, val_id, payload) VALUES ('run1', 0, 'not-a-value')`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Verify("run1", nil); err == nil {
		t.Error("undecodable value accepted")
	}
}

// fig3Def rebuilds the fig3 workflow definition for verification.
func fig3Def() *workflow.Workflow {
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

func TestForwardAccessors(t *testing.T) {
	s, _ := storeFig3(t)
	// Exact input match: Q consumed v[1] in one activation.
	evs, err := s.XformsByInput("run1", "Q", "X", value.Ix(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || len(evs[0].Outputs) != 1 {
		t.Fatalf("forward exact = %v", evs)
	}
	if !evs[0].Outputs[0].Index.Equal(value.Ix(1)) {
		t.Errorf("forward output index = %v", evs[0].Outputs[0].Index)
	}
	// Coarse query: all three activations.
	evs, err = s.XformsByInput("run1", "Q", "X", value.EmptyIndex)
	if err != nil || len(evs) != 3 {
		t.Fatalf("forward coarse = %d events, %v", len(evs), err)
	}
	// Finer than recorded: falls back to the coarse binding (P:X2 recorded
	// at [] only).
	evs, err = s.XformsByInput("run1", "P", "X2", value.Ix(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 {
		t.Fatalf("forward fallback = %d events, want all 6 activations", len(evs))
	}
	// Event deduplication: each event appears once even when several of its
	// inputs match.
	seen := map[int64]bool{}
	for _, ev := range evs {
		if seen[ev.EventID] {
			t.Errorf("event %d duplicated", ev.EventID)
		}
		seen[ev.EventID] = true
	}

	// XfersFrom: Q:Y feeds P:X1.
	xs, err := s.XfersFrom("run1", "Q", "Y")
	if err != nil || len(xs) != 1 || xs[0].To.Proc != "P" || xs[0].To.Port != "X1" {
		t.Fatalf("XfersFrom = %v, %v", xs, err)
	}
	// Nothing flows out of workflow outputs.
	xs, err = s.XfersFrom("run1", trace.WorkflowProc, "y")
	if err != nil || len(xs) != 0 {
		t.Errorf("XfersFrom(workflow:y) = %v, %v", xs, err)
	}
	// Bad index component.
	if _, err := s.XformsByInput("run1", "Q", "X", value.Index{-1}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestDeleteRun(t *testing.T) {
	s, tr := storeFig3(t)
	removed, err := s.DeleteRun("run1")
	if err != nil {
		t.Fatal(err)
	}
	if removed != tr.NumRecords() {
		t.Errorf("removed %d records, want %d", removed, tr.NumRecords())
	}
	if runs, _ := s.ListRuns(); len(runs) != 0 {
		t.Errorf("runs after delete = %v", runs)
	}
	if total, _ := s.TotalRecords(""); total != 0 {
		t.Errorf("records after delete = %d", total)
	}
	if _, err := s.Value("run1", 0); err == nil {
		t.Error("values survived run deletion")
	}
	if _, err := s.DeleteRun("run1"); err == nil {
		t.Error("double delete accepted")
	}
}
