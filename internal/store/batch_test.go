package store

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/value"
)

// fallbackTrace returns a run whose P:X input bindings answer the probe
// (P, X, [1 2]) at full granularity (kind 0), after one granularity-fallback
// level (kind 1), after two (kind 2), or not at all (kind 3). Every event
// also binds P:W at [1 2], which a P:X probe must never return.
func fallbackTrace(runID string, kind int) *trace.Trace {
	idxs := [][]value.Index{
		{value.Ix(1, 2), value.Ix(1, 2, 0), value.Ix(3)},
		{value.Ix(1), value.Ix(3)},
		{value.Ix()},
		{value.Ix(5)},
	}[kind]
	tr := &trace.Trace{RunID: runID, Workflow: "fallback"}
	for i, idx := range idxs {
		v := value.Str(fmt.Sprintf("%s/%d", runID, i))
		tr.Xforms = append(tr.Xforms, trace.XformEvent{
			Proc: "P",
			Inputs: []trace.Binding{
				{Proc: "P", Port: "X", Index: idx, Value: v},
				{Proc: "P", Port: "W", Index: value.Ix(1, 2), Value: v},
			},
			Outputs: []trace.Binding{{Proc: "P", Port: "Y", Index: idx, Value: v}},
		})
	}
	return tr
}

// storeFallbackRuns ingests runs run-000 … run-(n-1), run i of kind i%4.
func storeFallbackRuns(t *testing.T, s *Store, n int) []string {
	t.Helper()
	traces := make([]*trace.Trace, n)
	runs := make([]string, n)
	for i := range traces {
		runs[i] = fmt.Sprintf("run-%03d", i)
		traces[i] = fallbackTrace(runs[i], i%4)
	}
	if err := s.IngestTraces(context.Background(), traces, IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	return runs
}

// fallbackProbes are the query indices the batch tests probe P:X with.
var fallbackProbes = []value.Index{value.Ix(1, 2), value.Ix(1), value.Ix(3), value.Ix(), value.Ix(7, 7)}

// batchRowsRead runs every fallback probe as one batch over runs and returns
// the engine rows it read.
func batchRowsRead(t *testing.T, s *Store, runs []string) int64 {
	t.Helper()
	_, _, before := s.rdb.Stats()
	for _, idx := range fallbackProbes {
		if _, err := s.InputBindingsBatch(runs, "P", "X", idx); err != nil {
			t.Fatal(err)
		}
	}
	_, _, after := s.rdb.Stats()
	return after - before
}

// A batched probe reads the rows of the runs it is asked for and no others:
// four runs cost the same rows read with 4 runs stored as with 256 (the
// paper's Fig. 6 claim, on the batched path).
func TestBatchRowsReadIndependentOfStoredRuns(t *testing.T) {
	rowsRead := func(stored int) int64 {
		s, err := OpenMemory()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		runs := storeFallbackRuns(t, s, stored)
		return batchRowsRead(t, s, runs[:4])
	}
	few, many := rowsRead(4), rowsRead(256)
	if few == 0 || few != many {
		t.Fatalf("a 4-run batch read %d rows with 4 runs stored and %d with 256; want equal and non-zero", few, many)
	}
}

// checkBatchIsPerRunUnion checks that q's batched probe over asked equals
// q's per-run probes, run for run, at every fallback probe, and leaves the
// caller's slice as it was.
func checkBatchIsPerRunUnion(t *testing.T, name string, q LineageQuerier, asked []string) {
	t.Helper()
	order := slices.Clone(asked)
	for _, idx := range fallbackProbes {
		got, err := q.InputBindingsBatch(asked, "P", "X", idx)
		if err != nil {
			t.Fatalf("%s %v: %v", name, idx, err)
		}
		if !slices.Equal(asked, order) {
			t.Fatalf("%s %v: the batch reordered its argument: %v", name, idx, asked)
		}
		if len(got) != len(asked) {
			t.Fatalf("%s %v: %d entries for %d runs", name, idx, len(got), len(asked))
		}
		for _, r := range asked {
			want, err := q.InputBindings(r, "P", "X", idx)
			if err != nil {
				t.Fatal(err)
			}
			if bs, ok := got[r]; !ok || !reflect.DeepEqual(bs, want) {
				t.Fatalf("%s %v run %s: batch %v, per-run %v", name, idx, r, bs, want)
			}
		}
	}
}

// The batched probe is exactly the union of the per-run probes — on the
// live store and on a pinned View — over a run set that mixes runs answered
// at full granularity, after one and two fallback levels, not at all, and a
// run the store does not hold.
func TestBatchEqualsPerRunUnion(t *testing.T) {
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runs := storeFallbackRuns(t, s, 8)

	// The fixture covers every fallback depth for (P, X, [1 2]): the
	// answer's index length per kind, -1 for no answer.
	for i, want := range []int{2, 1, 0, -1} {
		bs, err := s.InputBindings(runs[i], "P", "X", value.Ix(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		got := -1
		if len(bs) > 0 {
			got = len(bs[0].Index)
		}
		if got != want {
			t.Fatalf("%s answers at %d index components, want %d", runs[i], got, want)
		}
	}

	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	late := fallbackTrace("run-late", 0)
	if err := s.StoreTrace(late); err != nil {
		t.Fatal(err)
	}
	asked := []string{runs[6], runs[1], late.RunID, runs[4], runs[3], "no-such-run", runs[2], runs[5]}
	checkBatchIsPerRunUnion(t, "store", s, asked)
	checkBatchIsPerRunUnion(t, "view", v, asked)
	if bs, _ := v.InputBindingsBatch(asked, "P", "X", value.Ix(1, 2)); len(bs[late.RunID]) != 0 {
		t.Fatalf("view answered a run committed after its epoch: %v", bs[late.RunID])
	}
}

// A durable store created while the schema still declared the cross-run
// xin_ppi index keeps it across reopen, and answers every probe exactly as a
// store without it does, reading the same rows: nothing plans onto it.
func TestLegacyCrossRunIndexStore(t *testing.T) {
	dsn := "durable:" + filepath.Join(t.TempDir(), "db")
	legacy, err := Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	runs := storeFallbackRuns(t, legacy, 16)
	if err := legacy.rdb.CreateIndex("xin_ppi", "xform_in", "proc", "port", "idx"); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}
	if legacy, err = Open(dsn); err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if tbl, ok := legacy.rdb.Table("xform_in"); !ok {
		t.Fatal("no xform_in table after reopen")
	} else if _, ok := tbl.FindIndex("xin_ppi"); !ok {
		t.Fatal("the legacy index did not survive reopen")
	}

	fresh, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	storeFallbackRuns(t, fresh, 16)
	// A run written after reopen: the legacy index is maintained on write.
	for _, s := range []*Store{legacy, fresh} {
		if err := s.StoreTrace(fallbackTrace("run-late", 1)); err != nil {
			t.Fatal(err)
		}
	}

	asked := append([]string{"run-late"}, runs[3:9]...)
	for _, idx := range fallbackProbes {
		got, err := legacy.InputBindingsBatch(asked, "P", "X", idx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.InputBindingsBatch(asked, "P", "X", idx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: legacy store %v, fresh store %v", idx, got, want)
		}
	}
	if l, f := batchRowsRead(t, legacy, asked), batchRowsRead(t, fresh, asked); l != f {
		t.Fatalf("legacy store read %d rows, fresh store %d", l, f)
	}
	if problems := legacy.rdb.VerifyIndexes(); len(problems) != 0 {
		t.Fatalf("legacy store indexes disagree with the heap: %v", problems)
	}
}

// A task whose Emit fails or panics after rows were flushed leaves no run
// behind: the partial run is deleted and its columnar write fence lifted, so
// a retry of the same run ID succeeds and a checkpoint builds its segment.
func TestIngestFailedTaskLeavesNoRun(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			s, err := OpenMemory()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tr := fallbackTrace("r", 0)
			failing := IngestTask{RunID: tr.RunID, Workflow: tr.Workflow, Emit: func(c trace.Collector) error {
				if err := c.Xform(tr.Xforms[0]); err != nil {
					return err
				}
				if mode == "panic" {
					panic("emit failed")
				}
				return errors.New("emit failed")
			}}
			// BatchRows 1: the first event is flushed before Emit fails.
			err = s.Ingest(context.Background(), []IngestTask{failing}, IngestOptions{BatchRows: 1})
			if err == nil || !strings.Contains(err.Error(), "emit failed") {
				t.Fatalf("ingest error %v, want the task's failure", err)
			}
			if mode == "panic" && !strings.Contains(err.Error(), "panic") {
				t.Fatalf("ingest error %v, want the panic reported", err)
			}
			if ok, err := s.HasRun(tr.RunID); err != nil || ok {
				t.Fatalf("failed run still registered (err %v)", err)
			}
			if n, err := s.TotalRecords(tr.RunID); err != nil || n != 0 {
				t.Fatalf("failed run left %d rows (err %v)", n, err)
			}

			if err := s.StoreTrace(tr); err != nil {
				t.Fatalf("retry of the failed run ID: %v", err)
			}
			s.segMu.RLock()
			open := len(s.openWriters)
			s.segMu.RUnlock()
			if open != 0 {
				t.Fatalf("%d write fences still raised after the retry", open)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.segMu.RLock()
			seg := s.segs[tr.RunID]
			s.segMu.RUnlock()
			if seg == nil {
				t.Fatal("checkpoint built no segment for the retried run")
			}
		})
	}
}
