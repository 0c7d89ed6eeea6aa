package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
)

// fallbackTrace returns a run whose P:X input bindings answer the probe
// (P, X, [1 2]) at full granularity (kind 0), after one granularity-fallback
// level (kind 1), after two (kind 2), or not at all (kind 3).
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
			Proc:    "P",
			Inputs:  []trace.Binding{{Proc: "P", Port: "X", Index: idx, Value: v}},
			Outputs: []trace.Binding{{Proc: "P", Port: "Y", Index: idx, Value: v}},
		})
	}
	return tr
}

// On a 4-shard store the scattered batched probe is exactly the union of the
// routed per-run probes, over runs that need zero, one and two granularity
// fallback levels, runs with no answer, and an unknown run.
func TestShardedBatchEqualsPerRunUnion(t *testing.T) {
	sh, err := OpenMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var traces []*trace.Trace
	var asked []string
	for i := 0; i < 16; i++ {
		tr := fallbackTrace(fmt.Sprintf("run-%03d", i), i%4)
		traces = append(traces, tr)
		if i%3 != 0 {
			asked = append(asked, tr.RunID)
		}
	}
	if err := sh.IngestTraces(context.Background(), traces, store.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	asked = append(asked, "no-such-run")
	if len(sh.PartitionRuns(asked)) < 2 {
		t.Fatalf("the asked runs land on one shard: %v", sh.PartitionRuns(asked))
	}
	for _, idx := range []value.Index{value.Ix(1, 2), value.Ix(1), value.Ix(3), value.Ix(), value.Ix(7, 7)} {
		got, err := sh.InputBindingsBatch(asked, "P", "X", idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(asked) {
			t.Fatalf("%v: %d entries for %d runs", idx, len(got), len(asked))
		}
		for _, r := range asked {
			want, err := sh.InputBindings(r, "P", "X", idx)
			if err != nil {
				t.Fatal(err)
			}
			if bs, ok := got[r]; !ok || !reflect.DeepEqual(bs, want) {
				t.Fatalf("%v run %s: batch %v, per-run %v", idx, r, bs, want)
			}
		}
	}
}
