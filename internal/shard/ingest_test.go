package shard

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// StoreTrace on a replicated store writes the run to every replica of its
// shard at once: each replica reconstructs the same trace and counts the
// same records, with no checkpoint in between. Storing the run again fails
// with ErrDuplicateRun and leaves every copy in place.
func TestShardedStoreTraceReplicated(t *testing.T) {
	sh, err := OpenMemoryReplicated(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	traces := testbedTraces(t, 4, 4, 4)
	for _, tr := range traces {
		if err := sh.StoreTrace(tr); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for _, tr := range traces {
			rs := sh.replicaSets[sh.ring.owner(tr.RunID)]
			want, err := rs.reps[0].st.LoadTrace(tr.RunID)
			if err != nil {
				t.Fatalf("%s: primary: %v", when, err)
			}
			in0, out0, xf0, err := rs.reps[0].st.RecordCounts(tr.RunID)
			if err != nil || in0+out0+xf0 == 0 {
				t.Fatalf("%s: primary holds %d records of %s (err %v)", when, in0+out0+xf0, tr.RunID, err)
			}
			for j, rep := range rs.reps[1:] {
				got, err := rep.st.LoadTrace(tr.RunID)
				if err != nil {
					t.Fatalf("%s: replica %d: %v", when, j+1, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: replica %d reconstructs a different trace of %s", when, j+1, tr.RunID)
				}
				in, out, xf, err := rep.st.RecordCounts(tr.RunID)
				if err != nil || in != in0 || out != out0 || xf != xf0 {
					t.Fatalf("%s: replica %d counts (%d,%d,%d), primary (%d,%d,%d) (err %v)",
						when, j+1, in, out, xf, in0, out0, xf0, err)
				}
			}
		}
	}
	check("after StoreTrace")
	if err := sh.StoreTrace(traces[0]); !errors.Is(err, store.ErrDuplicateRun) {
		t.Fatalf("second StoreTrace of %s = %v, want ErrDuplicateRun", traces[0].RunID, err)
	}
	check("after a duplicate StoreTrace")
}

// A panicking Emit in a replicated ingest is confined to its worker: Ingest
// returns an error carrying the panic and its stack, the run is rolled back
// on every replica, and the store keeps ingesting.
func TestReplicatedIngestPanicCarriesStack(t *testing.T) {
	sh, err := OpenMemoryReplicated(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	traces := testbedTraces(t, 3, 3, 2)
	for _, p := range []int{1, 4} {
		tasks := store.TraceIngestTasks(traces)
		tasks[0].Emit = func(c trace.Collector) error {
			if err := c.Xform(traces[0].Xforms[0]); err != nil {
				return err
			}
			panic("boom: injected task panic")
		}
		err := sh.Ingest(context.Background(), tasks[:1], store.IngestOptions{Parallelism: p, BatchRows: 1})
		if err == nil || !strings.Contains(err.Error(), "boom: injected task panic") || !strings.Contains(err.Error(), "goroutine ") {
			t.Fatalf("P=%d: Ingest with a panicking Emit = %v, want an error carrying the panic and its stack", p, err)
		}
		for j, rep := range sh.replicaSets[0].reps {
			if ok, err := rep.st.HasRun(traces[0].RunID); err != nil || ok {
				t.Fatalf("P=%d: replica %d still holds the panicked run (err %v)", p, j, err)
			}
		}
	}
	if err := sh.IngestTraces(context.Background(), traces, store.IngestOptions{}); err != nil {
		t.Fatalf("ingest after a panicked one: %v", err)
	}
}
