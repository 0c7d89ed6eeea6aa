package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/reldb"
	"repro/internal/trace"
	"repro/internal/value"
)

// Guards at the seam between the store and the engine: the run-set cache,
// what a pinned View may touch, what a probe may allocate, and that probes
// through one View run in parallel.

// A run is visible to HasRun from the moment the writer call that registered
// it returns, and stays so. The lost invalidation this pins down: a reader
// that listed the runs before the writer's insert and cached the set after
// the writer's invalidation left a stale set in place, and every later
// multi-run query naming the new run failed with ErrUnknownRun. The store is
// made large so that a listing is long and one is in flight at most inserts;
// the writer then keeps asking until every listing begun before its insert
// has had time to finish.
func TestHasRunSeesRegisteredRun(t *testing.T) {
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	register := func(runID string) {
		t.Helper()
		w, err := s.NewRunWriter(context.Background(), runID, "wf", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		register(fmt.Sprintf("old-%04d", i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ { // readers re-list after every invalidation
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := s.HasRun("some-other-run"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 60 && !t.Failed(); i++ {
		runID := fmt.Sprintf("new-%04d", i)
		register(runID)
		// Long enough for a few listings: any begun before the insert is done.
		for until := time.Now().Add(3 * time.Millisecond); time.Now().Before(until); {
			if ok, err := s.HasRun(runID); err != nil || !ok {
				t.Errorf("HasRun(%q) = %v, %v after NewRunWriter returned", runID, ok, err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
}

// Nothing a View does depends on state past its epoch. ValuesBatch sizes its
// cross-run scan by the number of stored runs; taken from the live store,
// that number made a pinned view change its probe strategy as the store grew
// (and re-count the runs table after every tail-ingest registration).
func TestViewValuesBatchIgnoresLaterRuns(t *testing.T) {
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runs := storeColRuns(t, s, 2)
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var refs []ValueRef
	for _, run := range runs {
		bs, err := v.InputBindings(run, "P", "X1", value.Index{})
		if err != nil || len(bs) < 2 {
			t.Fatalf("fixture: %d bindings, err %v", len(bs), err)
		}
		for _, b := range bs {
			refs = append(refs, ValueRef{RunID: run, ValID: b.ValID})
		}
	}
	batch := func() (map[ValueRef]value.Value, int64) {
		t.Helper()
		before := QueryCount()
		vals, err := v.ValuesBatch(refs)
		if err != nil {
			t.Fatal(err)
		}
		return vals, QueryCount() - before
	}
	want, probes := batch()
	if probes != 1 {
		t.Fatalf("two runs sharing a tight value window took %d probes, want 1 cross-run scan", probes)
	}
	for i := 0; i < 200; i++ { // the live store grows past the cross-run scan's budget
		w, err := s.NewRunWriter(context.Background(), fmt.Sprintf("later-%03d", i), "fig3", 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	got, after := batch()
	if after != probes || !sameValues(got, want) {
		t.Fatalf("pinned view took %d probes before the store grew, %d after (same answer: %v)",
			probes, after, sameValues(got, want))
	}
	if ok, _ := v.HasRun("later-000"); ok {
		t.Fatal("pinned view sees a run registered after its epoch")
	}
}

// One trace probe plus one value fetch — the whole store cost of the paper's
// focused query — is a handful of allocations: the key, the parsed index,
// the result slice, the decoded value. (Through database/sql it was over 30 per
// call.)
func TestProbeAllocationBudget(t *testing.T) {
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := storeColRuns(t, s, 1)[0]
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for name, q := range map[string]LineageQuerier{"live": s, "view": v} {
		allocs := testing.AllocsPerRun(200, func() {
			bs, err := q.InputBindings(run, "P", "X1", value.Index{1})
			if err != nil || len(bs) == 0 {
				t.Fatalf("%s: %d bindings, err %v", name, len(bs), err)
			}
			if _, err := q.Value(run, bs[0].ValID); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 12 {
			t.Errorf("%s: InputBindings + Value allocate %v times, budget 12", name, allocs)
		}
	}
}

// Probes through one View run in parallel: a View is a pinned snapshot, not
// a transaction to queue on. N goroutines each start a scan through the same
// View and park inside it, mid-row, until all N are in flight at once — which
// could never happen if anything serialized them. While they are parked a
// writer commits; released, every goroutine still sees the pinned epoch only.
func TestViewProbesOverlapWhileWriterCommits(t *testing.T) {
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runs := storeColRuns(t, s, 3)
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	pinnedIn, _, _, err := v.RecordCounts("")
	if err != nil {
		t.Fatal(err)
	}
	port, err := v.InputBindings(runs[0], "P", "X1", value.Index{})
	if err != nil || len(port) < 2 {
		t.Fatalf("fixture: %d bindings, err %v", len(port), err)
	}

	const n = 4
	var inFlight atomic.Int32
	allIn, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		go func() {
			parked, rows := false, 0
			vals := []reldb.Datum{reldb.S(runs[g%len(runs)]), reldb.S("P"), reldb.S("X1"), reldb.S("")}
			err := v.engine().scan(s.scans.insPrefix, vals, func(reldb.Row) error {
				if rows++; !parked {
					parked = true
					if inFlight.Add(1) == n {
						close(allIn)
					}
					<-release
				}
				return nil
			})
			if err == nil && rows != len(port) {
				err = fmt.Errorf("scan saw %d rows of a %d-row port", rows, len(port))
			}
			if in, _, _, cerr := v.RecordCounts(""); err == nil && (cerr != nil || in != pinnedIn) {
				err = fmt.Errorf("pinned view counts %d xform_in rows after the commit, %d before (err %v)", in, pinnedIn, cerr)
			}
			if bs, berr := v.InputBindings("colrun-late", "P", "X1", value.Index{}); err == nil && (berr != nil || len(bs) != 0) {
				err = fmt.Errorf("pinned view sees %d bindings of a later run (err %v)", len(bs), berr)
			}
			errs <- err
		}()
	}
	select {
	case <-allIn:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d of %d scans through one View got in flight together", inFlight.Load(), n)
	}
	// Every reader is mid-scan; a writer commits regardless.
	w, reg := colFixtureWorkflow()
	_, late, err := engine.New(reg).RunTrace(w, "colrun-late", map[string]value.Value{
		"v": value.Strs("a", "b", "c"), "w": value.Str("w"), "c": value.Strs("k"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// BatchRows 1: the writer commits after every event while the readers
	// are parked.
	if err := s.IngestTraces(context.Background(), []*trace.Trace{late}, IngestOptions{BatchRows: 1}); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() == v.Epoch() {
		t.Fatal("the writer committed nothing")
	}
	close(release)
	for g := 0; g < n; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// sameValues compares two ValuesBatch answers value by value (stored lists
// are payload-backed, so they are compared with value.Equal, not reflection).
func sameValues(a, b map[ValueRef]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for ref, v := range a {
		if w, ok := b[ref]; !ok || !value.Equal(v, w) || value.Encode(v) != value.Encode(w) {
			return false
		}
	}
	return true
}
