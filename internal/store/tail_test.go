package store

import (
	"context"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// feed pushes a slice of events through a channel into TailIngest.
func feed(t *testing.T, s *Store, specs map[string]*workflow.Workflow, events []trace.Event) TailStats {
	t.Helper()
	ch := make(chan trace.Event)
	go func() {
		defer close(ch)
		for _, ev := range events {
			ch <- ev
		}
	}()
	stats, err := s.TailIngest(context.Background(), ch, TailOptions{Specs: specs})
	if err != nil {
		t.Fatalf("TailIngest: %v", err)
	}
	return stats
}

func TestTailIngestAppliesFeed(t *testing.T) {
	w, tr := fig3Trace(t, "run1")
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	events := tr.Events()
	stats := feed(t, s, map[string]*workflow.Workflow{"fig3": w}, events)
	if stats.Applied != len(events) || stats.DeadLettered != 0 {
		t.Fatalf("stats = %+v, want %d applied, 0 dead-lettered", stats, len(events))
	}
	if stats.RunsStarted != 1 || stats.RunsEnded != 1 {
		t.Fatalf("stats = %+v, want 1 run started and ended", stats)
	}

	// The streamed run must equal the batch-stored one, record for record.
	ref, _ := storeFig3(t)
	refTotal, err := ref.TotalRecords("run1")
	if err != nil {
		t.Fatal(err)
	}
	total, err := s.TotalRecords("run1")
	if err != nil || total != refTotal {
		t.Fatalf("TotalRecords = %d (%v), want %d", total, err, refTotal)
	}
	want, err := ref.XformsByOutput("run1", "P", "Y", value.Ix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.XformsByOutput("run1", "P", "Y", value.Ix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("probe after tail ingest: %d events, want %d", len(got), len(want))
	}
}

func TestTailIngestDeadLetters(t *testing.T) {
	w, tr := fig3Trace(t, "run1")
	specs := map[string]*workflow.Workflow{"fig3": w}
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	good := tr.Events()
	xf := good[1] // first xform of the valid feed
	bad := []trace.Event{
		{Kind: trace.EventXform, Seq: 0},                                                         // missing run_id
		{Kind: trace.EventRunStart, RunID: "rX", Workflow: "nosuch", Seq: 0},                     // unknown workflow
		{Kind: trace.EventXform, RunID: "orphan", Seq: 0, Xform: xf.Xform},                       // no run_start
		{Kind: trace.EventRunStart, RunID: "run1", Workflow: "fig3", Seq: 0},                     // opens run1
		{Kind: trace.EventRunStart, RunID: "run1", Workflow: "fig3", Seq: 1},                     // duplicate run_start
		{Kind: trace.EventXform, RunID: "run1", Seq: 2, Xform: xf.Xform},                         // ok
		{Kind: trace.EventXform, RunID: "run1", Seq: 2, Xform: xf.Xform},                         // out of order
		{Kind: trace.EventXform, RunID: "run1", Seq: 3},                                          // no payload
		{Kind: trace.EventKind("bogus"), RunID: "run1", Seq: 4},                                  // unknown kind
		{Kind: trace.EventXform, RunID: "run1", Seq: 5, Xform: &trace.XformEvent{Proc: "GHOST"}}, // unknown processor
		{Kind: trace.EventRunEnd, RunID: "run1", Seq: 6},                                         // ok
	}
	stats := feed(t, s, specs, bad)
	if stats.Applied != 3 {
		t.Fatalf("applied = %d, want 3 (run_start, one xform, run_end)", stats.Applied)
	}
	if stats.DeadLettered != 8 {
		t.Fatalf("dead-lettered = %d, want 8", stats.DeadLettered)
	}

	letters, err := s.ListDeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(letters) != 8 {
		t.Fatalf("DLQ holds %d letters, want 8", len(letters))
	}
	wantReasons := []string{
		"missing run_id",
		"unknown workflow",
		"no run_start",
		"duplicate run_start",
		"out of order",
		"without payload",
		"unknown event kind",
		"unknown processor",
	}
	for i, want := range wantReasons {
		if !strings.Contains(letters[i].Reason, want) {
			t.Errorf("letter %d reason = %q, want it to mention %q", i, letters[i].Reason, want)
		}
	}
	// Sequence numbers are strictly increasing (arrival order preserved).
	for i := 1; i < len(letters); i++ {
		if letters[i].Seq <= letters[i-1].Seq {
			t.Fatalf("DLQ order broken: seq %d after %d", letters[i].Seq, letters[i-1].Seq)
		}
	}

	// Re-streaming an already stored run dead-letters the whole run.
	again := feed(t, s, specs, tr.Events())
	if again.Applied != 0 {
		t.Fatalf("re-streamed stored run applied %d events", again.Applied)
	}
	letters, _ = s.ListDeadLetters()
	if !strings.Contains(letters[8].Reason, "run already stored") {
		t.Errorf("re-stream reason = %q", letters[8].Reason)
	}
}

func TestRetryDeadLetters(t *testing.T) {
	w, tr := fig3Trace(t, "run1")
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Ingest with no spec for fig3: every event dead-letters (the run_start
	// hits "unknown workflow", the rest "unknown run").
	events := tr.Events()
	stats := feed(t, s, map[string]*workflow.Workflow{}, events)
	if stats.Applied != 0 || stats.DeadLettered != len(events) {
		t.Fatalf("stats = %+v, want everything dead-lettered", stats)
	}

	// First retry still lacks the spec: everything fails again, retry counts
	// climb, the queue is intact.
	retried, failed, err := s.RetryDeadLetters(context.Background(), TailOptions{Specs: map[string]*workflow.Workflow{}})
	if err != nil {
		t.Fatal(err)
	}
	if retried != 0 || failed != len(events) {
		t.Fatalf("retry without spec: retried=%d failed=%d", retried, failed)
	}
	letters, _ := s.ListDeadLetters()
	if len(letters) != len(events) || letters[0].Retries != 1 {
		t.Fatalf("after failed retry: %d letters, retries[0]=%d", len(letters), letters[0].Retries)
	}

	// With the spec registered, the replay drains the queue and the run is
	// stored whole.
	retried, failed, err = s.RetryDeadLetters(context.Background(), TailOptions{Specs: map[string]*workflow.Workflow{"fig3": w}})
	if err != nil {
		t.Fatal(err)
	}
	if retried != len(events) || failed != 0 {
		t.Fatalf("retry with spec: retried=%d failed=%d, want %d/0", retried, failed, len(events))
	}
	if letters, _ := s.ListDeadLetters(); len(letters) != 0 {
		t.Fatalf("queue not drained: %d letters remain", len(letters))
	}
	ok, err := s.HasRun("run1")
	if err != nil || !ok {
		t.Fatalf("run not stored after retry: %v %v", ok, err)
	}
	total, err := s.TotalRecords("run1")
	if err != nil || total != tr.NumRecords() {
		t.Fatalf("TotalRecords = %d (%v), want %d", total, err, tr.NumRecords())
	}
}

func TestDLQSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open("durable:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	ev := trace.Event{Kind: trace.EventXform, RunID: "r1", Seq: 3}
	feed(t, s, nil, []trace.Event{ev}) // no run_start: dead-letters
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open("durable:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	letters, err := s2.ListDeadLetters()
	if err != nil || len(letters) != 1 {
		t.Fatalf("reopened DLQ: %v letters (%v), want 1", len(letters), err)
	}
	// The sequence counter reseeds past the stored maximum.
	feed(t, s2, nil, []trace.Event{ev})
	letters, _ = s2.ListDeadLetters()
	if len(letters) != 2 || letters[1].Seq <= letters[0].Seq {
		t.Fatalf("post-reopen DLQ sequencing broken: %+v", letters)
	}
}

func TestTailIngestSnapshotIsolation(t *testing.T) {
	w, tr1 := fig3Trace(t, "run1")
	_, tr2 := fig3Trace(t, "run2")
	s, err := OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StoreTrace(tr1); err != nil {
		t.Fatal(err)
	}

	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	before, err := v.InputBindings("run1", "P", "X1", value.Ix(1))
	if err != nil {
		t.Fatal(err)
	}
	epoch := v.Epoch()

	// Concurrent burst: run2 streams in while the view stays pinned.
	feed(t, s, map[string]*workflow.Workflow{"fig3": w}, tr2.Events())
	if s.Epoch() <= epoch {
		t.Fatalf("ingest did not advance the epoch: %d -> %d", epoch, s.Epoch())
	}

	// The pinned view answers identically and never sees run2.
	after, err := v.InputBindings("run1", "P", "X1", value.Ix(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("pinned view changed under ingest: %d vs %d bindings", len(after), len(before))
	}
	if ok, err := v.HasRun("run2"); err != nil || ok {
		t.Fatalf("pinned view sees run ingested after the pin (ok=%v err=%v)", ok, err)
	}
	runs, err := v.ListRuns()
	if err != nil || len(runs) != 1 {
		t.Fatalf("pinned ListRuns = %v (%v), want only run1", runs, err)
	}

	// A fresh view sees both runs.
	v2, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.Epoch() <= epoch {
		t.Fatalf("fresh view epoch %d not past pinned %d", v2.Epoch(), epoch)
	}
	if ok, _ := v2.HasRun("run2"); !ok {
		t.Fatal("fresh view misses the streamed run")
	}
}
