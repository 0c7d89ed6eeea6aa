package store_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// This file pins the cancellation semantics of the ingest pipeline: a
// cancelled context aborts the load with context.Canceled (a deadline with
// context.DeadlineExceeded), no worker goroutines are left behind, and the
// store stays fully usable afterwards. Run under -race these tests also
// exercise the cancel/drain paths of the worker pool for data races.

// replayTask builds an IngestTask that replays a recorded trace's events,
// calling hook (if non-nil) after each event.
func replayTask(tr *trace.Trace, hook func(n int)) store.IngestTask {
	return store.IngestTask{
		RunID:    tr.RunID,
		Workflow: tr.Workflow,
		Emit: func(c trace.Collector) error {
			n := 0
			for _, e := range tr.Xforms {
				if err := c.Xform(e); err != nil {
					return err
				}
				n++
				if hook != nil {
					hook(n)
				}
			}
			for _, e := range tr.Xfers {
				if err := c.Xfer(e); err != nil {
					return err
				}
				n++
				if hook != nil {
					hook(n)
				}
			}
			return nil
		},
	}
}

// waitNoLeaks polls until the goroutine count returns to the baseline, and
// dumps all stacks if it does not within the deadline.
func waitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIngestCancelMidway cancels the context from inside one task's Emit
// while several workers are loading runs: Ingest must return
// context.Canceled, leak no goroutines, and leave the store usable —
// fully-acknowledged runs intact, new ingests accepted.
func TestIngestCancelMidway(t *testing.T) {
	traces := makeTraces(t)
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	tasks := make([]store.IngestTask, 0, len(traces))
	for i, tr := range traces {
		var hook func(int)
		if i == 1 {
			// Cancel partway through the second run's event stream, while
			// other workers are mid-flight on theirs.
			hook = func(n int) {
				if n == 3 {
					once.Do(cancel)
				}
			}
		}
		tasks = append(tasks, replayTask(tr, hook))
	}

	err = s.Ingest(ctx, tasks, store.IngestOptions{Parallelism: 4, BatchRows: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Ingest after mid-flight cancel = %v, want context.Canceled", err)
	}
	waitNoLeaks(t, baseline)

	// The store must remain fully usable: load the same traces under fresh
	// run IDs and query them back.
	retry := make([]store.IngestTask, 0, len(traces))
	for i, tr := range traces {
		task := replayTask(tr, nil)
		task.RunID = fmt.Sprintf("retry%03d", i)
		retry = append(retry, task)
	}
	if err := s.Ingest(context.Background(), retry, store.IngestOptions{Parallelism: 4}); err != nil {
		t.Fatalf("ingest after cancellation: %v", err)
	}
	for i := range traces {
		in, out, xf, err := s.RecordCounts(fmt.Sprintf("retry%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if in+out+xf == 0 {
			t.Fatalf("retry%03d stored no event rows after recovery from cancellation", i)
		}
	}
}

// TestIngestDeadlineExceeded runs an ingest under an already-expired
// deadline: the executor must refuse up front with DeadlineExceeded.
func TestIngestDeadlineExceeded(t *testing.T) {
	traces := makeTraces(t)
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err = s.IngestTraces(ctx, traces, store.IngestOptions{Parallelism: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("IngestTraces under expired deadline = %v, want context.DeadlineExceeded", err)
	}
	runs, err := s.ListRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("expired-deadline ingest registered runs %v, want none", runs)
	}
}

// TestIngestWorkerPanic confines a panicking Emit to its worker: Ingest
// returns an error carrying the panic, the pool shuts down without leaking
// goroutines, and the store accepts further work.
func TestIngestWorkerPanic(t *testing.T) {
	traces := makeTraces(t)
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	baseline := runtime.NumGoroutine()

	tasks := make([]store.IngestTask, 0, len(traces))
	for i, tr := range traces {
		if i == 2 {
			tasks = append(tasks, store.IngestTask{
				RunID:    tr.RunID,
				Workflow: tr.Workflow,
				Emit:     func(trace.Collector) error { panic("boom: injected task panic") },
			})
			continue
		}
		tasks = append(tasks, replayTask(tr, nil))
	}
	err = s.Ingest(context.Background(), tasks, store.IngestOptions{Parallelism: 4})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Ingest with panicking task = %v, want a panic-carrying error", err)
	}
	waitNoLeaks(t, baseline)

	task := replayTask(traces[2], nil)
	task.RunID = "after-panic"
	if err := s.Ingest(context.Background(), []store.IngestTask{task}, store.IngestOptions{}); err != nil {
		t.Fatalf("ingest after worker panic: %v", err)
	}
}

// TestBufferedWriterCancelledContext checks the writer-level contract: a
// writer cannot be created under a cancelled context, and a live writer
// whose context is cancelled rejects further events and its final flush
// with the context's error.
func TestBufferedWriterCancelledContext(t *testing.T) {
	traces := makeTraces(t)
	s, err := store.OpenMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := s.NewRunWriter(dead, "w1", "wf", 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewRunWriter under cancelled ctx = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := s.NewRunWriter(ctx, "w2", traces[0].Workflow, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Xform(traces[0].Xforms[0]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := w.Xform(traces[0].Xforms[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Xform after cancel = %v, want context.Canceled", err)
	}
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel = %v, want context.Canceled", err)
	}
}
