package lineage

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/workflow"
)

// This file pins the cancellation semantics of the parallel multi-run
// executor: a cancelled context yields context.Canceled (an expired
// deadline context.DeadlineExceeded), worker goroutines are reaped, a
// panicking probe is confined to its worker and surfaced as an error, and
// the evaluator stays usable afterwards. Run under -race these tests also
// exercise the cancel/drain paths for data races.

// cancelEnv stores several deterministic testbed runs and returns the
// pieces needed to build evaluators over them.
func cancelEnv(t *testing.T, nRuns int) (*store.Store, *workflow.Workflow, []string) {
	t.Helper()
	return testbedEnv(t, 8, 6, nRuns)
}

func lineageWaitNoLeaks(t *testing.T, baseline int) {
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

// hookQuerier delegates to a real store but runs a hook before every
// batched probe — the deterministic way to cancel a context (or panic)
// while the executor is mid-flight.
type hookQuerier struct {
	store.LineageQuerier
	hook func()
	once sync.Once
}

func (h *hookQuerier) InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) (map[string][]store.Binding, error) {
	h.once.Do(h.hook)
	return h.LineageQuerier.InputBindingsBatch(runIDs, proc, port, idx)
}

func (h *hookQuerier) InputBindings(runID, proc, port string, idx value.Index) ([]store.Binding, error) {
	h.once.Do(h.hook)
	return h.LineageQuerier.InputBindings(runID, proc, port, idx)
}

// TestExecuteMultiRunPreCancelled: an already-cancelled context is refused
// before any probe runs, on both the sequential and the parallel path.
func TestExecuteMultiRunPreCancelled(t *testing.T) {
	s, wf, runs := cancelEnv(t, 4)
	defer s.Close()
	ip, err := NewIndexProj(s, wf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ip.Compile(gen.FinalName, "product", value.Ix(2, 2), NewFocus(gen.ListGenName))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		_, err := ip.ExecuteMultiRun(ctx, plan, runs, MultiRunOptions{Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("P=%d: ExecuteMultiRun under cancelled ctx = %v, want context.Canceled", par, err)
		}
	}
}

// TestExecuteMultiRunCancelMidFlight cancels the context from inside the
// first store probe while workers hold queued chunks: the executor must
// return context.Canceled, reap its workers, and leave the evaluator and
// store usable.
func TestExecuteMultiRunCancelMidFlight(t *testing.T) {
	s, wf, runs := cancelEnv(t, 6)
	defer s.Close()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hq := &hookQuerier{LineageQuerier: s, hook: cancel}
	ip, err := NewIndexProj(hq, wf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ip.Compile(gen.FinalName, "product", value.Ix(2, 2), NewFocus(gen.ListGenName))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ip.ExecuteMultiRun(ctx, plan, runs, MultiRunOptions{Parallelism: 2, BatchSize: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteMultiRun after mid-flight cancel = %v, want context.Canceled", err)
	}
	lineageWaitNoLeaks(t, baseline)

	// The evaluator and store remain usable for fresh queries.
	ip2, err := NewIndexProj(s, wf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ip2.LineageMultiRun(runs, gen.FinalName, "product", value.Ix(2, 2), NewFocus(gen.ListGenName))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ip2.LineageMultiRunParallel(context.Background(), runs, gen.FinalName, "product",
		value.Ix(2, 2), NewFocus(gen.ListGenName), MultiRunOptions{Parallelism: 2, BatchSize: 1})
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("post-cancellation parallel result diverged from sequential answer")
	}
}

// TestExecuteMultiRunDeadlineExceeded: an expired deadline is reported as
// context.DeadlineExceeded, not a generic failure.
func TestExecuteMultiRunDeadlineExceeded(t *testing.T) {
	s, wf, runs := cancelEnv(t, 3)
	defer s.Close()
	ip, err := NewIndexProj(s, wf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ip.Compile(gen.FinalName, "product", value.Ix(1, 1), NewFocus(gen.ListGenName))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := ip.ExecuteMultiRun(ctx, plan, runs, MultiRunOptions{Parallelism: 2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExecuteMultiRun under expired deadline = %v, want context.DeadlineExceeded", err)
	}
}

// TestExecuteMultiRunPanicConfined: a panic inside a store probe is
// confined to its worker, converted into an error carrying the panic, and
// cancels the remaining chunks; no goroutines leak.
func TestExecuteMultiRunPanicConfined(t *testing.T) {
	s, wf, runs := cancelEnv(t, 6)
	defer s.Close()
	baseline := runtime.NumGoroutine()

	hq := &hookQuerier{LineageQuerier: s, hook: func() { panic("boom: injected probe panic") }}
	ip, err := NewIndexProj(hq, wf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ip.Compile(gen.FinalName, "product", value.Ix(2, 2), NewFocus(gen.ListGenName))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ip.ExecuteMultiRun(context.Background(), plan, runs, MultiRunOptions{Parallelism: 2, BatchSize: 1})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("ExecuteMultiRun with panicking probe = %v, want a panic-carrying error", err)
	}
	lineageWaitNoLeaks(t, baseline)
}
