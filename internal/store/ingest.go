package store

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// This file implements the concurrent bulk-ingest executor: many runs loaded
// into one store through run writers over a worker pool. Runs are
// independent rows partitioned by run_id, so their writers never conflict
// logically; physically each batch flush is one engine-level multi-row
// insert (one lock acquisition, one group-committed WAL record per table),
// so workers contend once per batch instead of once per row. The pool
// mirrors the multi-run query executor in internal/lineage: a buffered task
// channel, per-worker error slots, drain-after-failure, no shared state
// until the final error sweep.
//
// Cancellation: the caller's context is fanned out to every writer; the
// first worker failure cancels a derived context so the other workers stop
// at their next task (or their writer's next event) instead of finishing the
// backlog. A panicking task is confined to its worker, converted into an
// error carrying the stack, and cancels the rest the same way.

// DefaultIngestParallelism is the worker count used when
// IngestOptions.Parallelism is unset.
const DefaultIngestParallelism = 4

// IngestOptions tunes the bulk-ingest executor.
type IngestOptions struct {
	// Parallelism is the number of runs ingested concurrently. Values <= 0
	// select DefaultIngestParallelism; 1 ingests sequentially.
	Parallelism int
	// BatchRows is the run writer's flush threshold (rows across all event
	// tables per multi-row flush). 0 means DefaultBatchRows; 1 flushes after
	// every event.
	BatchRows int
	// CheckpointEveryRuns, when > 0 on a durable store, checkpoints the
	// store after every N completed runs: a fresh snapshot is written and
	// the write-ahead log truncated, so the WAL's disk footprint — and the
	// replay work a crash-recovery Open must do — stays bounded by N runs
	// of events no matter how large the bulk load is. 0 never checkpoints
	// (the WAL grows for the whole load). Non-durable stores ignore it.
	CheckpointEveryRuns int
}

// IngestTask is one run to load: Emit replays the run's provenance events
// into the collector the executor provides (typically by executing a
// workflow with the engine, or replaying a recorded trace).
type IngestTask struct {
	RunID    string
	Workflow string
	Emit     func(trace.Collector) error
}

// Ingest loads every task's run into the store concurrently, each run
// through its own writer (registration is one atomic step per run; event
// rows flush as multi-row batches). The first error cancels remaining work
// and is returned; completed runs stay in the store, and a failed or
// panicking task's run is rolled back (RunWriter.Abort). Cancelling ctx
// aborts the load with the context's error; runs whose final flush was
// acknowledged before the cancellation remain.
func (s *Store) Ingest(ctx context.Context, tasks []IngestTask, opt IngestOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var done atomic.Int64
	var ckptMu sync.Mutex
	maybeCheckpoint := func() error {
		if opt.CheckpointEveryRuns <= 0 {
			return nil
		}
		if done.Add(1)%int64(opt.CheckpointEveryRuns) != 0 {
			return nil
		}
		// Only the completion that crossed the boundary checkpoints; the
		// mutex keeps two boundaries crossed close together from stacking
		// overlapping snapshot writes.
		ckptMu.Lock()
		defer ckptMu.Unlock()
		return s.Checkpoint()
	}
	return IngestPool(ctx, opt.Parallelism, tasks, func(ctx context.Context, t IngestTask) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if t.Emit == nil {
			return fmt.Errorf("store: ingest task %q has no Emit", t.RunID)
		}
		w, err := s.NewRunWriter(ctx, t.RunID, t.Workflow, opt.BatchRows)
		if err != nil {
			return err
		}
		completed := false
		defer func() {
			if !completed { // failed, or panicking on its way to IngestPool
				err = errors.Join(err, w.Abort())
			}
		}()
		if err := t.Emit(w); err != nil {
			return fmt.Errorf("store: ingesting run %q: %w", t.RunID, err)
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("store: ingesting run %q: %w", t.RunID, err)
		}
		completed = true
		obsIngestRuns.Add(1)
		return maybeCheckpoint()
	})
}

// IngestPool runs ingest over every task on up to workers goroutines (<= 0
// selects DefaultIngestParallelism; 1 runs the tasks in order). The first
// failure cancels the context the other tasks receive, so they stop at
// their next task or their writer's next event; the remaining backlog is
// drained, not run. A panicking task is confined to its worker, converted
// into an error carrying the stack, and cancels the rest the same way. The
// error returned is chosen by FirstError.
func IngestPool(ctx context.Context, workers int, tasks []IngestTask, ingest func(context.Context, IngestTask) error) error {
	if workers <= 0 {
		workers = DefaultIngestParallelism
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan IngestTask, len(tasks))
	for _, t := range tasks {
		work <- t
	}
	close(work)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic in task code must not take down the process or wedge
			// the pool: confine it to this worker, keep the error (with the
			// stack), and cancel the others.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("store: ingest worker panic: %v\n%s", r, debug.Stack())
					cancel()
				}
			}()
			for t := range work {
				if errs[w] != nil {
					continue // drain after a failure
				}
				if err := ingest(wctx, t); err != nil {
					errs[w] = err
					cancel() // first error stops the other workers
				}
			}
		}()
	}
	wg.Wait()
	return FirstError(ctx, errs)
}

// FirstError selects the error to surface from a pool run: a real failure
// beats a secondary cancellation error, and if the caller's own context was
// cancelled, its error is authoritative. The multi-run query executor and
// the sharded store's pools share it.
func FirstError(ctx context.Context, errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
			continue
		}
		if isCancellation(first) && !isCancellation(err) {
			first = err
		}
	}
	if first != nil && isCancellation(first) && ctx.Err() != nil {
		return ctx.Err()
	}
	return first
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// StoreTrace persists one complete in-memory trace: IngestTraces of that one
// trace with the default options.
func (s *Store) StoreTrace(t *trace.Trace) error {
	return s.IngestTraces(context.Background(), []*trace.Trace{t}, IngestOptions{})
}

// IngestTraces loads a set of recorded traces with the given options — the
// bulk counterpart of calling StoreTrace per trace.
func (s *Store) IngestTraces(ctx context.Context, traces []*trace.Trace, opt IngestOptions) error {
	return s.Ingest(ctx, TraceIngestTasks(traces), opt)
}

// TraceIngestTasks converts recorded traces into the task set IngestTraces
// runs. Exported so the sharded store can regroup trace loads by owning
// shard before handing each group to a shard-level Ingest.
func TraceIngestTasks(traces []*trace.Trace) []IngestTask {
	tasks := make([]IngestTask, len(traces))
	for i, t := range traces {
		t := t
		tasks[i] = IngestTask{
			RunID:    t.RunID,
			Workflow: t.Workflow,
			Emit: func(c trace.Collector) error {
				for _, e := range t.Xforms {
					if err := c.Xform(e); err != nil {
						return err
					}
				}
				for _, e := range t.Xfers {
					if err := c.Xfer(e); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	return tasks
}
