package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/store"
	"repro/internal/trace"
)

// This file implements the sharded write path and the administrative
// operations. Writers route to the owning shard; bulk ingest groups its
// tasks by owning shard and runs one ingest pool per shard concurrently.
// Because every shard is an independent engine with its own lock, per-shard
// ingests never serialize against each other — this is the sharded store's
// ingest win: N group-committing writers instead of one.
//
// With replication (R > 1) bulk ingest dual-writes: each run's events fan
// out through a trace.MultiCollector to a run writer on every replica of the
// owning shard, so followers are populated inline instead of waiting for the
// next checkpoint's catch-up copy. StoreTrace is bulk ingest of one trace. A
// single-run writer (NewRunWriter) hands the caller a live collector bound
// to one engine, so it lands on the primary only and followers converge at
// the next Checkpoint.

// NewRunWriter registers a run on its owning shard's primary and returns a
// batching collector. With R > 1 the followers converge at the next
// Checkpoint (or Open) via catch-up copy.
func (s *ShardedStore) NewRunWriter(ctx context.Context, runID, workflowName string, batchRows int) (*store.RunWriter, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	return s.primary(i).NewRunWriter(ctx, runID, workflowName, batchRows)
}

// StoreTrace persists one complete in-memory trace on every replica of its
// owning shard: IngestTraces of that one trace, so a replicated run is
// rolled back everywhere if any replica fails.
func (s *ShardedStore) StoreTrace(t *trace.Trace) error {
	return s.IngestTraces(context.Background(), []*trace.Trace{t}, store.IngestOptions{})
}

// Ingest loads the tasks' runs concurrently, grouped by owning shard: each
// shard ingests its group through its own worker pool, and the groups run
// concurrently against independent engines. The requested parallelism is
// divided across the shards actually touched (at least one worker per
// shard), so total in-flight writers stay close to the caller's budget while
// every shard makes progress. CheckpointEveryRuns applies per shard — each
// durable shard checkpoints after every N of its own completed runs, so each
// shard's WAL (and its crash-replay work) stays bounded by N runs of events,
// and each periodic snapshot covers one shard's ~1/Nth of the data instead
// of the whole store. With R > 1, each run dual-writes to every replica of
// its shard and the checkpoint cadence checkpoints the whole replica set.
func (s *ShardedStore) Ingest(ctx context.Context, tasks []store.IngestTask, opt store.IngestOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	groups := make(map[int][]store.IngestTask)
	for _, t := range tasks {
		i := s.ring.owner(t.RunID)
		groups[i] = append(groups[i], t)
	}
	if len(groups) <= 1 {
		for i, g := range groups {
			s.noteRouted(i)
			return shardErr(i, s.ingestShard(ctx, i, g, opt))
		}
		return nil
	}
	touched := make([]int, 0, len(groups))
	for i := range groups {
		touched = append(touched, i)
	}
	sort.Ints(touched)
	s.noteScatter(len(groups), touched)

	perShard := opt
	p := opt.Parallelism
	if p <= 0 {
		p = store.DefaultIngestParallelism
	}
	perShard.Parallelism = p / len(touched)
	if perShard.Parallelism < 1 {
		perShard.Parallelism = 1
	}

	// The first shard-level failure cancels the others, mirroring the
	// store-level pool's first-error semantics.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(touched))
	for k, i := range touched {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			if err := s.ingestShard(wctx, i, groups[i], perShard); err != nil {
				errs[k] = shardErr(i, err)
				cancel()
			}
		}(k, i)
	}
	wg.Wait()
	return store.FirstError(ctx, errs)
}

// ingestShard ingests one shard's task group. Unreplicated shards delegate
// to the store-level pool; replicated shards run the dual-writing pool.
func (s *ShardedStore) ingestShard(ctx context.Context, i int, tasks []store.IngestTask, opt store.IngestOptions) error {
	rs := s.replicaSets[i]
	if len(rs.reps) == 1 {
		return rs.reps[0].st.Ingest(ctx, tasks, opt)
	}
	return s.ingestReplicated(ctx, rs, tasks, opt)
}

// ingestReplicated ingests one replicated shard's task group through the
// store's ingest pool: every run's events tee through a
// trace.MultiCollector into a run writer on each replica, so all copies
// commit the run before the task counts as done. A run that fails — or
// panics — is rolled back on every replica it was registered on. The
// checkpoint cadence checkpoints the whole replica set together.
func (s *ShardedStore) ingestReplicated(ctx context.Context, rs *replicaSet, tasks []store.IngestTask, opt store.IngestOptions) error {
	var (
		ckptMu sync.Mutex
		done   int
	)
	maybeCheckpoint := func() error {
		if opt.CheckpointEveryRuns <= 0 {
			return nil
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		done++
		if done%opt.CheckpointEveryRuns != 0 {
			return nil
		}
		var errs []error
		for j, rep := range rs.reps {
			if err := rep.st.Checkpoint(); err != nil {
				errs = append(errs, fmt.Errorf("replica %d: %w", j, err))
			}
		}
		return errors.Join(errs...)
	}

	return store.IngestPool(ctx, opt.Parallelism, tasks, func(ctx context.Context, t store.IngestTask) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if t.Emit == nil {
			return fmt.Errorf("ingest task %q has no Emit", t.RunID)
		}
		ws := make([]*store.RunWriter, 0, len(rs.reps))
		committed := false
		defer func() {
			if !committed { // only the replicas this task registered the run on
				for _, w := range ws {
					err = errors.Join(err, w.Abort())
				}
			}
		}()
		mc := make(trace.MultiCollector, 0, len(rs.reps))
		for j, rep := range rs.reps {
			w, err := rep.st.NewRunWriter(ctx, t.RunID, t.Workflow, opt.BatchRows)
			if err != nil {
				return fmt.Errorf("replica %d: ingesting run %q: %w", j, t.RunID, err)
			}
			ws = append(ws, w)
			mc = append(mc, w)
		}
		if err := t.Emit(mc); err != nil {
			return fmt.Errorf("ingesting run %q: %w", t.RunID, err)
		}
		var errs []error
		for j, w := range ws {
			if err := w.Close(); err != nil {
				errs = append(errs, fmt.Errorf("replica %d: ingesting run %q: %w", j, t.RunID, err))
			}
		}
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		committed = true
		return maybeCheckpoint()
	})
}

// IngestTraces bulk-loads a set of recorded traces across the shards.
func (s *ShardedStore) IngestTraces(ctx context.Context, traces []*trace.Trace, opt store.IngestOptions) error {
	return s.Ingest(ctx, store.TraceIngestTasks(traces), opt)
}

// ListRuns returns all stored runs across every shard, sorted by run ID so
// the merged listing is deterministic regardless of shard layout. Each
// shard's listing reads through its replica set (failover, no hedging).
func (s *ShardedStore) ListRuns() ([]store.RunInfo, error) {
	var out []store.RunInfo
	for i, rs := range s.replicaSets {
		runs, err := replicaRead(context.Background(), rs, false, func(st *store.Store) ([]store.RunInfo, error) {
			return st.ListRuns()
		})
		if err != nil {
			return nil, shardErr(i, err)
		}
		out = append(out, runs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	return out, nil
}

// RunsOf returns the IDs of all runs of the named workflow, across shards,
// sorted.
func (s *ShardedStore) RunsOf(workflow string) ([]string, error) {
	var out []string
	for i, rs := range s.replicaSets {
		runs, err := replicaRead(context.Background(), rs, false, func(st *store.Store) ([]string, error) {
			return st.RunsOf(workflow)
		})
		if err != nil {
			return nil, shardErr(i, err)
		}
		out = append(out, runs...)
	}
	sort.Strings(out)
	return out, nil
}

// RecordCounts reports per-table event rows for a run — or, with runID "",
// summed across every shard.
func (s *ShardedStore) RecordCounts(runID string) (xformIn, xformOut, xfers int, err error) {
	type counts struct{ in, out, xf int }
	count := func(i int, run string) (counts, error) {
		return replicaRead(context.Background(), s.replicaSets[i], false, func(st *store.Store) (counts, error) {
			in, out, xf, err := st.RecordCounts(run)
			return counts{in, out, xf}, err
		})
	}
	if runID != "" {
		i := s.ring.owner(runID)
		c, err := count(i, runID)
		if err != nil {
			return 0, 0, 0, shardErr(i, err)
		}
		return c.in, c.out, c.xf, nil
	}
	for i := range s.replicaSets {
		c, err := count(i, "")
		if err != nil {
			return 0, 0, 0, shardErr(i, err)
		}
		xformIn += c.in
		xformOut += c.out
		xfers += c.xf
	}
	return xformIn, xformOut, xfers, nil
}

// TotalRecords returns the Table 1 record count ("" sums all shards).
func (s *ShardedStore) TotalRecords(runID string) (int, error) {
	in, out, xf, err := s.RecordCounts(runID)
	return in + out + xf, err
}

// DeleteRun removes every record of a run from every replica of its owning
// shard; per-replica failures are joined. The returned count is the
// primary's.
func (s *ShardedStore) DeleteRun(runID string) (int, error) {
	i := s.ring.owner(runID)
	rs := s.replicaSets[i]
	n, err := rs.reps[0].st.DeleteRun(runID)
	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("shard %d replica 0: %w", i, err))
	}
	for j := 1; j < len(rs.reps); j++ {
		if _, err := rs.reps[j].st.DeleteRun(runID); err != nil && !errors.Is(err, store.ErrUnknownRun) {
			errs = append(errs, fmt.Errorf("shard %d replica %d: %w", i, j, err))
		}
	}
	return n, errors.Join(errs...)
}

var _ store.Backend = (*ShardedStore)(nil)
