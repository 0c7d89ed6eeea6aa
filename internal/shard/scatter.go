package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// This file implements the sharded query surface. Single-run operations
// route to the run's owning shard; the batched multi-run probes scatter:
// the batch is grouped by owning shard, one batched probe per shard runs
// concurrently (each shard has its own engine and its own lock, so the
// probes proceed truly in parallel), and the per-shard answers merge into
// one map keyed exactly like the single-store answer. The lineage executors
// are oblivious — they talk to a store.LineageQuerier either way — so
// ExecuteMultiRun's worker pool gets cross-shard parallelism inside every
// single batched probe, on top of its own probe-level parallelism.
//
// Every read goes through the shard's replica set (replica.go): primary-
// preferred with failover, scatter probes hedged. Per-shard failures are
// annotated with their shard index and aggregated with errors.Join, so a
// multi-shard failure reports every failing shard — and the sentinel chains
// (reldb.ErrCorrupt, store.ErrUnknownRun, resilience.ErrUnavailable) stay
// matchable through the join.

// InputBindings answers the trace probe Q(P, X, p) for one run.
func (s *ShardedStore) InputBindings(runID, proc, port string, idx value.Index) ([]store.Binding, error) {
	return s.InputBindingsCtx(context.Background(), runID, proc, port, idx)
}

// InputBindingsCtx implements store.ContextLineageQuerier: like
// InputBindings but bounded by ctx — a stalled replica cannot hold the
// caller past its deadline.
func (s *ShardedStore) InputBindingsCtx(ctx context.Context, runID, proc, port string, idx value.Index) ([]store.Binding, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	bs, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) ([]store.Binding, error) {
		return st.InputBindings(runID, proc, port, idx)
	})
	return bs, shardErr(i, err)
}

// InputBindingsBatch answers the probe for a set of runs by scatter-gather:
// the runs are grouped by owning shard and each shard answers its group with
// one batched probe, concurrently. The merged result has an entry for every
// requested run, exactly like the single-store batch.
func (s *ShardedStore) InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) (map[string][]store.Binding, error) {
	return s.InputBindingsBatchCtx(context.Background(), runIDs, proc, port, idx)
}

// InputBindingsBatchCtx is the ctx-bounded batched probe the multi-run
// executor calls; the per-shard probes are hedged.
func (s *ShardedStore) InputBindingsBatchCtx(ctx context.Context, runIDs []string, proc, port string, idx value.Index) (map[string][]store.Binding, error) {
	out := make(map[string][]store.Binding, len(runIDs))
	if len(runIDs) == 0 {
		return out, nil
	}
	groups := s.groupRuns(runIDs)
	parts := make([]map[string][]store.Binding, len(s.replicaSets))
	err := eachShard(s, ctx, groups, func(ctx context.Context, i int, runs []string) error {
		m, err := replicaRead(ctx, s.replicaSets[i], true, func(st *store.Store) (map[string][]store.Binding, error) {
			return st.InputBindingsBatch(runs, proc, port, idx)
		})
		if err != nil {
			return err
		}
		parts[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range parts {
		for r, bs := range m {
			out[r] = bs
		}
	}
	return out, nil
}

// Value materializes one stored port value from the run's owning shard.
func (s *ShardedStore) Value(runID string, valID int64) (value.Value, error) {
	return s.ValueCtx(context.Background(), runID, valID)
}

// ValueCtx implements store.ContextLineageQuerier.
func (s *ShardedStore) ValueCtx(ctx context.Context, runID string, valID int64) (value.Value, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	v, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) (value.Value, error) {
		return st.Value(runID, valID)
	})
	return v, shardErr(i, err)
}

// ValuesBatch materializes a set of values by scatter-gather: refs group by
// their run's owning shard, each shard answers its group with one batched
// lookup, and the per-shard maps merge.
func (s *ShardedStore) ValuesBatch(refs []store.ValueRef) (map[store.ValueRef]value.Value, error) {
	return s.ValuesBatchCtx(context.Background(), refs)
}

// ValuesBatchCtx is the ctx-bounded batched value fetch; hedged like the
// batched probes.
func (s *ShardedStore) ValuesBatchCtx(ctx context.Context, refs []store.ValueRef) (map[store.ValueRef]value.Value, error) {
	out := make(map[store.ValueRef]value.Value, len(refs))
	if len(refs) == 0 {
		return out, nil
	}
	groups := make(map[int][]store.ValueRef)
	for _, ref := range refs {
		i := s.ring.owner(ref.RunID)
		groups[i] = append(groups[i], ref)
	}
	parts := make([]map[store.ValueRef]value.Value, len(s.replicaSets))
	err := eachShard(s, ctx, groups, func(ctx context.Context, i int, g []store.ValueRef) error {
		m, err := replicaRead(ctx, s.replicaSets[i], true, func(st *store.Store) (map[store.ValueRef]value.Value, error) {
			return st.ValuesBatch(g)
		})
		if err != nil {
			return err
		}
		parts[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range parts {
		for ref, v := range m {
			out[ref] = v
		}
	}
	return out, nil
}

// HasRun reports whether the owning shard holds the run.
func (s *ShardedStore) HasRun(runID string) (bool, error) {
	return s.HasRunCtx(context.Background(), runID)
}

// HasRunCtx implements store.ContextTraceQuerier.
func (s *ShardedStore) HasRunCtx(ctx context.Context, runID string) (bool, error) {
	i := s.ring.owner(runID)
	ok, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) (bool, error) {
		return st.HasRun(runID)
	})
	return ok, shardErr(i, err)
}

// XformsByOutput routes the extensional probe to the owning shard.
func (s *ShardedStore) XformsByOutput(runID, proc, port string, idx value.Index) ([]store.Xform, error) {
	return s.XformsByOutputCtx(context.Background(), runID, proc, port, idx)
}

// XformsByOutputCtx implements store.ContextTraceQuerier: the probe is
// bounded by ctx, so a stalled replica cannot hold a naive-method query past
// its request deadline.
func (s *ShardedStore) XformsByOutputCtx(ctx context.Context, runID, proc, port string, idx value.Index) ([]store.Xform, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	xs, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) ([]store.Xform, error) {
		return st.XformsByOutput(runID, proc, port, idx)
	})
	return xs, shardErr(i, err)
}

// XformsByInput routes the forward extensional probe to the owning shard.
func (s *ShardedStore) XformsByInput(runID, proc, port string, idx value.Index) ([]store.ForwardXform, error) {
	return s.XformsByInputCtx(context.Background(), runID, proc, port, idx)
}

// XformsByInputCtx implements store.ContextTraceQuerier.
func (s *ShardedStore) XformsByInputCtx(ctx context.Context, runID, proc, port string, idx value.Index) ([]store.ForwardXform, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	xs, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) ([]store.ForwardXform, error) {
		return st.XformsByInput(runID, proc, port, idx)
	})
	return xs, shardErr(i, err)
}

// XfersTo routes to the owning shard.
func (s *ShardedStore) XfersTo(runID, proc, port string) ([]store.Xfer, error) {
	return s.XfersToCtx(context.Background(), runID, proc, port)
}

// XfersToCtx implements store.ContextTraceQuerier.
func (s *ShardedStore) XfersToCtx(ctx context.Context, runID, proc, port string) ([]store.Xfer, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	xs, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) ([]store.Xfer, error) {
		return st.XfersTo(runID, proc, port)
	})
	return xs, shardErr(i, err)
}

// XfersFrom routes to the owning shard.
func (s *ShardedStore) XfersFrom(runID, proc, port string) ([]store.Xfer, error) {
	return s.XfersFromCtx(context.Background(), runID, proc, port)
}

// XfersFromCtx implements store.ContextTraceQuerier.
func (s *ShardedStore) XfersFromCtx(ctx context.Context, runID, proc, port string) ([]store.Xfer, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	xs, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) ([]store.Xfer, error) {
		return st.XfersFrom(runID, proc, port)
	})
	return xs, shardErr(i, err)
}

// LoadTrace reconstructs a stored run's trace from its owning shard.
func (s *ShardedStore) LoadTrace(runID string) (*trace.Trace, error) {
	return s.LoadTraceCtx(context.Background(), runID)
}

// LoadTraceCtx implements store.ContextTraceQuerier.
func (s *ShardedStore) LoadTraceCtx(ctx context.Context, runID string) (*trace.Trace, error) {
	i := s.ring.owner(runID)
	s.noteRouted(i)
	tr, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) (*trace.Trace, error) {
		return st.LoadTrace(runID)
	})
	return tr, shardErr(i, err)
}

// Verify checks one stored run's integrity on its owning shard.
func (s *ShardedStore) Verify(runID string, wf *workflow.Workflow) (*store.VerifyReport, error) {
	return s.VerifyCtx(context.Background(), runID, wf)
}

// VerifyCtx implements store.ContextTraceQuerier.
func (s *ShardedStore) VerifyCtx(ctx context.Context, runID string, wf *workflow.Workflow) (*store.VerifyReport, error) {
	i := s.ring.owner(runID)
	rep, err := replicaRead(ctx, s.replicaSets[i], false, func(st *store.Store) (*store.VerifyReport, error) {
		return st.Verify(runID, wf)
	})
	return rep, shardErr(i, err)
}

// PartitionRuns implements store.RunPartitioner: runs grouped by owning
// shard, in shard order. The multi-run executor forms its probe chunks
// within these groups, so every batched probe is answered by exactly one
// shard — the scatter below then takes its single-group fast path.
func (s *ShardedStore) PartitionRuns(runIDs []string) [][]string {
	groups := s.groupRuns(runIDs)
	touched := make([]int, 0, len(groups))
	for i := range groups {
		touched = append(touched, i)
	}
	sort.Ints(touched)
	parts := make([][]string, 0, len(touched))
	for _, i := range touched {
		parts = append(parts, groups[i])
	}
	return parts
}

// groupRuns partitions run IDs by owning shard, deduplicating within each
// group (a run appears once per group even if requested twice).
func (s *ShardedStore) groupRuns(runIDs []string) map[int][]string {
	groups := make(map[int][]string)
	seen := make(map[string]bool, len(runIDs))
	for _, r := range runIDs {
		if seen[r] {
			continue
		}
		seen[r] = true
		i := s.ring.owner(r)
		groups[i] = append(groups[i], r)
	}
	return groups
}

// shardErr annotates a shard-level failure with its shard index (wrapping,
// so sentinel matching survives). nil stays nil.
func shardErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("shard %d: %w", i, err)
}

// eachShard runs fn for every shard group concurrently and records the
// scatter metrics. Each shard's failure is annotated with its shard index
// and all of them are aggregated with errors.Join — the first failing shard
// does not mask the others, and errors.Is still matches every member's
// chain.
func eachShard[G any](s *ShardedStore, ctx context.Context, groups map[int]G, fn func(ctx context.Context, i int, g G) error) error {
	touched := make([]int, 0, len(groups))
	for i := range groups {
		touched = append(touched, i)
	}
	sort.Ints(touched)
	s.noteScatter(len(groups), touched)

	if len(touched) == 1 {
		i := touched[0]
		t0 := time.Now()
		err := fn(ctx, i, groups[i])
		if obs.Enabled() {
			obsProbeNS.Observe(time.Since(t0).Nanoseconds())
		}
		return shardErr(i, err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(touched))
	for k, i := range touched {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			t0 := time.Now()
			errs[k] = shardErr(i, fn(ctx, i, groups[i]))
			if obs.Enabled() {
				obsProbeNS.Observe(time.Since(t0).Nanoseconds())
			}
		}(k, i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

var (
	_ store.ContextLineageQuerier = (*ShardedStore)(nil)
	_ store.ContextTraceQuerier   = (*ShardedStore)(nil)
)
