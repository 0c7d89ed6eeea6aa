package lineage

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/value"
)

// This file implements the parallel multi-run executor: the probe phase (t2
// of Fig. 4) of a multi-run query executed concurrently and batched. Runs
// are independent by construction (§3.4 — one plan, probed once per run),
// and so are the plan's probes (each is one indexed trace lookup), so the
// executor decomposes the work into (probe × run-chunk) tasks: each task
// answers one probe for a whole chunk of runs with the store's batched
// multi-run API (one call, one seek per run) and materializes the staged
// values with one batched fetch. A worker pool
// drains the tasks into private partial Results, merged once at the end —
// no lock is contended during execution, and the total store work is
// independent of the parallelism level.

// DefaultBatchSize caps the number of runs one task answers (bounding the
// bindings it stages in memory) when MultiRunOptions.BatchSize is unset.
// Larger chunks mean fewer tasks and fewer batched value fetches, so the
// default chunk is as large as the cap allows.
const DefaultBatchSize = 64

// MultiRunOptions tunes the parallel multi-run executor.
type MultiRunOptions struct {
	// Parallelism is the number of worker goroutines probing runs
	// concurrently. Values <= 1 select the sequential in-line path.
	Parallelism int
	// BatchSize is the number of runs per task: one batched store probe
	// and one batched value fetch answer a probe for that many runs. 0
	// means DefaultBatchSize; 1 disables batching and probes run-by-run,
	// exactly like the sequential single-run executor.
	BatchSize int
	// ColScan selects the vectorized columnar probe stage (see colscan.go).
	// The zero value is ColScanAuto: use column segments when the store has
	// them and the query is large enough to profit.
	ColScan ColScanMode
	// Partial enables degraded-mode answers over a replicated sharded store:
	// when every replica of some shard is unavailable (the failure matches
	// store.ErrUnavailable), the query returns the surviving shards'
	// entries with the unanswerable runs marked degraded on the Result,
	// instead of failing whole. Semantic failures (unknown runs, corruption
	// detected on a healthy replica) still fail the query. Off by default:
	// a non-partial query over an unavailable shard fails with the joined,
	// shard-attributed error.
	Partial bool
}

func (o MultiRunOptions) normalize() MultiRunOptions {
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.BatchSize < 1 {
		o.BatchSize = 1
	}
	return o
}

// LineageMultiRunParallel evaluates the query over a set of runs with the
// configured parallelism and probe batching. The specification graph is
// traversed once (one template per binding and |q|, §3.4), the focus's
// probes are resolved against idx, and only they execute per run. The
// result is identical to LineageMultiRun's for every parallelism and batch
// size — a property enforced by randomized tests.
func (ip *IndexProj) LineageMultiRunParallel(ctx context.Context, runIDs []string, proc, port string, idx value.Index, focus Focus, opt MultiRunOptions) (*Result, error) {
	tmpl, sel, err := ip.focused(proc, port, idx, focus)
	if err != nil {
		return nil, err
	}
	return ip.executeMultiRunTimed(ctx, tmpl, idx, sel, runIDs, opt)
}

// probeChunk is one executor task: one plan probe answered for one chunk of
// runs.
type probeChunk struct {
	probe Probe
	runs  []string
}

// ExecuteMultiRun runs a compiled plan against a set of runs under the given
// options. The first failing task cancels the rest; cancelling ctx aborts
// the query with the context's error. A panic inside a pooled task is
// confined to its worker and surfaced as an error carrying the stack. A
// cached template (see CompiledPlan) is refused.
func (ip *IndexProj) ExecuteMultiRun(ctx context.Context, plan *CompiledPlan, runIDs []string, opt MultiRunOptions) (*Result, error) {
	if plan.shapes != nil {
		return nil, errTemplatePlan
	}
	return ip.executeMultiRunTimed(ctx, plan, nil, plan.every(), runIDs, opt)
}

// executeMultiRunTimed is ExecuteMultiRun for the probes sel selects from a
// concrete plan or from a template resolved against q.
func (ip *IndexProj) executeMultiRunTimed(ctx context.Context, plan *CompiledPlan, q value.Index, sel []int, runIDs []string, opt MultiRunOptions) (*Result, error) {
	total := obs.Start(mrQueryNs)
	res, err := ip.executeMultiRun(ctx, plan, q, sel, runIDs, opt)
	d := total.End()
	if err == nil {
		ipQueries.Add(1)
		if obs.SlowExceeded(d) {
			obs.Slow("lineage.multirun", d,
				"runs", strconv.Itoa(len(runIDs)),
				"probes", strconv.Itoa(len(sel)),
				"parallelism", strconv.Itoa(opt.normalize().Parallelism),
				"bindings", strconv.Itoa(res.Len()))
		}
	}
	return res, err
}

func (ip *IndexProj) executeMultiRun(ctx context.Context, plan *CompiledPlan, q value.Index, sel []int, runIDs []string, opt MultiRunOptions) (*Result, error) {
	if ip.q == nil {
		return nil, fmt.Errorf("lineage: no store attached to this evaluator")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.normalize()
	// Duplicate run IDs would stage every matching binding once per
	// occurrence (the chunk loop iterates byRun[runID] per occurrence) and
	// waste probes; unknown runs would silently contribute nothing. Dedup
	// first, then reject unknown runs with the store's sentinel. In partial
	// mode, runs whose existence cannot even be checked (their shard is
	// unavailable) are set aside as degraded instead of failing the query.
	runIDs = dedupRuns(runIDs)
	live, degraded, err := validateRuns(ip.q.HasRun, runIDs, opt.Partial)
	if err != nil {
		return nil, err
	}
	// The columnar decision is made once per query, not per task: every
	// chunk of the same query uses the same probe stage, so the answer is
	// assembled from one consistent path plus the per-run row fallback.
	cs := ip.colScanner(len(live), opt)
	chunks := partitionChunks(ip.q, live, opt.BatchSize)
	// The plan is resolved against q once, into the first chunk's tasks;
	// every later chunk reuses those probes.
	tasks := make([]probeChunk, 0, len(sel)*len(chunks))
	if len(chunks) > 0 {
		for _, i := range sel {
			if idx, ok := plan.resolve(i, q); ok {
				pr := plan.Probes[i]
				pr.Index = idx
				tasks = append(tasks, probeChunk{probe: pr, runs: chunks[0]})
			}
		}
	}
	perChunk := len(tasks)
	for c := 1; c < len(chunks); c++ {
		for _, t := range tasks[:perChunk] {
			tasks = append(tasks, probeChunk{probe: t.probe, runs: chunks[c]})
		}
	}
	mrTasks.Add(int64(len(tasks)))

	// degradeChunk reports whether a chunk failure is absorbable: partial
	// mode is on and the failure is (only ever) shard unavailability. The
	// chunk's runs are marked degraded and the query proceeds.
	degradeChunk := func(res *Result, runs []string, err error) bool {
		if !opt.Partial || !errors.Is(err, store.ErrUnavailable) {
			return false
		}
		res.MarkDegraded(runs...)
		return true
	}
	finish := func(result *Result) *Result {
		result.MarkDegraded(degraded...)
		if n := len(result.DegradedRuns()); n > 0 {
			mrDegraded.Add(int64(n))
		}
		return result
	}

	if opt.Parallelism == 1 || len(tasks) <= 1 {
		result := NewResult()
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := ip.executeProbeChunk(ctx, result, t.probe, t.runs, cs); err != nil {
				if degradeChunk(result, t.runs, err) {
					continue
				}
				return nil, err
			}
		}
		return finish(result), nil
	}

	workers := opt.Parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan probeChunk, len(tasks))
	partials := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("lineage: probe worker panic: %v\n%s", r, debug.Stack())
					cancel()
				}
			}()
			partial := NewResult()
			partials[w] = partial
			for t := range work {
				if errs[w] != nil {
					continue // drain after a failure
				}
				if err := wctx.Err(); err != nil {
					errs[w] = err
					continue
				}
				if err := ip.executeProbeChunk(wctx, partial, t.probe, t.runs, cs); err != nil {
					if degradeChunk(partial, t.runs, err) {
						continue
					}
					errs[w] = err
					cancel() // first error stops the other workers
				}
			}
		}(w)
	}
	for _, t := range tasks {
		work <- t
	}
	close(work)
	wg.Wait()

	if err := store.FirstError(ctx, errs); err != nil {
		return nil, err
	}
	msp := obs.Start(mrMergeNs)
	result := NewResult()
	for w := 0; w < workers; w++ {
		result.Merge(partials[w])
	}
	msp.End()
	return finish(result), nil
}

// executeProbeChunk answers one probe for one chunk of runs. With a column
// scanner selected (cs non-nil), the bindings come from the vectorized stage
// (see colScanBindings); otherwise run-by-run for singleton chunks (exactly
// the sequential single-run executor's store accesses), batched otherwise —
// one store call stages the bindings of every run. Stores with
// ctx-bounded reads (a replicated sharded store) get the caller's deadline,
// so a stalled replica cannot hold the chunk past it.
func (ip *IndexProj) executeProbeChunk(ctx context.Context, result *Result, pr Probe, runIDs []string, cs store.ColumnScanner) error {
	sp := obs.Start(ipProbeNs)
	defer sp.End()
	ipProbes.Add(1)
	var bs []store.Binding // the chunk's bindings, in the chunk's run order
	var byRun map[string][]store.Binding
	var err error
	switch {
	case cs != nil:
		byRun, err = ip.colScanBindings(ctx, pr, runIDs, cs)
	case len(runIDs) == 1:
		bs, err = ip.inputBindings(ctx, runIDs[0], pr.Proc, pr.Port, pr.Index)
	default:
		byRun, err = ip.inputBindingsBatch(ctx, runIDs, pr.Proc, pr.Port, pr.Index)
	}
	if err != nil {
		return err
	}
	for _, runID := range runIDs {
		bs = append(bs, byRun[runID]...)
	}
	return ip.materialize(ctx, result, bs)
}

// The ctx-threading querier helpers: each prefers the store's ctx-bounded
// variant (store.ContextLineageQuerier) and falls back to the plain method.

func (ip *IndexProj) inputBindings(ctx context.Context, runID, proc, port string, idx value.Index) ([]store.Binding, error) {
	if cq, ok := ip.q.(store.ContextLineageQuerier); ok {
		return cq.InputBindingsCtx(ctx, runID, proc, port, idx)
	}
	return ip.q.InputBindings(runID, proc, port, idx)
}

func (ip *IndexProj) inputBindingsBatch(ctx context.Context, runIDs []string, proc, port string, idx value.Index) (map[string][]store.Binding, error) {
	if cq, ok := ip.q.(store.ContextLineageQuerier); ok {
		return cq.InputBindingsBatchCtx(ctx, runIDs, proc, port, idx)
	}
	return ip.q.InputBindingsBatch(runIDs, proc, port, idx)
}

// dedupRuns returns runIDs with duplicates removed, preserving first-seen
// order. The common duplicate-free case returns the input slice unchanged
// (no allocation).
func dedupRuns(runIDs []string) []string {
	seen := make(map[string]bool, len(runIDs))
	for i, r := range runIDs {
		if seen[r] {
			// First duplicate found: copy the unique prefix and filter the rest.
			out := make([]string, i, len(runIDs))
			copy(out, runIDs[:i])
			for _, r := range runIDs[i:] {
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
			return out
		}
		seen[r] = true
	}
	return runIDs
}

// validateRuns rejects unknown runs up front so a multi-run query over a
// nonexistent run surfaces store.ErrUnknownRun instead of silently returning
// an empty result. Existence checks are point lookups on the runs table and
// are not counted as probes. In partial mode, a run whose existence cannot be
// checked because its shard is unavailable is returned in degraded rather
// than failing the query; any other check failure — including an unknown
// run, which is a semantic answer from a healthy shard — still fails it.
func validateRuns(hasRun func(string) (bool, error), runIDs []string, partial bool) (live, degraded []string, err error) {
	live = runIDs
	for i, r := range runIDs {
		ok, err := hasRun(r)
		if err != nil {
			if partial && errors.Is(err, store.ErrUnavailable) {
				if len(degraded) == 0 {
					// First degraded run: switch to a filtered copy.
					live = append([]string(nil), runIDs[:i]...)
				}
				degraded = append(degraded, r)
				continue
			}
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fmt.Errorf("lineage: %w: %q", store.ErrUnknownRun, r)
		}
		if len(degraded) > 0 {
			live = append(live, r)
		}
	}
	return live, degraded, nil
}

// partitionChunks forms the executor's run chunks. When the querier
// physically partitions its runs (store.RunPartitioner — e.g. a sharded
// store), chunks are formed within one partition at a time, so every
// batched probe lands on a single partition instead of scattering to
// several; the answer is identical either way, because runs are
// independent (§3.4) and chunking only groups round-trips.
func partitionChunks(q store.LineageQuerier, runIDs []string, size int) [][]string {
	rp, ok := q.(store.RunPartitioner)
	if !ok {
		return chunkRuns(runIDs, size)
	}
	var chunks [][]string
	for _, part := range rp.PartitionRuns(runIDs) {
		chunks = append(chunks, chunkRuns(part, size)...)
	}
	return chunks
}

// chunkRuns partitions runIDs into consecutive chunks of at most size runs.
// size is clamped to 1 so a miscalling future caller gets tiny chunks, not
// an infinite loop.
func chunkRuns(runIDs []string, size int) [][]string {
	if len(runIDs) == 0 {
		return nil
	}
	if size < 1 {
		size = 1
	}
	chunks := make([][]string, 0, (len(runIDs)+size-1)/size)
	for start := 0; start < len(runIDs); start += size {
		end := start + size
		if end > len(runIDs) {
			end = len(runIDs)
		}
		chunks = append(chunks, runIDs[start:end])
	}
	return chunks
}
