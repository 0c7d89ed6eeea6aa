package lineage

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/value"
)

// Naive is the NI baseline of §2.4/§4: it computes lin(⟨P:Y[p], v⟩, 𝒫) by
// an extensional traversal of the stored provenance graph, issuing one or
// more trace queries per visited node. Its cost therefore grows with the
// length of the provenance paths and, for multi-run queries, linearly with
// the number of runs.
type Naive struct {
	s store.TraceQuerier
}

// NewNaive returns an NI evaluator over a provenance store — a single
// *store.Store or any other TraceQuerier, such as a sharded store routing
// each run's traversal to its owning shard.
func NewNaive(s store.TraceQuerier) *Naive { return &Naive{s: s} }

// node is one traversal state: a binding identified by processor, port and
// full index.
type node struct {
	proc string
	port string
	idx  value.Index
}

func (n node) key() entryKey {
	return entryKey{proc: n.proc, port: n.port, idx: n.idx.String()}
}

// Lineage evaluates lin(⟨proc:port[idx]⟩, focus) within one run. proc may be
// trace.WorkflowProc ("") to start from a workflow output port.
func (n *Naive) Lineage(runID, proc, port string, idx value.Index, focus Focus) (*Result, error) {
	total := obs.Start(niQueryNs)
	result := NewResult()
	if err := n.lineageInto(result, runID, proc, port, idx, focus); err != nil {
		total.End()
		return nil, err
	}
	d := total.End()
	niQueries.Add(1)
	if obs.SlowExceeded(d) {
		obs.Slow("lineage.ni", d,
			"run", runID,
			"binding", proc+":"+port+idx.String(),
			"bindings", strconv.Itoa(result.Len()))
	}
	return result, nil
}

// LineageMultiRun evaluates the same query over a set of runs, unioning the
// per-run answers. NI has no shared work between runs: each run costs a full
// traversal (this is the behaviour Fig. 4 of the paper contrasts with
// INDEXPROJ).
func (n *Naive) LineageMultiRun(runIDs []string, proc, port string, idx value.Index, focus Focus) (*Result, error) {
	total := obs.Start(niQueryNs)
	runIDs = dedupRuns(runIDs)
	if _, _, err := validateRuns(n.s.HasRun, runIDs, false); err != nil {
		total.End()
		return nil, err
	}
	result := NewResult()
	for _, runID := range runIDs {
		if err := n.lineageInto(result, runID, proc, port, idx, focus); err != nil {
			total.End()
			return nil, err
		}
	}
	d := total.End()
	niQueries.Add(1)
	if obs.SlowExceeded(d) {
		obs.Slow("lineage.ni", d,
			"runs", strconv.Itoa(len(runIDs)),
			"binding", proc+":"+port+idx.String(),
			"bindings", strconv.Itoa(result.Len()))
	}
	return result, nil
}

func (n *Naive) lineageInto(result *Result, runID, proc, port string, idx value.Index, focus Focus) error {
	start := node{proc: proc, port: port, idx: idx.Clone()}
	visited := map[entryKey]bool{start.key(): true}
	stack := []node{start}

	// NI's cost splits into graph traversal (the store queries walking the
	// extensional provenance graph) and value materialization — its analogue
	// of INDEXPROJ's probe phase. The materialization time is accumulated in
	// probeNs around materialize and subtracted from the loop's wall time, so
	// traverse_ns + probe_ns never exceeds the whole traversal.
	var probeNs int64
	var nodes int64
	var t0 time.Time
	if obs.Enabled() {
		t0 = time.Now()
	}

	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		push := func(next node) {
			k := next.key()
			if !visited[k] {
				visited[k] = true
				stack = append(stack, next)
			}
		}

		// Case 1 of Def. 1: the binding is an output of some xform events.
		// The store applies the granularity rules (exact-or-finer first,
		// else the longest coarser prefix).
		events, err := n.s.XformsByOutput(runID, cur.proc, cur.port, cur.idx)
		if err != nil {
			return err
		}
		for _, ev := range events {
			if focus[ev.Proc] {
				var m0 time.Time
				if obs.Enabled() {
					m0 = time.Now()
				}
				err := materialize(context.TODO(), n.s, result, ev.Inputs)
				if obs.Enabled() {
					probeNs += time.Since(m0).Nanoseconds()
				}
				if err != nil {
					return fmt.Errorf("lineage: %w", err)
				}
			}
			for _, in := range ev.Inputs {
				push(node{proc: in.Proc, port: in.Port, idx: in.Index})
			}
		}

		// Case 2 of Def. 1: the binding was transferred along arcs; follow
		// each overlapping xfer upstream, translating the index.
		xfers, err := n.s.XfersTo(runID, cur.proc, cur.port)
		if err != nil {
			return err
		}
		for _, xf := range xfers {
			up, ok := translateAcrossXfer(cur.idx, xf.To.Index, xf.From.Index)
			if !ok {
				continue
			}
			push(node{proc: xf.From.Proc, port: xf.From.Port, idx: up})
		}
	}
	if obs.Enabled() {
		loopNs := time.Since(t0).Nanoseconds()
		if probeNs > loopNs {
			probeNs = loopNs // clock skew guard; keeps the split a partition
		}
		niProbeNs.Observe(probeNs)
		niTraverseNs.Observe(loopNs - probeNs)
		niNodes.Add(nodes)
	}
	return nil
}

// translateAcrossXfer maps a query index at the sink of an xfer event to the
// corresponding index at its source. Ordinary xfers record the whole-value
// transfer (To.Index == From.Index == the run context), so indices propagate
// verbatim; nested-dataflow boundary xfers remap a parent element index to a
// sub-run context, and the residual carries across. An event whose sink
// index does not overlap the query index (a different activation) does not
// match.
func translateAcrossXfer(queryIdx, toIdx, fromIdx value.Index) (value.Index, bool) {
	switch {
	case queryIdx.HasPrefix(toIdx):
		residual := queryIdx.Slice(len(toIdx), len(queryIdx))
		return fromIdx.Concat(residual), true
	case toIdx.HasPrefix(queryIdx):
		// The event is finer than the query: take its whole source index.
		return fromIdx.Clone(), true
	default:
		return nil, false
	}
}
