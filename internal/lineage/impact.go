package lineage

import (
	"context"

	"repro/internal/store"
	"repro/internal/value"
)

// Impact is the forward dual of lineage: starting from a binding, it
// traverses the provenance graph *downwards* and reports the output bindings
// of focus processors that depend on it — "what was affected by this
// input?". The paper only treats the backward direction; forward queries
// reuse the same extensional trace and granularity rules. (The index
// projection rule does not invert cheaply in this direction — an input
// fragment constrains a middle segment of q rather than a prefix — so
// impact queries use the extensional traversal.)
type Impact struct {
	s store.TraceQuerier
}

// NewImpact returns a forward-query evaluator over a provenance store — a
// single *store.Store or any other TraceQuerier.
func NewImpact(s store.TraceQuerier) *Impact { return &Impact{s: s} }

// Affected computes the forward closure of ⟨proc:port[idx]⟩ within one run,
// collecting the output bindings of focus processors encountered on the
// paths. Focusing the pseudo-processor "" collects workflow outputs.
func (im *Impact) Affected(runID, proc, port string, idx value.Index, focus Focus) (*Result, error) {
	result := NewResult()
	start := node{proc: proc, port: port, idx: idx.Clone()}
	visited := map[entryKey]bool{start.key(): true}
	stack := []node{start}

	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		push := func(next node) {
			k := next.key()
			if !visited[k] {
				visited[k] = true
				stack = append(stack, next)
			}
		}

		// Activations consuming this binding: their outputs are affected.
		events, err := im.s.XformsByInput(runID, cur.proc, cur.port, cur.idx)
		if err != nil {
			return nil, err
		}
		for _, ev := range events {
			if focus[ev.Proc] {
				if err := materialize(context.TODO(), im.s, result, ev.Outputs); err != nil {
					return nil, err
				}
			}
			for _, out := range ev.Outputs {
				push(node{proc: out.Proc, port: out.Port, idx: out.Index})
			}
		}

		// Transfers carrying this binding downstream.
		xfers, err := im.s.XfersFrom(runID, cur.proc, cur.port)
		if err != nil {
			return nil, err
		}
		for _, xf := range xfers {
			down, ok := translateAcrossXfer(cur.idx, xf.From.Index, xf.To.Index)
			if !ok {
				continue
			}
			if focus[xf.To.Proc] && isSinkPseudo(xf.To.Proc) {
				sink := xf.To
				sink.Index = down
				if err := materialize(context.TODO(), im.s, result, []store.Binding{sink}); err != nil {
					return nil, err
				}
			}
			push(node{proc: xf.To.Proc, port: xf.To.Port, idx: down})
		}
	}
	return result, nil
}

// isSinkPseudo reports whether a processor name denotes a workflow (or
// sub-workflow) pseudo-processor, whose ports are only reached by xfer.
func isSinkPseudo(proc string) bool {
	return proc == "" || proc[len(proc)-1] == '/'
}
