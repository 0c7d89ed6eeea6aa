package lineage

import (
	"context"
	"fmt"

	"repro/internal/store"
	"repro/internal/value"
)

// valueReader is the one read materialize needs from a store; every
// store.LineageQuerier and store.TraceQuerier has it.
type valueReader interface {
	Value(runID string, valID int64) (value.Value, error)
}

// materialize is the last operator of every executor: it turns the bindings a
// probe or a traversal step matched into entries of the result, and is the
// only place values are attached. While the bindings come from a single run
// it reads one Value per binding the result does not hold yet — exactly the
// sequential executor's store accesses, minus repeats; when they span runs
// and the store offers it, one ValuesBatch reads every distinct value once.
// A store with ctx-bounded reads gets the caller's deadline.
func materialize(ctx context.Context, q valueReader, result *Result, bs []store.Binding) error {
	cq, _ := q.(store.ContextLineageQuerier)
	spansRuns := false
	for _, b := range bs {
		spansRuns = spansRuns || b.RunID != bs[0].RunID
	}
	var vals map[store.ValueRef]value.Value // the batched read, when there is one
	if lq, ok := q.(store.LineageQuerier); ok && spansRuns {
		refs := make([]store.ValueRef, len(bs))
		for i, b := range bs {
			refs[i] = store.ValueRef{RunID: b.RunID, ValID: b.ValID}
		}
		var err error
		if cq != nil {
			vals, err = cq.ValuesBatchCtx(ctx, refs)
		} else {
			vals, err = lq.ValuesBatch(refs)
		}
		if err != nil {
			return err
		}
	}
	for _, b := range bs {
		k := bindingKey(b)
		if _, held := result.entries[k]; held {
			continue
		}
		v, ok := vals[store.ValueRef{RunID: b.RunID, ValID: b.ValID}]
		var err error
		switch {
		case vals != nil && !ok:
			err = fmt.Errorf("lineage: missing value %d in run %q", b.ValID, b.RunID)
		case vals != nil:
		case cq != nil:
			v, err = cq.ValueCtx(ctx, b.RunID, b.ValID)
		default:
			v, err = q.Value(b.RunID, b.ValID)
		}
		if err != nil {
			return err
		}
		result.entries[k] = Entry{RunID: b.RunID, Proc: b.Proc, Port: b.Port, Index: b.Index, Ctx: b.Ctx, Value: v}
	}
	return nil
}

func bindingKey(b store.Binding) entryKey {
	return entryKey{runID: b.RunID, proc: b.Proc, port: b.Port, idx: b.Index.String()}
}
