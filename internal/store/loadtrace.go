package store

import (
	"fmt"
	"sort"

	"repro/internal/reldb"
	"repro/internal/trace"
	"repro/internal/value"
)

// LoadTrace reconstructs the full in-memory trace of a stored run — the
// inverse of StoreTrace. It is used to export provenance graphs of stored
// runs and to run the in-memory reference algorithms over persisted data.
// Event grouping is recovered from the stored event IDs; xform inputs come
// back in port-declaration order.
func (s *Store) LoadTrace(runID string) (*trace.Trace, error) {
	return loadTraceOn(s.engine(), runID)
}

func loadTraceOn(r reader, runID string) (*trace.Trace, error) {
	ofRun := reldb.Eq("run_id", reldb.S(runID))
	runs, err := r.selectRows("runs", ofRun)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRun, runID)
	}
	t := &trace.Trace{RunID: runID, Workflow: runs[0][runsWorkflow].Str()}

	// Values, interned by ID.
	rows, err := r.selectRows("vals", ofRun)
	if err != nil {
		return nil, err
	}
	vals := make(map[int64]value.Value, len(rows))
	for _, row := range rows {
		id := row[valsID].Int()
		if vals[id], err = value.Decode(row[valsPayload].Str()); err != nil {
			return nil, fmt.Errorf("store: value %d of run %q: %w", id, runID, err)
		}
	}
	// binding rebuilds the binding stored at four columns of a row.
	binding := func(row reldb.Row, proc, port, idx, ctx, valID int) (trace.Binding, error) {
		index, err := ParseIdxKey(row[idx].Str())
		if err != nil {
			return trace.Binding{}, err
		}
		v, ok := vals[row[valID].Int()]
		if !ok {
			return trace.Binding{}, fmt.Errorf("store: run %q references missing value %d", runID, row[valID].Int())
		}
		return trace.Binding{Proc: row[proc].Str(), Port: row[port].Str(), Index: index, Ctx: int(row[ctx].Int()), Value: v}, nil
	}

	// Xform events, rebuilt by event ID: inputs in (event_id, pos) order,
	// then outputs in event_id order. An event may have no inputs (a source
	// processor with only defaults); it is then created from its first
	// output.
	events := make(map[int64]*trace.XformEvent)
	order := []int64{}
	event := func(row reldb.Row, eventCol, procCol int) *trace.XformEvent {
		id := row[eventCol].Int()
		ev, ok := events[id]
		if !ok {
			ev = &trace.XformEvent{Proc: row[procCol].Str()}
			events[id] = ev
			order = append(order, id)
		}
		return ev
	}
	if rows, err = selectOrdered(r, "xform_in", ofRun, inEvent, inPos); err != nil {
		return nil, err
	}
	for _, row := range rows {
		b, err := binding(row, inProc, inPort, inIdx, inCtx, inVal)
		if err != nil {
			return nil, err
		}
		ev := event(row, inEvent, inProc)
		ev.Inputs = append(ev.Inputs, b)
	}
	if rows, err = selectOrdered(r, "xform_out", ofRun, outEvent); err != nil {
		return nil, err
	}
	for _, row := range rows {
		b, err := binding(row, outProc, outPort, outIdx, outCtx, outVal)
		if err != nil {
			return nil, err
		}
		ev := event(row, outEvent, outProc)
		ev.Outputs = append(ev.Outputs, b)
	}
	for _, id := range order {
		t.Xforms = append(t.Xforms, *events[id])
	}

	// Xfer events.
	if rows, err = r.selectRows("xfer", ofRun); err != nil {
		return nil, err
	}
	for _, row := range rows {
		from, err := binding(row, xferFromProc, xferFromPort, xferFromIdx, xferFromCtx, xferVal)
		if err != nil {
			return nil, err
		}
		to, err := binding(row, xferToProc, xferToPort, xferToIdx, xferToCtx, xferVal)
		if err != nil {
			return nil, err
		}
		t.Xfers = append(t.Xfers, trace.XferEvent{From: from, To: to})
	}
	return t, nil
}

// selectOrdered selects a run's rows ordered by the given integer columns.
// The engine already returns them so — xin_evt and xout_evt are the indexes
// it walks for a run_id equality — unless it had to fall back (a quarantined
// index), in which case they are sorted here.
func selectOrdered(r reader, table string, ofRun reldb.Pred, by ...int) ([]reldb.Row, error) {
	rows, err := r.selectRows(table, ofRun)
	if err != nil {
		return nil, err
	}
	less := func(i, j int) bool {
		for _, c := range by {
			if a, b := rows[i][c].Int(), rows[j][c].Int(); a != b {
				return a < b
			}
		}
		return false
	}
	if !sort.SliceIsSorted(rows, less) {
		sort.SliceStable(rows, less)
	}
	return rows, nil
}
