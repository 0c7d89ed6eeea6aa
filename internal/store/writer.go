package store

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/reldb"
	"repro/internal/trace"
	"repro/internal/value"
)

// DefaultBatchRows is the run writer's flush threshold when none is
// given: the number of rows accumulated (across all four event tables)
// before one multi-row flush.
const DefaultBatchRows = 512

// RunWriter persists the provenance events of one run. It implements
// trace.Collector, so it can be handed directly to the engine. Port values
// are deduplicated within the run (bindings reference value IDs), mirroring
// the paper's relational trace layout.
//
// Rows accumulate in memory and are flushed as typed multi-row batches
// straight into the embedded engine: one lock acquisition and one
// group-committed WAL record per table per flush.
type RunWriter struct {
	s        *Store
	ctx      context.Context
	runID    string
	eventSeq int64
	valIDs   map[string]int64

	// Fast interning caches in front of valIDs: the engine shares immutable
	// values across many bindings, so most valID calls see a value already
	// interned. These look it up without re-encoding — by raw content for
	// string/int atoms, by backing-array identity for lists — which is the
	// bulk of ingest time otherwise.
	strIDs  map[string]int64
	intIDs  map[int64]int64
	listIDs map[value.Handle]int64

	// Rows pending flush, in schema column order, per table. Their datums
	// live in arena, one allocation per batch; each flush hands the
	// arena-backed rows to the engine with ownership
	// (reldb.InsertBatchOwned), so the arena is abandoned — never reused —
	// after a flush.
	batchRows int
	arena     []reldb.Datum
	bufVals   []reldb.Row
	bufIn     []reldb.Row
	bufOut    []reldb.Row
	bufXfer   []reldb.Row

	// closed guards the columnar-projection fence: the first Close lifts
	// the run's write fence (making it eligible for segment builds), later
	// Closes only re-flush.
	closed bool
}

// arenaBase readies the batch arena and returns the offset the next row's
// datums start at.
func (w *RunWriter) arenaBase() int {
	if w.arena == nil {
		// Largest schema arity is xfer's 10 columns.
		w.arena = make([]reldb.Datum, 0, w.batchRows*10+16)
	}
	return len(w.arena)
}

// takeRow returns the arena datums appended since base as one row, capped so
// later arena appends cannot alias it.
func (w *RunWriter) takeRow(base int) reldb.Row {
	return reldb.Row(w.arena[base:len(w.arena):len(w.arena)])
}

// NewRunWriter registers a run and returns a collector that buffers its
// events and flushes them as multi-row batches of about batchRows rows
// (<= 0 selects DefaultBatchRows; 1 flushes after every event). The run ID
// must be unique within the store: of several concurrent registrations of
// one ID exactly one succeeds, the others fail with ErrDuplicateRun. The
// caller must Close the writer to flush the final partial batch. On a
// durable store each flush is one group-committed WAL record per table, so
// a crash loses at most the unflushed tail, never part of a flushed batch.
//
// The context governs the writer's lifetime: once it is cancelled, event
// collection and flushes stop with the context's error. Transient storage
// errors during a flush are retried with bounded backoff (the engine rolls
// back and repairs its log on a failed commit, so a retry can never apply a
// batch twice).
func (s *Store) NewRunWriter(ctx context.Context, runID, workflowName string, batchRows int) (*RunWriter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	if err := s.registerRun(runID, workflowName); err != nil {
		return nil, err
	}
	return &RunWriter{
		s:         s,
		ctx:       ctx,
		runID:     runID,
		valIDs:    make(map[string]int64),
		strIDs:    make(map[string]int64),
		intIDs:    make(map[int64]int64),
		listIDs:   make(map[value.Handle]int64),
		batchRows: batchRows,
	}, nil
}

// registerRun adds the run's row to the runs table, or fails with
// ErrDuplicateRun if the ID is taken. The check and the insert are one step
// under regMu, so two writers can never both register one run ID.
func (s *Store) registerRun(runID, workflowName string) error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	n, err := s.rdb.Count("runs", []reldb.Pred{reldb.Eq("run_id", reldb.S(runID))})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if n > 0 {
		return fmt.Errorf("%w: %q", ErrDuplicateRun, runID)
	}
	// Fence the columnar projection before the run becomes visible: any
	// reader that can see this run's rows must also see it marked open, so
	// no stale column segment can shadow rows still being written.
	s.beginRunWrite(runID)
	if _, err := s.rdb.Insert("runs", reldb.Row{reldb.S(runID), reldb.S(workflowName)}); err != nil {
		s.endRunWrite(runID)
		return fmt.Errorf("store: %w", err)
	}
	s.invalidateRunCaches()
	return nil
}

// RunID returns the run this writer persists.
func (w *RunWriter) RunID() string { return w.runID }

// pending returns the number of buffered rows awaiting a flush.
func (w *RunWriter) pending() int {
	return len(w.bufVals) + len(w.bufIn) + len(w.bufOut) + len(w.bufXfer)
}

// Flush writes every buffered row as multi-row batches (values first, so a
// crash cannot persist an event row whose value is still in memory).
// Transient storage errors are retried with bounded backoff; cancellation
// of the writer's context aborts the flush.
func (w *RunWriter) Flush() error {
	if w.pending() == 0 {
		return nil
	}
	if err := w.ctx.Err(); err != nil {
		return err
	}
	sp := obs.Start(obsFlushNs)
	defer sp.End()
	rows := int64(w.pending())
	for _, part := range []struct {
		table string
		rows  *[]reldb.Row
	}{
		{"vals", &w.bufVals},
		{"xform_in", &w.bufIn},
		{"xform_out", &w.bufOut},
		{"xfer", &w.bufXfer},
	} {
		if len(*part.rows) == 0 {
			continue
		}
		// Ownership of the rows — and of the arena backing them — passes to
		// the engine; only the buffer headers are reusable afterwards.
		rows := *part.rows
		err := withRetry(w.ctx, func() error {
			return w.s.rdb.InsertBatchOwned(part.table, rows)
		})
		if err != nil {
			return fmt.Errorf("store: flushing %s: %w", part.table, err)
		}
		*part.rows = (*part.rows)[:0]
	}
	w.arena = nil
	obsIngestBatches.Add(1)
	obsIngestRows.Add(rows)
	return nil
}

func (w *RunWriter) maybeFlush() error {
	if w.pending() >= w.batchRows {
		return w.Flush()
	}
	return nil
}

// Close flushes any buffered rows and lifts the run's columnar-projection
// write fence: from here on, a checkpoint may build a column segment for the
// run.
func (w *RunWriter) Close() error {
	if err := w.Flush(); err != nil {
		// The fence stays down: a run whose final flush failed keeps using
		// row scans (whatever rows did land), it never gets a segment from
		// a writer in an unknown state.
		return err
	}
	if !w.closed {
		w.closed = true
		w.s.endRunWrite(w.runID)
	}
	return nil
}

// Abort discards a run that did not complete: its flushed rows go with the
// run (DeleteRun), and its columnar write fence is lifted if Close did not
// lift it, so a retry of the run ID starts from nothing.
func (w *RunWriter) Abort() error {
	_, err := w.s.DeleteRun(w.runID)
	if !w.closed {
		w.closed = true
		w.s.endRunWrite(w.runID)
	}
	return err
}

// valID interns a port value within the run and returns its ID. Repeat
// values hit one of the non-encoding caches; only first occurrences pay for
// the canonical encoding and the buffered vals row.
func (w *RunWriter) valID(v value.Value) int64 {
	if s, ok := v.StringVal(); ok {
		id, ok := w.strIDs[s]
		if !ok {
			id = w.internPayload(value.Encode(v))
			w.strIDs[s] = id
		}
		return id
	}
	if i, ok := v.IntVal(); ok {
		id, ok := w.intIDs[i]
		if !ok {
			id = w.internPayload(value.Encode(v))
			w.intIDs[i] = id
		}
		return id
	}
	if h := v.Handle(); h.Valid() {
		id, ok := w.listIDs[h]
		if !ok {
			id = w.internPayload(value.Encode(v))
			w.listIDs[h] = id
		}
		return id
	}
	return w.internPayload(value.Encode(v))
}

// internPayload interns a canonically encoded value by payload, buffering
// the vals row on first sight.
func (w *RunWriter) internPayload(payload string) int64 {
	if id, ok := w.valIDs[payload]; ok {
		return id
	}
	id := int64(len(w.valIDs))
	base := w.arenaBase()
	w.arena = append(w.arena, reldb.S(w.runID), reldb.I(id), reldb.S(payload))
	w.bufVals = append(w.bufVals, w.takeRow(base))
	w.valIDs[payload] = id
	return id
}

// Xform implements trace.Collector.
func (w *RunWriter) Xform(e trace.XformEvent) error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	eventID := w.eventSeq
	w.eventSeq++
	for pos, b := range e.Inputs {
		vid := w.valID(b.Value)
		key, err := IdxKey(b.Index)
		if err != nil {
			return err
		}
		base := w.arenaBase()
		w.arena = append(w.arena,
			reldb.S(w.runID), reldb.I(eventID), reldb.I(int64(pos)),
			reldb.S(b.Proc), reldb.S(b.Port), reldb.S(key), reldb.I(int64(b.Ctx)), reldb.I(vid))
		w.bufIn = append(w.bufIn, w.takeRow(base))
	}
	for _, b := range e.Outputs {
		vid := w.valID(b.Value)
		key, err := IdxKey(b.Index)
		if err != nil {
			return err
		}
		base := w.arenaBase()
		w.arena = append(w.arena,
			reldb.S(w.runID), reldb.I(eventID),
			reldb.S(b.Proc), reldb.S(b.Port), reldb.S(key), reldb.I(int64(b.Ctx)), reldb.I(vid))
		w.bufOut = append(w.bufOut, w.takeRow(base))
	}
	return w.maybeFlush()
}

// Xfer implements trace.Collector.
func (w *RunWriter) Xfer(e trace.XferEvent) error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	vid := w.valID(e.To.Value)
	fromKey, err := IdxKey(e.From.Index)
	if err != nil {
		return err
	}
	toKey, err := IdxKey(e.To.Index)
	if err != nil {
		return err
	}
	base := w.arenaBase()
	w.arena = append(w.arena,
		reldb.S(w.runID),
		reldb.S(e.From.Proc), reldb.S(e.From.Port), reldb.S(fromKey), reldb.I(int64(e.From.Ctx)),
		reldb.S(e.To.Proc), reldb.S(e.To.Port), reldb.S(toKey), reldb.I(int64(e.To.Ctx)), reldb.I(vid))
	w.bufXfer = append(w.bufXfer, w.takeRow(base))
	return w.maybeFlush()
}
