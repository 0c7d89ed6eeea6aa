package store

import (
	"errors"

	"repro/internal/reldb"
)

// reader is the engine read handle for one epoch, and the whole seam between
// the live store and a pinned View: every read helper in this package takes
// one. The Store's reader scans the engine's last published version (each
// scan sees the latest committed state); a View's scans its one pinned
// snapshot. It is a two-field value rather than an interface so that scan
// arguments and row callbacks stay on the caller's stack.
type reader struct {
	db   *reldb.DB
	snap *reldb.Snapshot // non-nil: read the pinned epoch instead of the latest
	cur  *reldb.Cursor   // non-nil: scan through one batched call's cursor (see InputBindingsBatch)
}

func (s *Store) engine() reader { return reader{db: s.rdb} }

// errStop, returned by a scan's row callback, ends the scan without error.
var errStop = errors.New("store: stop scan")

// scan runs a prepared scan, handing each matching row to each by reference
// (the row belongs to the engine: copy datums out, never keep or modify the
// slice). The first error each returns ends the scan and is returned. Every
// scan is one lineage-facing probe (countQuery).
func (r reader) scan(sc *reldb.Scan, vals []reldb.Datum, each func(row reldb.Row) error) error {
	if r.cur == nil {
		countQuery(1) // a cursor's scans are counted when its batched call ends
	}
	var rowErr error
	fn := func(_ int64, row reldb.Row) bool {
		rowErr = each(row)
		return rowErr == nil
	}
	var err error
	switch {
	case r.cur != nil:
		err = r.cur.Scan(sc, vals, fn)
	case r.snap != nil:
		err = r.snap.Scan(sc, vals, fn)
	default:
		err = r.db.Scan(sc, vals, fn)
	}
	if err == nil && rowErr != errStop {
		err = rowErr
	}
	return err
}

// selectRows and count serve the cold reads (run listing, record counts,
// whole-trace loads) through the engine's ad-hoc Select and Count.
func (r reader) selectRows(table string, preds ...reldb.Pred) ([]reldb.Row, error) {
	if r.snap != nil {
		return r.snap.Select(table, preds, -1)
	}
	return r.db.Select(table, preds, -1)
}

func (r reader) count(table string, preds []reldb.Pred) (int, error) {
	if r.snap != nil {
		return r.snap.Count(table, preds)
	}
	return r.db.Count(table, preds)
}

// scans holds the access path of every hot read, prepared once per store and
// shared by its Views: one index range scan each, over the composite indexes
// declared in schema.
type scans struct {
	// (run_id, proc, port, idx) probes, idx by prefix or exactly: xout_port
	// and xin_port (once per wanted run in InputBindingsBatch).
	outsPrefix, outsExact *reldb.Scan
	insPrefix, insExact   *reldb.Scan
	// (run_id, event_id): one event's bindings. xin_evt also carries pos,
	// so inputs come back in port-declaration order.
	eventIns, eventOuts *reldb.Scan
	// (run_id, proc, port) transfers by sink and by source.
	xfersTo, xfersFrom *reldb.Scan
	// Values: one by (run_id, val_id), a window of one run's, and a window
	// of every run's over vals_vid.
	value, valsRange, valsRangeAll *reldb.Scan
}

func newScans() scans {
	on := func(op reldb.PredOp, cols ...string) []reldb.PredShape {
		shape := make([]reldb.PredShape, len(cols))
		for i, c := range cols {
			shape[i] = reldb.PredShape{Col: c, Op: reldb.OpEq}
		}
		shape[len(cols)-1].Op = op // the operator of the last column; the rest are equalities
		return shape
	}
	valWindow := []reldb.PredShape{{Col: "val_id", Op: reldb.OpGe}, {Col: "val_id", Op: reldb.OpLe}}
	return scans{
		outsPrefix:   reldb.NewScan("xform_out", on(reldb.OpPrefix, "run_id", "proc", "port", "idx")...),
		outsExact:    reldb.NewScan("xform_out", on(reldb.OpEq, "run_id", "proc", "port", "idx")...),
		insPrefix:    reldb.NewScan("xform_in", on(reldb.OpPrefix, "run_id", "proc", "port", "idx")...),
		insExact:     reldb.NewScan("xform_in", on(reldb.OpEq, "run_id", "proc", "port", "idx")...),
		eventIns:     reldb.NewScan("xform_in", on(reldb.OpEq, "run_id", "event_id")...),
		eventOuts:    reldb.NewScan("xform_out", on(reldb.OpEq, "run_id", "event_id")...),
		xfersTo:      reldb.NewScan("xfer", on(reldb.OpEq, "run_id", "to_proc", "to_port")...),
		xfersFrom:    reldb.NewScan("xfer", on(reldb.OpEq, "run_id", "from_proc", "from_port")...),
		value:        reldb.NewScan("vals", on(reldb.OpEq, "run_id", "val_id")...),
		valsRange:    reldb.NewScan("vals", append(on(reldb.OpEq, "run_id"), valWindow...)...),
		valsRangeAll: reldb.NewScan("vals", valWindow...),
	}
}
