package main

import (
	"database/sql"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/reldb"
	"repro/internal/store"
	"repro/internal/value"
)

// This file holds the tracing machinery of the traced run: an in-memory span
// recorder, a timing decorator for the store's read interfaces (the one seam
// a caller can wrap), and the SQL / engine / column-segment equivalents of
// store calls, which reach the layers below the store that no caller can
// wrap. Nothing here touches internal/: every span is taken around a call
// into a layer's public functions.

// span is one timed call at a layer seam. Spans of one traced query share
// Query; Parent is the span of the enclosing layer (0 for the query's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Beyond keep queries it
// still hands out IDs (callers need them for parent links) but stores
// nothing, so a long traced run stays bounded.
type recorder struct {
	base  time.Time
	spans []span
	next  int32
	query int32
	keep  int32
}

func newRecorder(keepQueries int) *recorder {
	return &recorder{base: time.Now(), keep: int32(keepQueries)}
}

func (r *recorder) now() int64 { return time.Since(r.base).Nanoseconds() }

// add records a finished span and returns its ID and duration in µs.
func (r *recorder) add(name string, parent int32, start, end int64) (int32, float64) {
	id := r.reserve()
	return id, r.addReserved(id, name, parent, start, end)
}

// reserve hands out an ID for a span whose children are recorded before it
// ends.
func (r *recorder) reserve() int32 { r.next++; return r.next }

func (r *recorder) addReserved(id int32, name string, parent int32, start, end int64) float64 {
	if r.query <= r.keep {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Query: r.query, Name: name, Start: start, End: end})
	}
	return float64(end-start) / 1e3
}

func (r *recorder) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].ID < r.spans[j].ID })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed,
		"spans are separate calls of the same query one layer down (outside-in); a layer's self time is its span minus its child spans' durations",
		r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// opKind names a store read operation.
type opKind uint8

const (
	opInputBindings opKind = iota
	opValue
	opInputBindingsBatch
	opValuesBatch
	opColScan
	opXformsByOutput
	opXfersTo
)

var opSpanNames = [...]string{"store.probe", "store.probe", "store.probe_batch", "store.values_batch",
	"store.colscan", "store.trace_read", "store.trace_read"}

// storeCall is one recorded call through the timing decorator, with what is
// needed to replay its equivalents one layer down.
type storeCall struct {
	op     opKind
	id     int32
	us     float64
	runID  string
	runIDs []string
	proc   string
	port   string
	idx    value.Index
	valID  int64
	events []int64 // opXformsByOutput: the matched events, whose inputs were read one by one
}

// reads is what the lineage evaluators need from a store: both read
// surfaces plus the columnar fast path. *store.Store and *store.View
// provide it.
type reads interface {
	store.LineageQuerier
	store.TraceQuerier
	store.ColumnScanner
}

// timedReads decorates a store's read surface: every call is forwarded
// unchanged and recorded as a span under parent. It is used single-threaded
// (the traced executor runs with parallelism 1), so it needs no lock.
type timedReads struct {
	reads
	rec    *recorder
	parent int32
	calls  []storeCall
}

func (t *timedReads) begin(parent int32) {
	t.parent = parent
	t.calls = t.calls[:0]
}

// total is the time of the calls recorded since begin, in µs.
func (t *timedReads) total() float64 {
	var us float64
	for i := range t.calls {
		us += t.calls[i].us
	}
	return us
}

func (t *timedReads) done(c storeCall, start int64) {
	c.id, c.us = t.rec.add(opSpanNames[c.op], t.parent, start, t.rec.now())
	t.calls = append(t.calls, c)
}

func (t *timedReads) InputBindings(runID, proc, port string, idx value.Index) ([]store.Binding, error) {
	s := t.rec.now()
	out, err := t.reads.InputBindings(runID, proc, port, idx)
	t.done(storeCall{op: opInputBindings, runID: runID, proc: proc, port: port, idx: idx}, s)
	return out, err
}

func (t *timedReads) InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) (map[string][]store.Binding, error) {
	s := t.rec.now()
	out, err := t.reads.InputBindingsBatch(runIDs, proc, port, idx)
	c := storeCall{op: opInputBindingsBatch, runIDs: runIDs, proc: proc, port: port, idx: idx}
	if len(runIDs) == 1 { // the store answers a singleton batch with the point probe
		c.op, c.runID = opInputBindings, runIDs[0]
	}
	t.done(c, s)
	return out, err
}

func (t *timedReads) Value(runID string, valID int64) (value.Value, error) {
	s := t.rec.now()
	out, err := t.reads.Value(runID, valID)
	t.done(storeCall{op: opValue, runID: runID, valID: valID}, s)
	return out, err
}

func (t *timedReads) ValuesBatch(refs []store.ValueRef) (map[store.ValueRef]value.Value, error) {
	s := t.rec.now()
	out, err := t.reads.ValuesBatch(refs)
	t.done(storeCall{op: opValuesBatch}, s)
	return out, err
}

func (t *timedReads) ColScanBindings(runIDs []string, proc, port string, idx value.Index) (map[string][]store.Binding, []string, error) {
	s := t.rec.now()
	out, missing, err := t.reads.ColScanBindings(runIDs, proc, port, idx)
	c := storeCall{op: opColScan, proc: proc, port: port, idx: idx}
	t.done(c, s)
	// Replayed against colstore only for the runs the store had segments for.
	skip := make(map[string]bool, len(missing))
	for _, r := range missing {
		skip[r] = true
	}
	last := &t.calls[len(t.calls)-1]
	for _, r := range runIDs {
		if !skip[r] {
			last.runIDs = append(last.runIDs, r)
		}
	}
	return out, missing, err
}

func (t *timedReads) XformsByOutput(runID, proc, port string, idx value.Index) ([]store.Xform, error) {
	s := t.rec.now()
	out, err := t.reads.XformsByOutput(runID, proc, port, idx)
	c := storeCall{op: opXformsByOutput, runID: runID, proc: proc, port: port, idx: idx}
	for _, x := range out {
		c.events = append(c.events, x.EventID)
	}
	t.done(c, s)
	return out, err
}

func (t *timedReads) XfersTo(runID, proc, port string) ([]store.Xfer, error) {
	s := t.rec.now()
	out, err := t.reads.XfersTo(runID, proc, port)
	t.done(storeCall{op: opXfersTo, runID: runID, proc: proc, port: port}, s)
	return out, err
}

// below replays a store call one and two layers down: the equivalent
// prepared statements through database/sql + sqlike, and the equivalent
// reldb selects. The statement texts are the store's own probe queries.
//
// On a workload that reads through a pinned view, the replays read through a
// transaction and an engine snapshot pinned at the same epoch, so they see
// the rows the view sees however much is ingested meanwhile.
type below struct {
	rec     *recorder
	prepare func(string) (*sql.Stmt, error)
	sel     func(table string, preds []reldb.Pred, limit int) ([]reldb.Row, error)
	release func()
	stmts   map[string]*prepStmt
}

type prepStmt struct {
	st   *sql.Stmt
	dest []any // scan targets of the Go types the store scans into
}

// scanTypes gives, per statement, the column types the store scans its rows
// into (s = string, i = int64), so a replayed row costs what a store row
// costs in database/sql's conversion.
var scanTypes = map[string]string{
	sqlInsPrefix: "sii", sqlInsExact: "sii", sqlValue: "s", sqlBatchPrefix: "ssii",
	sqlOutsPrefix: "isii", sqlOutsExact: "isii", sqlEventIns: "isssii", sqlXfersTo: "sssisii",
}

const (
	sqlInsPrefix   = `SELECT idx, ctx, val_id FROM xform_in WHERE run_id = ? AND proc = ? AND port = ? AND idx LIKE ?`
	sqlInsExact    = `SELECT idx, ctx, val_id FROM xform_in WHERE run_id = ? AND proc = ? AND port = ? AND idx = ?`
	sqlValue       = `SELECT payload FROM vals WHERE run_id = ? AND val_id = ?`
	sqlBatchPrefix = `SELECT run_id, idx, ctx, val_id FROM xform_in WHERE proc = ? AND port = ? AND idx LIKE ?`
	sqlOutsPrefix  = `SELECT event_id, idx, ctx, val_id FROM xform_out WHERE run_id = ? AND proc = ? AND port = ? AND idx LIKE ?`
	sqlOutsExact   = `SELECT event_id, idx, ctx, val_id FROM xform_out WHERE run_id = ? AND proc = ? AND port = ? AND idx = ?`
	sqlEventIns    = `SELECT pos, proc, port, idx, ctx, val_id FROM xform_in WHERE run_id = ? AND event_id = ? ORDER BY pos`
	sqlXfersTo     = `SELECT from_proc, from_port, from_idx, from_ctx, to_idx, to_ctx, val_id FROM xfer WHERE run_id = ? AND to_proc = ? AND to_port = ?`
)

func newBelow(rec *recorder, st *store.Store, rdb *reldb.DB, pinned bool) (*below, error) {
	b := &below{rec: rec, prepare: st.DB().Prepare, sel: rdb.Select, release: func() {}, stmts: make(map[string]*prepStmt)}
	if pinned {
		tx, err := st.DB().Begin()
		if err != nil {
			return nil, err
		}
		snap := rdb.Snapshot()
		b.prepare, b.sel = tx.Prepare, snap.Select
		b.release = func() { tx.Rollback(); snap.Release() }
	}
	return b, nil
}

func (b *below) close() {
	for _, ps := range b.stmts {
		ps.st.Close()
	}
	b.release()
}

func (b *below) stmt(text string) (*prepStmt, error) {
	if ps := b.stmts[text]; ps != nil {
		return ps, nil
	}
	st, err := b.prepare(text)
	if err != nil {
		return nil, err
	}
	ps := &prepStmt{st: st}
	for _, c := range scanTypes[text] {
		if c == 's' {
			ps.dest = append(ps.dest, new(string))
		} else {
			ps.dest = append(ps.dest, new(int64))
		}
	}
	b.stmts[text] = ps
	return ps, nil
}

func eqS(col, v string) reldb.Pred { return reldb.Eq(col, reldb.S(v)) }

// equivalent returns the statement a store call issues first — its SQL text
// and arguments — and the reldb select that statement plans to. exact >= 0
// asks instead for the granularity-fallback statement at that truncation of
// the index (point probes and trace reads only).
func equivalent(c *storeCall, exact int) (text, table string, preds []reldb.Pred, args []any) {
	key := store.MustIdxKey(c.idx)
	idxPred, idxArg := reldb.Prefix("idx", key), key+"%"
	if exact >= 0 {
		key = store.MustIdxKey(c.idx.Truncate(exact))
		idxPred, idxArg = eqS("idx", key), key
	}
	switch c.op {
	case opInputBindings, opXformsByOutput:
		text, table = sqlInsPrefix, "xform_in"
		if c.op == opXformsByOutput {
			text, table = sqlOutsPrefix, "xform_out"
		}
		if exact >= 0 {
			text = sqlInsExact
			if c.op == opXformsByOutput {
				text = sqlOutsExact
			}
		}
		return text, table,
			[]reldb.Pred{eqS("run_id", c.runID), eqS("proc", c.proc), eqS("port", c.port), idxPred},
			[]any{c.runID, c.proc, c.port, idxArg}
	case opValue:
		return sqlValue, "vals",
			[]reldb.Pred{eqS("run_id", c.runID), reldb.Eq("val_id", reldb.I(c.valID))}, []any{c.runID, c.valID}
	case opInputBindingsBatch:
		return sqlBatchPrefix, "xform_in",
			[]reldb.Pred{eqS("proc", c.proc), eqS("port", c.port), idxPred}, []any{c.proc, c.port, idxArg}
	case opXfersTo:
		return sqlXfersTo, "xfer",
			[]reldb.Pred{eqS("run_id", c.runID), eqS("to_proc", c.proc), eqS("to_port", c.port)},
			[]any{c.runID, c.proc, c.port}
	}
	return "", "", nil, nil
}

// layerTimes is what one replay cost one and two layers below the store.
type layerTimes struct{ sqlUs, relUs float64 }

// query runs one statement to exhaustion through database/sql (a
// sqlike.query span under parent), then the equivalent reldb select (a
// reldb.select span under that). It returns the rows the statement yielded.
func (b *below) query(parent int32, lt *layerTimes, text, table string, preds []reldb.Pred, args []any) (int, error) {
	ps, err := b.stmt(text)
	if err != nil {
		return 0, err
	}
	// Like every rung, the statement runs once untimed first: the rung
	// above it has just done this work, so timing a cold first call here
	// would bill the cache misses to the wrong layer.
	run := func() (int, error) {
		rows, err := ps.st.Query(args...)
		if err != nil {
			return 0, err
		}
		n := 0
		for rows.Next() {
			if err := rows.Scan(ps.dest...); err != nil {
				rows.Close()
				return 0, err
			}
			n++
		}
		rows.Close()
		return n, rows.Err()
	}
	if _, err := run(); err != nil {
		return 0, err
	}
	s := b.rec.now()
	n, err := run()
	if err != nil {
		return 0, err
	}
	id, us := b.rec.add("sqlike.query", parent, s, b.rec.now())
	lt.sqlUs += us

	if _, err := b.sel(table, preds, -1); err != nil {
		return 0, err
	}
	s = b.rec.now()
	if _, err := b.sel(table, preds, -1); err != nil {
		return 0, err
	}
	_, us = b.rec.add("reldb.select", id, s, b.rec.now())
	lt.relUs += us
	return n, nil
}

// replay issues the SQL and engine equivalents of one recorded store call,
// following the store's own granularity fallback (shorter exact prefixes
// while nothing matches). Calls with no single-statement equivalent
// (ValuesBatch's heuristics, column scans) are not replayed: ok is false.
func (b *below) replay(c *storeCall) (lt layerTimes, ok bool, err error) {
	text, table, preds, args := equivalent(c, -1)
	if text == "" {
		return lt, false, nil
	}
	n, err := b.query(c.id, &lt, text, table, preds, args)
	if c.op == opInputBindings || c.op == opXformsByOutput {
		for k := len(c.idx) - 1; err == nil && n == 0 && k >= 0; k-- {
			text, table, preds, args = equivalent(c, k)
			n, err = b.query(c.id, &lt, text, table, preds, args)
		}
	}
	for _, ev := range c.events {
		if err != nil {
			break
		}
		_, err = b.query(c.id, &lt, sqlEventIns, "xform_in",
			[]reldb.Pred{eqS("run_id", c.runID), reldb.Eq("event_id", reldb.I(ev))}, []any{c.runID, ev})
	}
	return lt, true, err
}

// segments builds, from outside, the column segment the store would build
// for a run (same rows, same order), so a colscan call can be replayed
// against colstore directly.
type segments struct {
	db   *sql.DB
	segs map[string]*colstore.Segment

	builtRows, encodedBytes int
	buildNs                 int64
}

func (s *segments) get(runID string) (*colstore.Segment, error) {
	if seg, ok := s.segs[runID]; ok {
		return seg, nil
	}
	rows, err := s.db.Query(`SELECT event_id, pos, proc, port, idx, ctx, val_id FROM xform_in WHERE run_id = ?`, runID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	type ordered struct {
		evt, pos int64
		row      colstore.Row
	}
	var in []ordered
	for rows.Next() {
		var o ordered
		var ctx int64
		if err := rows.Scan(&o.evt, &o.pos, &o.row.Proc, &o.row.Port, &o.row.Key, &ctx, &o.row.ValID); err != nil {
			return nil, err
		}
		o.row.Ctx = int32(ctx)
		in = append(in, o)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].evt != in[j].evt {
			return in[i].evt < in[j].evt
		}
		return in[i].pos < in[j].pos
	})
	crows := make([]colstore.Row, len(in))
	for i, o := range in {
		crows[i] = o.row
	}
	t0 := time.Now()
	seg := colstore.Build(runID, crows)
	s.buildNs += time.Since(t0).Nanoseconds()
	s.builtRows += len(crows)
	s.encodedBytes += len(seg.Encode())
	s.segs[runID] = seg
	return seg, nil
}

// scan replays a colscan call against the outside-built segments: zone-map
// check, prefix scan, then the granularity fallback, as the store does.
func (s *segments) scan(rec *recorder, c *storeCall) (us float64, examined, matched int, err error) {
	segs := make([]*colstore.Segment, len(c.runIDs))
	for i, id := range c.runIDs {
		if segs[i], err = s.get(id); err != nil {
			return 0, 0, 0, err
		}
	}
	key := store.MustIdxKey(c.idx)
	var scratch []colstore.Match
	start := rec.now()
	for _, seg := range segs {
		if !seg.MayContainProc(c.proc) {
			continue
		}
		scratch = scratch[:0]
		var ex int
		scratch, ex = seg.ScanPrefix(c.proc, c.port, key, scratch)
		examined += ex
		for k := len(c.idx) - 1; k >= 0 && len(scratch) == 0; k-- {
			scratch, ex = seg.ScanExact(c.proc, c.port, store.MustIdxKey(c.idx.Truncate(k)), scratch)
			examined += ex
		}
		matched += len(scratch)
	}
	_, us = rec.add("colstore.scan", c.id, start, rec.now())
	return us, examined, matched, nil
}
