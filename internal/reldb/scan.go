package reldb

import (
	"bytes"
	"fmt"
	"sync/atomic"
)

// PredOp is the comparison operator of a predicate.
type PredOp uint8

const (
	// OpEq matches rows whose column equals the value.
	OpEq PredOp = iota
	// OpPrefix matches string rows whose column starts with the value
	// (SQL: col LIKE 'prefix%'). Prefix predicates are index-accelerated
	// when the column directly follows the equality columns in an index.
	OpPrefix
	// OpLt, OpLe, OpGt, OpGe are range comparisons against non-NULL values
	// of the column's type. A single range-bounded column directly following
	// the equality columns in an index turns into a bounded index scan.
	OpLt
	OpLe
	OpGt
	OpGe
)

// Pred is a predicate on a named column.
type Pred struct {
	Col string
	Val Datum
	Op  PredOp
}

// Eq builds an equality predicate.
func Eq(col string, val Datum) Pred { return Pred{Col: col, Val: val, Op: OpEq} }

// Prefix builds a string-prefix predicate.
func Prefix(col string, prefix string) Pred {
	return Pred{Col: col, Val: S(prefix), Op: OpPrefix}
}

// Lt builds a "column < value" predicate.
func Lt(col string, val Datum) Pred { return Pred{Col: col, Val: val, Op: OpLt} }

// Le builds a "column <= value" predicate.
func Le(col string, val Datum) Pred { return Pred{Col: col, Val: val, Op: OpLe} }

// Gt builds a "column > value" predicate.
func Gt(col string, val Datum) Pred { return Pred{Col: col, Val: val, Op: OpGt} }

// Ge builds a "column >= value" predicate.
func Ge(col string, val Datum) Pred { return Pred{Col: col, Val: val, Op: OpGe} }

// PredShape is a predicate without its value: everything a scan can be
// planned from before any argument is known.
type PredShape struct {
	Col string
	Op  PredOp
}

// Scan is a prepared scan of one table under a fixed predicate shape — the
// typed counterpart of a prepared SELECT … WHERE. Its access path is planned
// on first use and reused until the table's index set changes (an index
// created, quarantined or rebuilt), so running it costs the bound encoding
// and the B-tree walk and nothing else. A Scan is safe for concurrent use;
// prepare one per database, as plans are cached per table layout.
type Scan struct {
	table string
	shape []PredShape
	plan  atomic.Pointer[scanPlan]
}

// NewScan prepares a scan of the named table; Scan calls supply one value
// per predicate, in shape order.
func NewScan(table string, shape ...PredShape) *Scan {
	return &Scan{table: table, shape: shape}
}

// planFor returns the scan's plan for a table, re-planning when the cached
// one was made against a different layout.
func (sc *Scan) planFor(t *Table) (*scanPlan, error) {
	if p := sc.plan.Load(); p != nil && p.layout == t.layout {
		return p, nil
	}
	p := new(scanPlan)
	if err := p.init(t, sc.shape); err != nil {
		return nil, err
	}
	sc.plan.Store(p)
	return p, nil
}

// layoutToken identifies one state of a table's schema, index set and
// quarantine flags — everything a scanPlan depends on. Tables share a token
// across freezes and get a fresh one whenever any of those change, so plan
// validity is one pointer comparison.
type layoutToken struct{ _ byte }

// scanPlan is the access path chosen for one (table layout, predicate
// shape) pair: which index to walk and which predicates bound the walk.
type scanPlan struct {
	layout *layoutToken
	preds  []planPred // per predicate: its column's schema position, and its operator
	ix     int        // position of the chosen index in Table.indexes; -1 = heap scan
	eq     []int      // the predicate supplying each covered index column, in index order
	prefix int        // the prefix predicate on the next index column; -1 = none
	ranges []int      // the range predicates on the next index column (when prefix < 0)
}

type planPred struct {
	col int
	op  PredOp
}

// init plans a scan: it chooses the index covering the longest run of
// equality columns, counting a prefix or range predicate on the following
// index column as half a column of selectivity. Indexes quarantined by an
// integrity check (see VerifyIndexes) are bypassed — queries degrade to a
// heap scan rather than returning rows from a structure known to be wrong.
func (p *scanPlan) init(t *Table, shape []PredShape) error {
	n := len(shape)
	ints := make([]int, 2*n) // eq and ranges each hold at most one entry per predicate
	*p = scanPlan{layout: t.layout, preds: make([]planPred, n), eq: ints[:0:n], ranges: ints[n:n], ix: -1, prefix: -1}
	for i, s := range shape {
		pos, ok := t.Schema.ColIndex(s.Col)
		if !ok {
			return fmt.Errorf("reldb: table %q has no column %q", t.Name, s.Col)
		}
		p.preds[i] = planPred{col: pos, op: s.Op}
		if s.Op > OpGe {
			return fmt.Errorf("reldb: unknown predicate op %d", s.Op)
		}
		if s.Op == OpPrefix && t.Schema[pos].Type != TString {
			return fmt.Errorf("reldb: table %q: prefix predicate on %q requires TEXT", t.Name, s.Col)
		}
	}
	// next finds the first predicate at or after from with the given kind on
	// a column (-1 if none); the four range operators count as one kind, OpLt.
	next := func(col int, kind PredOp, from int) int {
		for i := from; i < n; i++ {
			if p.preds[i].col == col && min(p.preds[i].op, OpLt) == kind {
				return i
			}
		}
		return -1
	}
	covered, bestScore := 0, 0
	for k, cand := range t.indexes {
		if cand.damaged {
			continue
		}
		eqs := 0
		for eqs < len(cand.Cols) && next(cand.Cols[eqs], OpEq, 0) >= 0 {
			eqs++
		}
		score := 2 * eqs
		if eqs < len(cand.Cols) && (next(cand.Cols[eqs], OpPrefix, 0) >= 0 || next(cand.Cols[eqs], OpLt, 0) >= 0) {
			score++
		}
		if score > bestScore {
			p.ix, covered, bestScore = k, eqs, score
		}
	}
	if p.ix < 0 {
		return nil
	}
	ixCols := t.indexes[p.ix].Cols
	for _, c := range ixCols[:covered] {
		p.eq = append(p.eq, next(c, OpEq, 0))
	}
	if covered < len(ixCols) {
		// The last prefix predicate on the column bounds the walk; without
		// one, every range predicate on it does.
		for i := next(ixCols[covered], OpPrefix, 0); i >= 0; i = next(ixCols[covered], OpPrefix, i+1) {
			p.prefix = i
		}
		for i := next(ixCols[covered], OpLt, 0); i >= 0 && p.prefix < 0; i = next(ixCols[covered], OpLt, i+1) {
			p.ranges = append(p.ranges, i)
		}
	}
	return nil
}

// checkVals validates the scan's arguments against the column types.
func (p *scanPlan) checkVals(t *Table, vals []Datum) error {
	if len(vals) != len(p.preds) {
		return fmt.Errorf("reldb: scan of %q takes %d values, got %d", t.Name, len(p.preds), len(vals))
	}
	for i, v := range vals {
		col := t.Schema[p.preds[i].col]
		switch p.preds[i].op {
		case OpEq:
			if !v.IsNull() && v.Type() != col.Type {
				return fmt.Errorf("reldb: table %q: predicate on %q expects %v, got %v",
					t.Name, col.Name, col.Type, v.Type())
			}
		case OpPrefix:
			if v.Type() != TString {
				return fmt.Errorf("reldb: table %q: prefix predicate on %q requires TEXT", t.Name, col.Name)
			}
		default:
			if v.IsNull() || v.Type() != col.Type {
				return fmt.Errorf("reldb: table %q: range predicate on %q requires a non-NULL %v",
					t.Name, col.Name, col.Type)
			}
		}
	}
	return nil
}

// matches reports whether a row satisfies every predicate.
func (p *scanPlan) matches(row Row, vals []Datum) bool {
	for i, v := range vals {
		d := row[p.preds[i].col]
		switch op := p.preds[i].op; op {
		case OpEq:
			if !d.Equal(v) {
				return false
			}
		case OpPrefix:
			if d.Type() != TString || len(d.Str()) < len(v.Str()) || d.Str()[:len(v.Str())] != v.Str() {
				return false
			}
		default:
			if d.IsNull() || d.Type() != v.Type() {
				return false
			}
			c := d.Compare(v)
			if (op == OpLt && c >= 0) || (op == OpLe && c > 0) || (op == OpGt && c <= 0) || (op == OpGe && c < 0) {
				return false
			}
		}
	}
	return true
}

// bounds encodes the index range [from, to) the plan walks, appending to the
// two caller-supplied (stack) buffers: the covered equality columns form the
// base prefix; a prefix predicate on the next index column extends it with
// the partial (unterminated) string encoding; range predicates tighten one
// or both bounds. A nil to means unbounded.
func (p *scanPlan) bounds(vals []Datum, from, to []byte) ([]byte, []byte) {
	for _, i := range p.eq {
		from = encodeDatum(from, vals[i])
	}
	if p.prefix >= 0 {
		from = appendEscaped(append(from, 0x03), vals[p.prefix].Str())
	}
	base := from
	to = appendPrefixSuccessor(to, base)
	for _, i := range p.ranges {
		bound := encodeDatum(append([]byte(nil), base...), vals[i])
		switch p.preds[i].op {
		case OpGe:
			if bytes.Compare(bound, from) > 0 {
				from = bound
			}
		case OpGt:
			if succ := PrefixSuccessor(bound); succ != nil && bytes.Compare(succ, from) > 0 {
				from = succ
			}
		case OpLt:
			if to == nil || bytes.Compare(bound, to) < 0 {
				to = bound
			}
		case OpLe:
			if succ := PrefixSuccessor(bound); succ != nil && (to == nil || bytes.Compare(succ, to) < 0) {
				to = succ
			}
		}
	}
	return from, to
}

// boundBuf sizes the stack buffers scan bounds are encoded into; longer keys
// spill to the heap.
const boundBuf = 128

// scanTally is the work of one or more scans. Readers keep it themselves and
// add it to the shared statistics in one step (count): every reader of a
// database updates the same counters, so one that issues many short scans
// adds once, not once per scan.
type scanTally struct{ index, full, rows int64 }

// count adds a tally to the statistics.
func (db *DB) count(t *scanTally) {
	if t.index > 0 {
		db.statIndexScans.Add(t.index)
		obsIndexScans.Add(t.index)
	}
	if t.full > 0 {
		db.statFullScans.Add(t.full)
		obsFullScans.Add(t.full)
	}
	db.statRowsRead.Add(t.rows)
	obsRowsRead.Add(t.rows)
}

// run walks the plan over a table the caller may safely read — a frozen
// table out of a published version (no lock needed) or the live table under
// the write lock (Delete's collection phase) — handing every matching row to
// fn by reference: fn must neither modify nor retain the row slice. fn
// returns false to stop early. The scan's work goes into tally.
func (db *DB) run(t *Table, p *scanPlan, vals []Datum, fn func(rid int64, row Row) bool, tally *scanTally) error {
	if err := p.checkVals(t, vals); err != nil {
		return err
	}
	// The row count stays in a local until the scan ends, off the B-tree
	// hot path.
	var rowsRead int64
	visit := func(rid int64, row Row) bool {
		rowsRead++
		return !p.matches(row, vals) || fn(rid, row)
	}
	if p.ix < 0 {
		tally.full++
		t.scanAll(visit)
	} else {
		tally.index++
		var buf [2 * boundBuf]byte
		from, to := p.bounds(vals, buf[:0:boundBuf], buf[boundBuf:boundBuf])
		t.indexes[p.ix].tree.AscendRange(from, to, func(_ []byte, rid int64) bool {
			row, ok := t.row(rid)
			return !ok || visit(rid, row) // tombstoned between index and heap: skip
		})
	}
	tally.rows += rowsRead
	return nil
}

// scanTable plans and runs an ad-hoc scan: Select, Count and Delete.
func (db *DB) scanTable(t *Table, preds []Pred, fn func(rid int64, row Row) bool) error {
	var sb [8]PredShape // stack room for the usual handful of predicates
	var vb [8]Datum
	shape, vals := sb[:0], vb[:0]
	for _, pr := range preds {
		shape, vals = append(shape, PredShape{Col: pr.Col, Op: pr.Op}), append(vals, pr.Val)
	}
	var p scanPlan
	if err := p.init(t, shape); err != nil {
		return err
	}
	var tally scanTally
	err := db.run(t, &p, vals, fn, &tally)
	db.count(&tally)
	return err
}

// scanIn runs a prepared scan against one published version, into tally.
func (db *DB) scanIn(v *dbVersion, sc *Scan, vals []Datum, fn func(rid int64, row Row) bool, tally *scanTally) error {
	t, ok := v.tables[sc.table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, sc.table)
	}
	p, err := sc.planFor(t)
	if err != nil {
		return err
	}
	return db.run(t, p, vals, fn, tally)
}

// selectIn and countIn are Select and Count against one published version.
func (db *DB) selectIn(v *dbVersion, tableName string, preds []Pred, limit int) ([]Row, error) {
	t, ok := v.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	var out []Row
	err := db.scanTable(t, preds, func(_ int64, row Row) bool {
		out = append(out, row.Clone())
		return limit < 0 || len(out) < limit
	})
	return out, err
}

func (db *DB) countIn(v *dbVersion, tableName string, preds []Pred) (int, error) {
	t, ok := v.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	n := 0
	err := db.scanTable(t, preds, func(int64, Row) bool {
		n++
		return true
	})
	return n, err
}

// Scan runs a prepared scan lock-free against the last published version,
// handing each matching row to fn by reference, in index order (row-ID order
// for heap scans): fn must neither modify nor retain the row slice, and
// returns false to stop early.
func (db *DB) Scan(sc *Scan, vals []Datum, fn func(rid int64, row Row) bool) error {
	c := Cursor{db: db, v: db.version.Load()}
	err := c.Scan(sc, vals, fn)
	c.Close()
	return err
}

// A Cursor runs a series of prepared scans, from one goroutine, against one
// published version: the latest when it was opened, or a snapshot's. It
// keeps their work to itself until Close adds it to the statistics, so
// concurrent readers that each issue many short scans touch the shared
// counters once per series, not once per scan.
type Cursor struct {
	db    *DB
	v     *dbVersion
	snap  *Snapshot // the snapshot it was opened on, if any
	tally scanTally
}

// Cursor opens a cursor on the last published version.
func (db *DB) Cursor() *Cursor { return &Cursor{db: db, v: db.version.Load()} }

// Scan is DB.Scan against the cursor's version.
func (c *Cursor) Scan(sc *Scan, vals []Datum, fn func(rid int64, row Row) bool) error {
	if c.snap != nil && c.snap.released.Load() {
		return ErrSnapshotReleased
	}
	return c.db.scanIn(c.v, sc, vals, fn, &c.tally)
}

// Close adds the cursor's work to the statistics and returns the number of
// scans it ran since it was opened or last closed.
func (c *Cursor) Close() (scans int64) {
	c.db.count(&c.tally)
	scans = c.tally.index + c.tally.full
	c.tally = scanTally{}
	return scans
}
