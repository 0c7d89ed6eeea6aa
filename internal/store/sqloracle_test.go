package store

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/reldb"
	"repro/internal/sqlike"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// The SQL ≡ direct differential oracle. The store's reads used to be SQL
// statements run through database/sql; they are now typed index scans issued
// at the engine. This file keeps the old statement texts — and the old
// answer-assembly around them — as a reference implementation, and checks on
// randomized stores that every converted read returns exactly what the old
// SQL returns, order included: on the live store against store.DB(), through
// a pinned View against a sql.Tx opened at the same epoch (while an ingest
// burst runs), and with indexes quarantined.

// The statements the store issued before the conversion, verbatim.
const (
	oldOutsPrefix     = `SELECT event_id, idx, ctx, val_id FROM xform_out WHERE run_id = ? AND proc = ? AND port = ? AND idx LIKE ?`
	oldOutsExact      = `SELECT event_id, idx, ctx, val_id FROM xform_out WHERE run_id = ? AND proc = ? AND port = ? AND idx = ?`
	oldEventIns       = `SELECT pos, proc, port, idx, ctx, val_id FROM xform_in WHERE run_id = ? AND event_id = ? ORDER BY pos`
	oldInsPrefix      = `SELECT idx, ctx, val_id FROM xform_in WHERE run_id = ? AND proc = ? AND port = ? AND idx LIKE ?`
	oldInsExact       = `SELECT idx, ctx, val_id FROM xform_in WHERE run_id = ? AND proc = ? AND port = ? AND idx = ?`
	oldXfersTo        = `SELECT from_proc, from_port, from_idx, from_ctx, to_idx, to_ctx, val_id FROM xfer WHERE run_id = ? AND to_proc = ? AND to_port = ?`
	oldInsBatchPrefix = `SELECT run_id, idx, ctx, val_id FROM xform_in WHERE proc = ? AND port = ? AND idx LIKE ?`
	oldInsBatchExact  = `SELECT run_id, idx, ctx, val_id FROM xform_in WHERE proc = ? AND port = ? AND idx = ?`
	oldValsRange      = `SELECT val_id, payload FROM vals WHERE run_id = ? AND val_id >= ? AND val_id <= ?`
	oldValsRangeAll   = `SELECT run_id, val_id, payload FROM vals WHERE val_id >= ? AND val_id <= ?`
	oldValue          = `SELECT payload FROM vals WHERE run_id = ? AND val_id = ?`
	oldFwdInsPrefix   = `SELECT event_id, idx, ctx, val_id FROM xform_in WHERE run_id = ? AND proc = ? AND port = ? AND idx LIKE ?`
	oldFwdInsExact    = `SELECT event_id, idx, ctx, val_id FROM xform_in WHERE run_id = ? AND proc = ? AND port = ? AND idx = ?`
	oldEventOuts      = `SELECT proc, port, idx, ctx, val_id FROM xform_out WHERE run_id = ? AND event_id = ?`
	oldXfersFrom      = `SELECT from_idx, from_ctx, to_proc, to_port, to_idx, to_ctx, val_id FROM xfer WHERE run_id = ? AND from_proc = ? AND from_port = ?`
	oldListRuns       = `SELECT run_id, workflow FROM runs`
	oldRunWorkflow    = `SELECT workflow FROM runs WHERE run_id = ?`
	oldTraceVals      = `SELECT val_id, payload FROM vals WHERE run_id = ?`
	oldTraceIns       = `SELECT event_id, proc, port, idx, ctx, val_id FROM xform_in WHERE run_id = ? ORDER BY event_id, pos`
	oldTraceOuts      = `SELECT event_id, proc, port, idx, ctx, val_id FROM xform_out WHERE run_id = ? ORDER BY event_id`
	oldTraceXfers     = `SELECT from_proc, from_port, from_idx, from_ctx, to_proc, to_port, to_idx, to_ctx, val_id FROM xfer WHERE run_id = ?`
)

// legacyCrossRunIndex is the cross-run index the old batch statements were
// planned onto; the schema no longer declares it, and stores created before
// that still hold it. A statement without ORDER BY answers in its plan's
// order, so the oracle's store gets it back: the old batch statements then
// read rows in the order they always did. No direct read plans onto it.
const legacyCrossRunIndex = `CREATE INDEX xin_ppi ON xform_in (proc, port, idx)`

// sqlOracle answers the store's reads the old way: *sql.DB for the latest
// committed state, *sql.Tx for one pinned epoch.
type sqlOracle struct {
	t *testing.T
	q interface {
		Query(query string, args ...any) (*sql.Rows, error)
	}
}

// rows runs one statement and returns its row set; every column of the
// provenance schema is TEXT or INT, so cells are string or int64.
func (o sqlOracle) rows(query string, args ...any) [][]any {
	o.t.Helper()
	rs, err := o.q.Query(query, args...)
	if err != nil {
		o.t.Fatalf("oracle: %s: %v", query, err)
	}
	defer rs.Close()
	cols, _ := rs.Columns()
	var out [][]any
	for rs.Next() {
		row := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rs.Scan(ptrs...); err != nil {
			o.t.Fatalf("oracle: %s: %v", query, err)
		}
		out = append(out, row)
	}
	if err := rs.Err(); err != nil {
		o.t.Fatalf("oracle: %s: %v", query, err)
	}
	return out
}

// binding builds a Binding from the idx, ctx and val_id cells of a row.
func (o sqlOracle) binding(runID, proc, port string, key, ctx, valID any) Binding {
	o.t.Helper()
	idx, err := ParseIdxKey(key.(string))
	if err != nil {
		o.t.Fatalf("oracle: %v", err)
	}
	return Binding{RunID: runID, Proc: proc, Port: port, Index: idx, Ctx: int(ctx.(int64)), ValID: valID.(int64)}
}

// byGranularity is the rule of §2.3/§2.4 as the store applied it: the prefix
// statement, then exact statements on successively shorter prefixes.
func (o sqlOracle) byGranularity(prefixSQL, exactSQL, runID, proc, port string, idx value.Index) [][]any {
	rows := o.rows(prefixSQL, runID, proc, port, MustIdxKey(idx)+"%")
	for n := len(idx) - 1; n >= 0 && len(rows) == 0; n-- {
		rows = o.rows(exactSQL, runID, proc, port, MustIdxKey(idx.Truncate(n)))
	}
	return rows
}

func (o sqlOracle) InputBindings(runID, proc, port string, idx value.Index) []Binding {
	var out []Binding
	for _, r := range o.byGranularity(oldInsPrefix, oldInsExact, runID, proc, port, idx) {
		out = append(out, o.binding(runID, proc, port, r[0], r[1], r[2]))
	}
	return out
}

func (o sqlOracle) XformsByOutput(runID, proc, port string, idx value.Index) []Xform {
	out := []Xform{}
	for _, r := range o.byGranularity(oldOutsPrefix, oldOutsExact, runID, proc, port, idx) {
		x := Xform{RunID: runID, EventID: r[0].(int64), Proc: proc, Output: o.binding(runID, proc, port, r[1], r[2], r[3])}
		for _, in := range o.rows(oldEventIns, runID, x.EventID) {
			x.Inputs = append(x.Inputs, o.binding(runID, in[1].(string), in[2].(string), in[3], in[4], in[5]))
		}
		out = append(out, x)
	}
	return out
}

func (o sqlOracle) XformsByInput(runID, proc, port string, idx value.Index) []ForwardXform {
	out := []ForwardXform{}
	seen := map[int64]bool{}
	for _, r := range o.byGranularity(oldFwdInsPrefix, oldFwdInsExact, runID, proc, port, idx) {
		id := r[0].(int64)
		if seen[id] {
			continue
		}
		seen[id] = true
		x := ForwardXform{RunID: runID, EventID: id, Proc: proc, Input: o.binding(runID, proc, port, r[1], r[2], r[3])}
		for _, r := range o.rows(oldEventOuts, runID, id) {
			x.Outputs = append(x.Outputs, o.binding(runID, r[0].(string), r[1].(string), r[2], r[3], r[4]))
		}
		out = append(out, x)
	}
	return out
}

func (o sqlOracle) XfersTo(runID, proc, port string) []Xfer {
	var out []Xfer
	for _, r := range o.rows(oldXfersTo, runID, proc, port) {
		out = append(out, Xfer{
			From: o.binding(runID, r[0].(string), r[1].(string), r[2], r[3], r[6]),
			To:   o.binding(runID, proc, port, r[4], r[5], r[6]),
		})
	}
	return out
}

func (o sqlOracle) XfersFrom(runID, proc, port string) []Xfer {
	var out []Xfer
	for _, r := range o.rows(oldXfersFrom, runID, proc, port) {
		out = append(out, Xfer{
			From: o.binding(runID, proc, port, r[0], r[1], r[6]),
			To:   o.binding(runID, r[2].(string), r[3].(string), r[4], r[5], r[6]),
		})
	}
	return out
}

// Value returns the decoded value, or ok=false when the run holds none.
func (o sqlOracle) Value(runID string, valID int64) (v value.Value, ok bool) {
	o.t.Helper()
	rows := o.rows(oldValue, runID, valID)
	if len(rows) == 0 {
		return value.Value{}, false
	}
	v, err := value.Decode(rows[0][0].(string))
	if err != nil {
		o.t.Fatalf("oracle: %v", err)
	}
	return v, true
}

func (o sqlOracle) InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) map[string][]Binding {
	out := make(map[string][]Binding, len(runIDs))
	if len(runIDs) == 1 {
		out[runIDs[0]] = o.InputBindings(runIDs[0], proc, port, idx)
		return out
	}
	empty := map[string]bool{}
	for _, r := range runIDs {
		out[r], empty[r] = nil, true
	}
	// The prefix statement first, then — for the runs still empty — the exact
	// statement on successively shorter prefixes.
	for n := len(idx); n >= 0 && len(empty) > 0; n-- {
		var rows [][]any
		if n == len(idx) {
			rows = o.rows(oldInsBatchPrefix, proc, port, MustIdxKey(idx)+"%")
		} else {
			rows = o.rows(oldInsBatchExact, proc, port, MustIdxKey(idx.Truncate(n)))
		}
		level := map[string][]Binding{}
		for _, r := range rows {
			if run := r[0].(string); empty[run] {
				level[run] = append(level[run], o.binding(run, proc, port, r[1], r[2], r[3]))
			}
		}
		for run, bs := range level {
			out[run] = bs
			delete(empty, run)
		}
	}
	return out
}

func (o sqlOracle) ListRuns() []RunInfo {
	var out []RunInfo
	for _, r := range o.rows(oldListRuns) {
		out = append(out, RunInfo{RunID: r[0].(string), Workflow: r[1].(string)})
	}
	return out
}

func (o sqlOracle) RecordCounts(runID string) (counts [3]int) {
	for i, table := range []string{"xform_in", "xform_out", "xfer"} {
		rows := o.rows(`SELECT COUNT(*) FROM `+table+` WHERE run_id = ?`, runID)
		if runID == "" {
			rows = o.rows(`SELECT COUNT(*) FROM ` + table)
		}
		counts[i] = int(rows[0][0].(int64))
	}
	return counts
}

// LoadTrace rebuilds a run's trace from the old statements (nil: no such run).
func (o sqlOracle) LoadTrace(runID string) *trace.Trace {
	o.t.Helper()
	wf := o.rows(oldRunWorkflow, runID)
	if len(wf) == 0 {
		return nil
	}
	t := &trace.Trace{RunID: runID, Workflow: wf[0][0].(string)}
	vals := map[int64]value.Value{}
	for _, r := range o.rows(oldTraceVals, runID) {
		v, err := value.Decode(r[1].(string))
		if err != nil {
			o.t.Fatalf("oracle: %v", err)
		}
		vals[r[0].(int64)] = v
	}
	binding := func(proc, port, key, ctx, valID any) trace.Binding {
		b := o.binding(runID, proc.(string), port.(string), key, ctx, valID)
		return trace.Binding{Proc: b.Proc, Port: b.Port, Index: b.Index, Ctx: b.Ctx, Value: vals[b.ValID]}
	}
	events := map[int64]*trace.XformEvent{}
	var order []int64
	event := func(id, proc any) *trace.XformEvent {
		ev, ok := events[id.(int64)]
		if !ok {
			ev = &trace.XformEvent{Proc: proc.(string)}
			events[id.(int64)] = ev
			order = append(order, id.(int64))
		}
		return ev
	}
	for _, r := range o.rows(oldTraceIns, runID) {
		ev := event(r[0], r[1])
		ev.Inputs = append(ev.Inputs, binding(r[1], r[2], r[3], r[4], r[5]))
	}
	for _, r := range o.rows(oldTraceOuts, runID) {
		ev := event(r[0], r[1])
		ev.Outputs = append(ev.Outputs, binding(r[1], r[2], r[3], r[4], r[5]))
	}
	for _, id := range order {
		t.Xforms = append(t.Xforms, *events[id])
	}
	for _, r := range o.rows(oldTraceXfers, runID) {
		t.Xfers = append(t.Xfers, trace.XferEvent{From: binding(r[0], r[1], r[2], r[3], r[8]), To: binding(r[4], r[5], r[6], r[7], r[8])})
	}
	return t
}

// directReads is the converted read surface: *Store and *View.
type directReads interface {
	LineageQuerier
	TraceQuerier
	ListRuns() ([]RunInfo, error)
	RecordCounts(runID string) (xformIn, xformOut, xfers int, err error)
	LoadTrace(runID string) (*trace.Trace, error)
	engine() reader
}

// oracleProbe is one (run, port, index) to read at.
type oracleProbe struct {
	run, proc, port string
	idx             value.Index
}

// checkAgainstOracle compares every converted read of d, at every probe and
// over the given runs, with the oracle's answer.
func checkAgainstOracle(t *testing.T, what string, s *Store, d directReads, o sqlOracle, runs []string, probes []oracleProbe) {
	t.Helper()
	same := func(read string, got, want any, err error, args ...any) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %s%v: %v", what, read, args, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s%v:\n direct %+v\n    sql %+v", what, read, args, got, want)
		}
	}
	for _, p := range probes {
		ins, err := d.InputBindings(p.run, p.proc, p.port, p.idx)
		same("InputBindings", ins, o.InputBindings(p.run, p.proc, p.port, p.idx), err, p)
		outs, err := d.XformsByOutput(p.run, p.proc, p.port, p.idx)
		same("XformsByOutput", outs, o.XformsByOutput(p.run, p.proc, p.port, p.idx), err, p)
		fwd, err := d.XformsByInput(p.run, p.proc, p.port, p.idx)
		same("XformsByInput", fwd, o.XformsByInput(p.run, p.proc, p.port, p.idx), err, p)
		to, err := d.XfersTo(p.run, p.proc, p.port)
		same("XfersTo", to, o.XfersTo(p.run, p.proc, p.port), err, p)
		from, err := d.XfersFrom(p.run, p.proc, p.port)
		same("XfersFrom", from, o.XfersFrom(p.run, p.proc, p.port), err, p)
		batch, err := d.InputBindingsBatch(runs, p.proc, p.port, p.idx)
		same("InputBindingsBatch", batch, o.InputBindingsBatch(runs, p.proc, p.port, p.idx), err, runs, p)
		one, err := d.InputBindingsBatch(runs[:1], p.proc, p.port, p.idx)
		same("InputBindingsBatch", one, o.InputBindingsBatch(runs[:1], p.proc, p.port, p.idx), err, runs[:1], p)

		// The values those bindings reference: one by one, and as one batch.
		var refs []ValueRef
		want := map[ValueRef]value.Value{}
		for run, bs := range batch {
			for _, b := range bs {
				ref := ValueRef{RunID: run, ValID: b.ValID}
				v, ok := o.Value(run, b.ValID)
				if !ok {
					t.Fatalf("%s: binding %v references a value the oracle cannot find", what, b)
				}
				got, err := d.Value(run, b.ValID)
				same("Value", value.Encode(got), value.Encode(v), err, ref)
				same("Value", value.Equal(got, v), true, err, ref)
				refs, want[ref] = append(refs, ref), v
			}
		}
		vals, err := d.ValuesBatch(refs)
		same("ValuesBatch", sameValues(vals, want), true, err, refs)
	}

	// A value no run holds is an error on both sides.
	if _, ok := o.Value(runs[0], 1<<40); ok {
		t.Fatalf("%s: oracle found a value that cannot exist", what)
	}
	if _, err := d.Value(runs[0], 1<<40); err == nil {
		t.Fatalf("%s: Value of a missing id succeeded", what)
	}

	// The value-window scans, row for row (ValuesBatch hides their order in a
	// map).
	window := func(sc *reldb.Scan, cols []int, query string, args ...any) {
		t.Helper()
		vals := make([]reldb.Datum, len(args))
		for i, a := range args {
			if s, ok := a.(string); ok {
				vals[i] = reldb.S(s)
			} else {
				vals[i] = reldb.I(a.(int64))
			}
		}
		var got [][]any
		err := d.engine().scan(sc, vals, func(row reldb.Row) error {
			cells := make([]any, len(cols))
			for i, c := range cols {
				if cells[i] = any(row[c].Str()); row[c].Type() == reldb.TInt {
					cells[i] = row[c].Int()
				}
			}
			got = append(got, cells)
			return nil
		})
		same("scan", got, o.rows(query, args...), err, query, args)
	}
	window(s.scans.valsRange, []int{valsID, valsPayload}, oldValsRange, runs[0], int64(2), int64(9))
	window(s.scans.valsRangeAll, []int{valsRun, valsID, valsPayload}, oldValsRangeAll, int64(3), int64(5))

	list, err := d.ListRuns()
	same("ListRuns", list, o.ListRuns(), err)
	for _, run := range append([]string{""}, runs...) {
		in, out, xf, err := d.RecordCounts(run)
		same("RecordCounts", [3]int{in, out, xf}, o.RecordCounts(run), err, run)
		if run == "" {
			continue
		}
		want := o.LoadTrace(run)
		got, err := d.LoadTrace(run)
		if want == nil {
			if err == nil {
				t.Fatalf("%s: LoadTrace(%q) of a run the oracle does not know succeeded", what, run)
			}
			continue
		}
		same("LoadTrace", got, want, err, run)
	}
}

// oracleFixture generates the traces of one trial: testbed, GK, the
// mixed-depth fig3 workflow and zip (a processor whose ports are declared
// out of alphabetical order, so that port order and index order differ), with
// randomized sizes so that runs of one workflow differ in shape.
func oracleFixture(t *testing.T, rng *rand.Rand, trial int) []*trace.Trace {
	t.Helper()
	reg := engine.NewRegistry()
	gen.RegisterTestbed(reg)
	gen.RegisterGK(reg, gen.DefaultKEGG())
	fig3, fig3Reg := colFixtureWorkflow()
	testbed, gk := gen.Testbed(2+rng.Intn(4)), gen.GenesToKegg()
	zip := workflow.New("zip")
	zip.AddInput("l", 1).AddInput("r", 1).AddOutput("y", 2)
	zip.AddProcessor("Z", "pair", []workflow.Port{workflow.In("z", 0), workflow.In("a", 0)}, []workflow.Port{workflow.Out("y", 0)})
	zip.Connect("", "l", "Z", "z")
	zip.Connect("", "r", "Z", "a")
	zip.Connect("Z", "y", "", "y")
	fig3Reg.Register("pair", func(args []value.Value) ([]value.Value, error) {
		return []value.Value{value.Str(value.Encode(args[0]) + value.Encode(args[1]))}, nil
	})
	var out []*trace.Trace
	run := func(e *engine.Engine, kind string, i int, inputs map[string]value.Value) {
		t.Helper()
		wf := map[string]*workflow.Workflow{"testbed": testbed, "gk": gk, "fig3": fig3, "zip": zip}[kind]
		_, tr, err := e.RunTrace(wf, fmt.Sprintf("t%d-%s-%d", trial, kind, i), inputs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	run(engine.New(fig3Reg), "zip", 0, map[string]value.Value{"l": value.Strs("p", "q"), "r": value.Strs([]string{"s", "t", "u"}[:2+rng.Intn(2)]...)})
	for i := 0; i < 3; i++ {
		run(engine.New(reg), "testbed", i, gen.TestbedInputs(2+rng.Intn(4)))
		run(engine.New(reg), "gk", i, gen.GKInputs(1+rng.Intn(3), 1+rng.Intn(3)))
		run(engine.New(fig3Reg), "fig3", i, map[string]value.Value{
			"v": value.Strs([]string{"a", "b", "c"}[:1+rng.Intn(3)]...),
			"w": value.Str(fmt.Sprintf("w%d", i)),
			"c": value.Strs("k"),
		})
	}
	rng.Shuffle(len(out)-1, func(i, j int) { out[i+1], out[j+1] = out[j+1], out[i+1] }) // zip stays first
	return out
}

// oracleProbes draws probes from the recorded bindings of the given traces:
// each at its recorded index, truncated (a coarser question: the prefix scan
// returns several finer events) or extended (a finer question than anything
// recorded: the truncation fallback walks back up, one level per probe).
func oracleProbes(rng *rand.Rand, traces []*trace.Trace, n int) []oracleProbe {
	var all []oracleProbe
	add := func(run string, b trace.Binding) {
		all = append(all, oracleProbe{run, b.Proc, b.Port, b.Index})
	}
	for _, tr := range traces {
		for _, ev := range tr.Xforms {
			for _, b := range ev.Inputs {
				add(tr.RunID, b)
			}
			for _, b := range ev.Outputs {
				add(tr.RunID, b)
			}
		}
		for _, ev := range tr.Xfers {
			add(tr.RunID, ev.From)
			add(tr.RunID, ev.To)
		}
	}
	out := make([]oracleProbe, n)
	for i := range out {
		p := all[rng.Intn(len(all))]
		switch rng.Intn(3) {
		case 0:
			p.idx = p.idx.Truncate(rng.Intn(len(p.idx) + 1))
		case 1:
			p.idx = append(append(value.Index{}, p.idx...), rng.Intn(3), rng.Intn(3))[:len(p.idx)+1+rng.Intn(2)]
		}
		out[i] = p
	}
	return out
}

func oracleTrials(def int) int {
	if n, err := strconv.Atoi(os.Getenv("DIFF_TRIALS")); err == nil && n > 0 {
		return n
	}
	return def
}

func TestDirectReadsMatchSQL(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized differential test")
	}
	rng := rand.New(rand.NewSource(20260925))
	for trial, trials := 0, oracleTrials(4); trial < trials; trial++ {
		s, err := OpenMemory()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.DB().Exec(legacyCrossRunIndex); err != nil {
			t.Fatal(err)
		}
		traces := oracleFixture(t, rng, trial)
		first, burst := traces[:7], traces[7:]

		// Half the runs, a checkpoint (column segments built), the rest
		// at a smaller batch size, then one run deleted.
		for _, tr := range first[:3] {
			if err := s.StoreTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestTraces(context.Background(), first[3:4], IngestOptions{BatchRows: 7}); err != nil {
			t.Fatal(err)
		}
		for _, tr := range first[4:] {
			if err := s.StoreTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
		deleted := first[1+rng.Intn(len(first)-1)].RunID
		if _, err := s.DeleteRun(deleted); err != nil {
			t.Fatal(err)
		}
		var runs []string
		for _, tr := range first {
			runs = append(runs, tr.RunID)
		}
		runs = append(runs, "no-such-run")
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		probes := oracleProbes(rng, first, 40)
		for _, ev := range first[0].Xforms { // zip's events, always: their inputs' port order is not index order
			probes = append(probes, oracleProbe{first[0].RunID, ev.Proc, ev.Outputs[0].Port, ev.Outputs[0].Index})
		}

		live := sqlOracle{t, s.DB()}
		checkAgainstOracle(t, fmt.Sprintf("trial %d live", trial), s, s, live, runs, probes)

		// Pinned: a View and a SQL transaction at the same epoch, read while
		// an ingest burst (new runs, a deletion, a checkpoint) lands.
		v, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		tx, err := s.DB().Begin()
		if err != nil {
			t.Fatal(err)
		}
		var txEpoch uint64
		if err := tx.QueryRow(sqlike.EpochQuery).Scan(&txEpoch); err != nil || txEpoch != v.Epoch() {
			t.Fatalf("trial %d: view pinned epoch %d, transaction %d (err %v)", trial, v.Epoch(), txEpoch, err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tr := range burst {
				if err := s.IngestTraces(context.Background(), []*trace.Trace{tr}, IngestOptions{BatchRows: 5}); err != nil {
					t.Error(err)
				}
				if i == 0 {
					if _, err := s.DeleteRun(first[1].RunID); err != nil && first[1].RunID != deleted {
						t.Error(err)
					}
					if err := s.Checkpoint(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
		pinned := sqlOracle{t, tx}
		checkAgainstOracle(t, fmt.Sprintf("trial %d pinned, during burst", trial), s, v, pinned, runs, probes)
		wg.Wait()
		checkAgainstOracle(t, fmt.Sprintf("trial %d pinned, after burst", trial), s, v, pinned, runs, probes)
		if v.Epoch() == s.Epoch() {
			t.Fatalf("trial %d: the burst committed nothing", trial)
		}
		tx.Rollback()
		v.Close()
		for _, tr := range burst {
			runs = append(runs, tr.RunID)
		}
		probes = append(probes, oracleProbes(rng, burst, 10)...)
		checkAgainstOracle(t, fmt.Sprintf("trial %d live, after burst", trial), s, s, live, runs, probes)

		// Quarantine. A row inserted with ownership handed over and then
		// modified — the bug class the integrity check exists for — leaves
		// index entries that disagree with the heap. First only xin_evt (its
		// pos column changed): one event's inputs must still come back in
		// port order although the planner now walks xin_port. Then every
		// xform_in index (idx changed too): probes degrade to heap scans.
		// Both sides degrade alike, so answers must still agree — and, the
		// sacrificial run aside, equal the answers given before the damage.
		before := loadAll(t, s, first)
		victim := reldb.Row{reldb.S("sacrifice"), reldb.I(1), reldb.I(0), reldb.S("P"), reldb.S("X"), reldb.S(""), reldb.I(0), reldb.I(1)}
		if err := s.rdb.InsertBatchOwned("xform_in", []reldb.Row{victim}); err != nil {
			t.Fatal(err)
		}
		for stage, col := range []int{inPos, inIdx} {
			victim[col] = map[int]reldb.Datum{inPos: reldb.I(7), inIdx: reldb.S("000001.")}[col]
			problems := s.rdb.VerifyIndexes()
			if want := []int{1, 3}[stage]; len(problems) != want {
				t.Fatalf("trial %d: quarantine stage %d: %d problems, want %d: %v", trial, stage, len(problems), want, problems)
			}
			_, fullBefore, _ := s.rdb.Stats()
			checkAgainstOracle(t, fmt.Sprintf("trial %d quarantine stage %d", trial, stage), s, s, live, runs, probes)
			if _, full, _ := s.rdb.Stats(); stage == 1 && full == fullBefore {
				t.Fatalf("trial %d: no heap scan with every xform_in index quarantined", trial)
			}
			if after := loadAll(t, s, first); !reflect.DeepEqual(after, before) {
				t.Fatalf("trial %d: quarantine stage %d changed stored traces", trial, stage)
			}
		}
		if n := s.rdb.RebuildDamaged(); n != 3 {
			t.Fatalf("trial %d: rebuilt %d indexes, want 3", trial, n)
		}
		checkAgainstOracle(t, fmt.Sprintf("trial %d rebuilt", trial), s, s, live, runs, probes)
		s.Close()
	}
}

// loadAll loads the traces of the given runs that are still stored.
func loadAll(t *testing.T, s *Store, traces []*trace.Trace) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, tr := range traces {
		if ok, _ := s.HasRun(tr.RunID); ok {
			got, err := s.LoadTrace(tr.RunID)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	return out
}
