package store

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/reldb"
	"repro/internal/value"
)

// Binding is a stored fine-grained binding ⟨P:X[p], v⟩; the value is carried
// by reference (ValID) and materialized on demand with Store.Value.
type Binding struct {
	RunID string
	Proc  string
	Port  string
	Index value.Index
	Ctx   int
	ValID int64
}

func (b Binding) String() string {
	proc := b.Proc
	if proc == "" {
		proc = "workflow"
	}
	return fmt.Sprintf("%s:%s%s@%s", proc, b.Port, b.Index, b.RunID)
}

// Xform is a stored xform event matched through one of its output bindings.
type Xform struct {
	RunID   string
	EventID int64
	Proc    string
	Inputs  []Binding // in port-declaration order
	Output  Binding   // the matched output binding
}

// Xfer is a stored xfer event.
type Xfer struct {
	From Binding
	To   Binding
}

// queryCount counts the trace probes (index range scans) issued by the
// lineage-facing accessors; the benchmark harness uses it to verify the
// per-algorithm query-complexity claims (NI issues O(path length) probes,
// INDEXPROJ O(|focus|)).
var queryCount atomic.Int64

// QueryCount returns the cumulative number of lineage-facing trace probes
// issued through this package.
func QueryCount() int64 { return queryCount.Load() }

// ResetQueryCount zeroes the counter and returns the previous value.
func ResetQueryCount() int64 { return queryCount.Swap(0) }

// XformsByOutput returns the xform events of processor proc (in one run)
// with an output binding on the given port matching idx under the
// granularity rules of §2.3/§2.4:
//
//   - events recorded at the same or finer granularity (their index extends
//     idx) match directly — one prefix probe retrieves them;
//   - otherwise the event granularity is coarser: the longest proper prefix
//     of idx with recorded events matches (the answer degrades gracefully,
//     as for many-to-many processors).
//
// Each returned event carries its full ordered input bindings.
func (s *Store) XformsByOutput(runID, proc, port string, idx value.Index) ([]Xform, error) {
	return s.xformsByOutputOn(s.engine(), runID, proc, port, idx)
}

func (s *Store) xformsByOutputOn(r reader, runID, proc, port string, idx value.Index) ([]Xform, error) {
	key, err := IdxKey(idx)
	if err != nil {
		return nil, err
	}
	out := []Xform{}
	err = probeIdx(r, s.scans.outsPrefix, s.scans.outsExact, runID, proc, port, key, func(row reldb.Row) error {
		b, err := rowBinding(runID, proc, port, row[outIdx], row[outCtx], row[outVal])
		out = append(out, Xform{RunID: runID, EventID: row[outEvent].Int(), Proc: proc, Output: b})
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Inputs, err = s.eventInputs(r, runID, out[i].EventID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeIdx applies the granularity rules to a (run_id, proc, port, idx)
// index: one prefix scan for events at key's index or finer, then — while
// nothing matched — exact scans of successively shorter prefixes of it. key
// is an IdxKey; its fixed-width components make key[:n*(idxComponentWidth+1)]
// the key of the index's first n components. Every scan counts as one probe.
func probeIdx(r reader, prefix, exact *reldb.Scan, runID, proc, port, key string, each func(row reldb.Row) error) error {
	vals := [4]reldb.Datum{reldb.S(runID), reldb.S(proc), reldb.S(port), reldb.S(key)}
	sc := prefix
	for n := len(key); ; n -= idxComponentWidth + 1 {
		matched := false
		if err := r.scan(sc, vals[:], func(row reldb.Row) error {
			matched = true
			return each(row)
		}); err != nil {
			return err
		}
		if matched || n == 0 {
			return nil
		}
		sc, vals[3] = exact, reldb.S(key[:n-(idxComponentWidth+1)])
	}
}

// rowBinding builds the binding stored in an event row's idx, ctx and val_id
// columns.
func rowBinding(runID, proc, port string, key, ctx, valID reldb.Datum) (Binding, error) {
	idx, err := ParseIdxKey(key.Str())
	return Binding{RunID: runID, Proc: proc, Port: port, Index: idx, Ctx: int(ctx.Int()), ValID: valID.Int()}, err
}

// eventInputs returns one event's input bindings in port-declaration (pos)
// order. That is the order xin_evt yields them in; should the planner have
// had to walk something else (the index is quarantined), they are sorted.
func (s *Store) eventInputs(r reader, runID string, eventID int64) ([]Binding, error) {
	var posBuf [8]int64 // stack room for the usual handful of input ports
	var out []Binding
	poss, sorted := posBuf[:0], true
	vals := [2]reldb.Datum{reldb.S(runID), reldb.I(eventID)}
	err := r.scan(s.scans.eventIns, vals[:], func(row reldb.Row) error {
		b, err := rowBinding(runID, row[inProc].Str(), row[inPort].Str(), row[inIdx], row[inCtx], row[inVal])
		pos := row[inPos].Int()
		sorted = sorted && (len(poss) == 0 || poss[len(poss)-1] <= pos)
		out, poss = append(out, b), append(poss, pos)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !sorted {
		// Sorts out in place; the positions are copied so that the sort's
		// interface conversion does not force posBuf onto the heap.
		sort.Stable(byPos{bs: out, pos: append([]int64(nil), poss...)})
	}
	return out, nil
}

// byPos orders bindings by their recorded port position.
type byPos struct {
	bs  []Binding
	pos []int64
}

func (o byPos) Len() int           { return len(o.bs) }
func (o byPos) Less(i, j int) bool { return o.pos[i] < o.pos[j] }
func (o byPos) Swap(i, j int) {
	o.bs[i], o.bs[j] = o.bs[j], o.bs[i]
	o.pos[i], o.pos[j] = o.pos[j], o.pos[i]
}

// InputBindings is the trace query Q(P, X_i, p_i) of Alg. 2: it returns the
// stored input bindings of processor proc on the given port matching idx,
// applying the same granularity rules as XformsByOutput (exact or finer
// first, else the longest coarser prefix).
func (s *Store) InputBindings(runID, proc, port string, idx value.Index) ([]Binding, error) {
	return s.inputBindingsOn(s.engine(), runID, proc, port, idx)
}

func (s *Store) inputBindingsOn(r reader, runID, proc, port string, idx value.Index) ([]Binding, error) {
	key, err := IdxKey(idx)
	if err != nil {
		return nil, err
	}
	return s.inputBindingsKey(r, runID, proc, port, key)
}

// inputBindingsKey is InputBindings for an already encoded index key: the
// scans of one run's xin_port range, shared by the single-run and batched
// probes.
func (s *Store) inputBindingsKey(r reader, runID, proc, port, key string) ([]Binding, error) {
	var out []Binding
	err := probeIdx(r, s.scans.insPrefix, s.scans.insExact, runID, proc, port, key, func(row reldb.Row) error {
		b, err := rowBinding(runID, proc, port, row[inIdx], row[inCtx], row[inVal])
		out = append(out, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// XfersTo returns the xfer events whose sink is the given port.
func (s *Store) XfersTo(runID, proc, port string) ([]Xfer, error) {
	return s.xfersOn(s.engine(), s.scans.xfersTo, runID, proc, port)
}

// XfersFrom returns the xfer events whose source is the given port.
func (s *Store) XfersFrom(runID, proc, port string) ([]Xfer, error) {
	return s.xfersOn(s.engine(), s.scans.xfersFrom, runID, proc, port)
}

// xfersOn scans the run's xfer events by one endpoint (sc is xfersTo or
// xfersFrom).
func (s *Store) xfersOn(r reader, sc *reldb.Scan, runID, proc, port string) ([]Xfer, error) {
	var out []Xfer
	vals := [3]reldb.Datum{reldb.S(runID), reldb.S(proc), reldb.S(port)}
	err := r.scan(sc, vals[:], func(row reldb.Row) error {
		from, err := rowBinding(runID, row[xferFromProc].Str(), row[xferFromPort].Str(), row[xferFromIdx], row[xferFromCtx], row[xferVal])
		if err != nil {
			return err
		}
		to, err := rowBinding(runID, row[xferToProc].Str(), row[xferToPort].Str(), row[xferToIdx], row[xferToCtx], row[xferVal])
		out = append(out, Xfer{From: from, To: to})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Value materializes a stored port value.
func (s *Store) Value(runID string, valID int64) (value.Value, error) {
	return s.valueOn(s.engine(), runID, valID)
}

func (s *Store) valueOn(r reader, runID string, valID int64) (value.Value, error) {
	payload, err := s.payloadOn(r, runID, valID)
	if err != nil {
		return value.Value{}, err
	}
	return value.DecodeStored(payload)
}

// payloadOn fetches one stored value's encoded payload: a point probe of
// vals_id.
func (s *Store) payloadOn(r reader, runID string, valID int64) (payload string, err error) {
	found := false
	vals := [2]reldb.Datum{reldb.S(runID), reldb.I(valID)}
	err = r.scan(s.scans.value, vals[:], func(row reldb.Row) error {
		payload, found = row[valsPayload].Str(), true
		return errStop
	})
	if err == nil && !found {
		err = fmt.Errorf("store: no value %d in run %q", valID, runID)
	}
	return payload, err
}

// Forward-direction accessors, used by impact (descendant) queries: the dual
// of the lineage direction.

// ForwardXform is a stored xform event matched through one of its inputs.
type ForwardXform struct {
	RunID   string
	EventID int64
	Proc    string
	Input   Binding
	Outputs []Binding
}

// XformsByInput returns the xform events of proc with an input binding on
// the given port matching idx (same granularity rules as XformsByOutput),
// each carrying its full output bindings.
func (s *Store) XformsByInput(runID, proc, port string, idx value.Index) ([]ForwardXform, error) {
	return s.xformsByInputOn(s.engine(), runID, proc, port, idx)
}

func (s *Store) xformsByInputOn(r reader, runID, proc, port string, idx value.Index) ([]ForwardXform, error) {
	key, err := IdxKey(idx)
	if err != nil {
		return nil, err
	}
	out := []ForwardXform{}
	seen := make(map[int64]bool)
	err = probeIdx(r, s.scans.insPrefix, s.scans.insExact, runID, proc, port, key, func(row reldb.Row) error {
		eventID := row[inEvent].Int()
		if seen[eventID] {
			return nil
		}
		seen[eventID] = true
		b, err := rowBinding(runID, proc, port, row[inIdx], row[inCtx], row[inVal])
		out = append(out, ForwardXform{RunID: runID, EventID: eventID, Proc: proc, Input: b})
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Outputs, err = s.eventOutputs(r, runID, out[i].EventID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *Store) eventOutputs(r reader, runID string, eventID int64) ([]Binding, error) {
	var out []Binding
	vals := [2]reldb.Datum{reldb.S(runID), reldb.I(eventID)}
	err := r.scan(s.scans.eventOuts, vals[:], func(row reldb.Row) error {
		b, err := rowBinding(runID, row[outProc].Str(), row[outPort].Str(), row[outIdx], row[outCtx], row[outVal])
		out = append(out, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
