package store

import (
	"fmt"
	"slices"

	"repro/internal/reldb"
	"repro/internal/value"
)

// This file implements the batched (multi-run) read paths: the trace probe
// Q(P, X, p) and value materialization answered for a whole set of runs in
// one call. The probe answers each wanted run with that run's own prepared
// seek on xin_port (run_id, proc, port, idx) — exactly the scans
// InputBindings issues — so its cost grows with the runs asked, never with
// the runs stored. The call still shares what it can: the index key is
// encoded once, and one engine cursor carries every seek.

// LineageQuerier is the read-side surface the INDEXPROJ executor needs from
// a provenance store. Implementations must be safe for concurrent use by
// multiple goroutines: the parallel multi-run executor issues overlapping
// probes from its worker pool against one shared querier.
type LineageQuerier interface {
	// InputBindings answers Q(P, X, p) for one run (Alg. 2's trace probe).
	InputBindings(runID, proc, port string, idx value.Index) ([]Binding, error)
	// InputBindingsBatch answers the same probe for a set of runs, grouped
	// by run ID. Every requested run has an entry (possibly empty), equal to
	// its InputBindings answer, granularity fallback included.
	InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, error)
	// Value materializes one stored port value.
	Value(runID string, valID int64) (value.Value, error)
	// ValuesBatch materializes a set of values, minimizing round-trips.
	ValuesBatch(refs []ValueRef) (map[ValueRef]value.Value, error)
	// HasRun reports whether the store holds the given run; the multi-run
	// executors use it to reject unknown runs with ErrUnknownRun instead of
	// silently returning empty results.
	HasRun(runID string) (bool, error)
}

var _ LineageQuerier = (*Store)(nil)

// ValueRef identifies one stored port value.
type ValueRef struct {
	RunID string
	ValID int64
}

// InputBindingsBatch is the batched form of InputBindings: the runs are
// visited in ascending run-ID order, each answered by its own prefix seek on
// xin_port and, while that run's answer is empty, by exact seeks on
// successively shorter prefixes of idx (§2.3/§2.4). The index key is encoded
// once; each fallback level's key is a prefix of it.
//
// The result maps every requested run ID to its bindings: exactly the
// per-run InputBindings answers, in the same order. Rows of runs not asked
// for are never read.
func (s *Store) InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, error) {
	return s.inputBindingsBatchOn(s.engine(), runIDs, proc, port, idx)
}

func (s *Store) inputBindingsBatchOn(r reader, runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, error) {
	out := make(map[string][]Binding, len(runIDs))
	if len(runIDs) == 0 {
		return out, nil
	}
	key, err := IdxKey(idx)
	if err != nil {
		return nil, err
	}
	// One cursor carries every run's seeks: they read one epoch, and their
	// probes reach the shared counters in one step.
	if r.snap != nil {
		r.cur = r.snap.Cursor()
	} else {
		r.cur = r.db.Cursor()
	}
	defer func() { countQuery(r.cur.Close()) }()
	obsProbeBatches.Add(1)
	obsBatchRuns.Observe(int64(len(runIDs)))
	if !slices.IsSorted(runIDs) {
		runIDs = slices.Clone(runIDs)
		slices.Sort(runIDs)
	}
	for _, runID := range runIDs {
		bs, err := s.inputBindingsKey(r, runID, proc, port, key)
		if err != nil {
			return nil, err
		}
		out[runID] = bs
	}
	return out, nil
}

// valsRangeOverscan bounds how sparse a [min, max] val_id window may be
// before ValuesBatch falls back to point lookups: a window is scanned only
// when it holds at most 4 candidate IDs (plus slack) per requested one.
const valsRangeOverscan = 4

// valsCrossRunOverscan bounds the cross-run scan the same way, but per
// *query saved* rather than per row: a single scan over vals_vid touches
// roughly (stored runs × id span) rows, and replaces up to one query per
// requested run, each worth a couple dozen rows of fixed overhead.
const valsCrossRunOverscan = 24

// ValuesBatch materializes a set of stored values with as few queries as
// possible: the refs are grouped by run, and each run's IDs are fetched with
// one bounded index-range scan over (run_id, val_id) when they are dense
// enough, falling back to point lookups for sparse or singleton sets.
// Missing values are reported as an error, matching Value.
func (s *Store) ValuesBatch(refs []ValueRef) (map[ValueRef]value.Value, error) {
	return s.valuesBatchOn(s.engine(), s.runsEstimate, refs)
}

// valuesBatchOn is ValuesBatch against one reader; runs reports how many runs
// that reader sees (it sizes the cross-run scan), so a pinned View never
// consults the live store.
func (s *Store) valuesBatchOn(r reader, runs func() int64, refs []ValueRef) (map[ValueRef]value.Value, error) {
	out := make(map[ValueRef]value.Value, len(refs))
	byRun := make(map[string][]int64)
	for _, ref := range refs {
		if _, dup := out[ref]; dup {
			continue
		}
		out[ref] = value.Value{} // placeholder marking the ref as requested
		byRun[ref.RunID] = append(byRun[ref.RunID], ref.ValID)
	}

	// Runs of a deterministic workflow intern identical payloads (values are
	// deduplicated per run, not across runs), so a batch spanning many runs
	// sees the same payload over and over — validate each distinct payload
	// once and share the Value and its decode memo (values are immutable).
	decoded := make(map[string]value.Value)
	dec := func(payload string) (value.Value, error) {
		if v, ok := decoded[payload]; ok {
			obsValueHits.Add(1)
			return v, nil
		}
		obsValueMisses.Add(1)
		v, err := value.DecodeStored(payload)
		if err == nil {
			decoded[payload] = v
		}
		return v, err
	}

	// Cross-run fast path: deterministic workflows intern the same values in
	// the same order, so the wanted IDs of different runs often share a tight
	// global window — one scan of the vals_vid (val_id) index then answers
	// every run together, where the per-run loop below pays at least one
	// query per run. Scanned rows ≈ stored runs × id span, so the window is
	// only used when that stays proportional to the number of refs.
	if len(byRun) >= 2 {
		minID, maxID := refs[0].ValID, refs[0].ValID
		for ref := range out {
			if ref.ValID < minID {
				minID = ref.ValID
			}
			if ref.ValID > maxID {
				maxID = ref.ValID
			}
		}
		span := maxID - minID + 1
		if runs()*span <= int64(valsCrossRunOverscan*len(out)+64) {
			got := 0
			vals := [2]reldb.Datum{reldb.I(minID), reldb.I(maxID)}
			err := r.scan(s.scans.valsRangeAll, vals[:], func(row reldb.Row) error {
				ref := ValueRef{RunID: row[valsRun].Str(), ValID: row[valsID].Int()}
				if _, requested := out[ref]; !requested {
					return nil
				}
				v, err := dec(row[valsPayload].Str())
				out[ref] = v
				got++
				return err
			})
			if err != nil {
				return nil, err
			}
			if got != len(out) {
				return nil, fmt.Errorf("store: %d value(s) missing across %d run(s)", len(out)-got, len(byRun))
			}
			return out, nil
		}
	}

	for runID, ids := range byRun {
		minID, maxID := ids[0], ids[0]
		wanted := make(map[int64]bool, len(ids))
		for _, id := range ids {
			wanted[id] = true
			if id < minID {
				minID = id
			}
			if id > maxID {
				maxID = id
			}
		}
		span := maxID - minID + 1
		if len(wanted) == 1 || span > int64(valsRangeOverscan*len(wanted)+16) {
			for id := range wanted {
				payload, err := s.payloadOn(r, runID, id)
				if err != nil {
					return nil, err
				}
				v, err := dec(payload)
				if err != nil {
					return nil, err
				}
				out[ValueRef{RunID: runID, ValID: id}] = v
			}
			continue
		}
		got := 0
		vals := [3]reldb.Datum{reldb.S(runID), reldb.I(minID), reldb.I(maxID)}
		err := r.scan(s.scans.valsRange, vals[:], func(row reldb.Row) error {
			id := row[valsID].Int()
			if !wanted[id] {
				return nil
			}
			v, err := dec(row[valsPayload].Str())
			out[ValueRef{RunID: runID, ValID: id}] = v
			got++
			return err
		})
		if err != nil {
			return nil, err
		}
		if got != len(wanted) {
			return nil, fmt.Errorf("store: %d value(s) missing in run %q", len(wanted)-got, runID)
		}
	}
	return out, nil
}
