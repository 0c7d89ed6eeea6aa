package store

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/reldb"
	"repro/internal/value"
)

// This file implements the batched (multi-run) read path: the trace probe
// Q(P, X, p, T) answered for a whole set of runs in one index-range scan,
// instead of one round-trip per run. This is what lets the parallel
// multi-run lineage executor break Fig. 4's linear growth in the number of
// runs: the per-probe cost becomes one scan over xin_ppi (proc, port, idx)
// shared by every run, plus one bounded value scan per run.

// LineageQuerier is the read-side surface the INDEXPROJ executor needs from
// a provenance store. Implementations must be safe for concurrent use by
// multiple goroutines: the parallel multi-run executor issues overlapping
// probes from its worker pool against one shared querier.
type LineageQuerier interface {
	// InputBindings answers Q(P, X, p) for one run (Alg. 2's trace probe).
	InputBindings(runID, proc, port string, idx value.Index) ([]Binding, error)
	// InputBindingsBatch answers the same probe for a set of runs in one
	// pass, grouped by run ID. Every requested run has an entry (possibly
	// empty); per-run granularity fallback matches InputBindings exactly.
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

// InputBindingsBatch is the batched form of InputBindings: one prefix scan
// over the (proc, port, idx) index retrieves the matching bindings of every
// run at once, and the granularity fallback (successively shorter exact
// prefixes, per §2.3/§2.4) runs once per truncation level for the runs the
// prefix scan left empty — instead of once per run.
//
// The result maps every requested run ID to its bindings (never nil). Runs
// not requested are filtered out, so the answer is exactly the union of the
// per-run InputBindings answers.
func (s *Store) InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, error) {
	return s.inputBindingsBatchOn(s.engine(), runIDs, proc, port, idx)
}

func (s *Store) inputBindingsBatchOn(r reader, runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, error) {
	out := make(map[string][]Binding, len(runIDs))
	if len(runIDs) == 0 {
		return out, nil
	}
	if len(runIDs) == 1 {
		bs, err := s.inputBindingsOn(r, runIDs[0], proc, port, idx)
		if err != nil {
			return nil, err
		}
		out[runIDs[0]] = bs
		return out, nil
	}
	obsProbeBatches.Add(1)
	if obs.Enabled() {
		obsBatchRuns.Observe(int64(len(runIDs)))
	}
	want := make(map[string]bool, len(runIDs))
	for _, r := range runIDs {
		want[r] = true
		out[r] = nil
	}
	key, err := IdxKey(idx)
	if err != nil {
		return nil, err
	}
	if err := s.insByRun(r, s.scans.insBatchPrefix, proc, port, key, want, out); err != nil {
		return nil, err
	}

	// Granularity fallback, batched: runs with no events at the query
	// granularity (or finer) match the longest proper prefix of idx that has
	// recorded events — probed per truncation level for the still-empty runs.
	empty := make(map[string]bool)
	for r := range want {
		if len(out[r]) == 0 {
			empty[r] = true
		}
	}
	for n := len(idx) - 1; n >= 0 && len(empty) > 0; n-- {
		level := make(map[string][]Binding)
		if err := s.insByRun(r, s.scans.insBatchExact, proc, port, MustIdxKey(idx.Truncate(n)), empty, level); err != nil {
			return nil, err
		}
		for r, bs := range level {
			if len(bs) > 0 {
				out[r] = bs
				delete(empty, r)
			}
		}
	}
	return out, nil
}

// insByRun issues one batched probe — a scan of xin_ppi by (proc, port, key),
// across runs — into dst, keeping only rows whose run is in want.
func (s *Store) insByRun(r reader, sc *reldb.Scan, proc, port, key string, want map[string]bool, dst map[string][]Binding) error {
	countQuery(1)
	vals := [3]reldb.Datum{reldb.S(proc), reldb.S(port), reldb.S(key)}
	return r.scan(sc, vals[:], func(row reldb.Row) error {
		runID := row[inRun].Str()
		if !want[runID] {
			return nil
		}
		b, err := rowBinding(runID, proc, port, row[inIdx], row[inCtx], row[inVal])
		dst[runID] = append(dst[runID], b)
		return err
	})
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
			countQuery(1)
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
		countQuery(1)
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
