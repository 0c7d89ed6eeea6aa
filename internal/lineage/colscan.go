package lineage

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/store"
)

// This file wires the store's columnar projection (internal/colstore, via
// store.ColumnScanner) into the multi-run executor as a vectorized probe
// stage: a chunk of runs is evaluated against their column segments in one
// pass — zone-map filter per segment, then a tight loop over the fixed-width
// IdxKey column — instead of one B-tree seek per run. Runs
// without a fresh segment fall back to the batched row probes inside the
// same chunk, so the answer is byte-identical to the row path regardless of
// which runs have segments.

// ColScanMode selects the executor's probe stage.
type ColScanMode int

const (
	// ColScanAuto (the zero value) applies the cost rule: use column
	// segments when the store has them and the query spans at least
	// DefaultColScanMinRuns runs.
	ColScanAuto ColScanMode = iota
	// ColScanOn always uses column segments when the store supports them
	// (runs without a segment still fall back to row scans).
	ColScanOn
	// ColScanOff never touches column segments: the row-probe path of PR 6,
	// unchanged.
	ColScanOff
)

// String renders the mode as its flag spelling.
func (m ColScanMode) String() string {
	switch m {
	case ColScanOn:
		return "on"
	case ColScanOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseColScanMode parses a -colscan flag value. Boolean spellings are
// accepted so `-colscan=false` reads naturally: false/0 disable, true/1
// force-enable.
func ParseColScanMode(s string) (ColScanMode, error) {
	switch s {
	case "", "auto":
		return ColScanAuto, nil
	case "on", "true", "1":
		return ColScanOn, nil
	case "off", "false", "0":
		return ColScanOff, nil
	}
	return ColScanAuto, fmt.Errorf("lineage: bad colscan mode %q (want auto, on or off)", s)
}

// DefaultColScanMinRuns is the auto-mode run-count threshold. Both stages
// touch only the queried runs: the batched row probe seeks each run's
// xin_port range, the columnar stage scans each run's segment, which saves
// the B-tree descent and the per-row heap fetch. Below a handful of runs the
// segment lookups and the fallback bookkeeping wash out that saving, so auto
// mode stays on the row path for small queries.
const DefaultColScanMinRuns = 8

var mrColScanChunks = obs.C("lineage.multirun.colscan_chunks")

// colScanner resolves the ColScan option against the attached store: the
// returned scanner is non-nil exactly when the vectorized stage should run.
func (ip *IndexProj) colScanner(nRuns int, opt MultiRunOptions) store.ColumnScanner {
	if opt.ColScan == ColScanOff {
		return nil
	}
	cs, ok := ip.q.(store.ColumnScanner)
	if !ok {
		return nil
	}
	if opt.ColScan == ColScanOn {
		return cs
	}
	// Auto: the cost rule. Selectivity of a multi-run probe is fixed by the
	// plan, so the deciding factor is how many runs amortize the per-query
	// segment bookkeeping — and whether there are any segments at all.
	if nRuns < DefaultColScanMinRuns || !cs.ColScanAvailable() {
		return nil
	}
	return cs
}

// colScanBindings is the vectorized probe stage: one probe against one chunk
// of runs, answered from column segments where possible and from the batched
// row probes for the rest. Binding order per run matches the row path
// exactly, so results are byte-identical. Column segments load lazily from
// disk at query time, so threading ctx through (store.ContextColumnScanner)
// is what bounds a stalled disk here.
func (ip *IndexProj) colScanBindings(ctx context.Context, pr Probe, runIDs []string, cs store.ColumnScanner) (byRun map[string][]store.Binding, err error) {
	mrColScanChunks.Add(1)
	var missing []string
	if ccs, ok := cs.(store.ContextColumnScanner); ok {
		byRun, missing, err = ccs.ColScanBindingsCtx(ctx, runIDs, pr.Proc, pr.Port, pr.Index)
	} else {
		byRun, missing, err = cs.ColScanBindings(runIDs, pr.Proc, pr.Port, pr.Index)
	}
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		sub, err := ip.inputBindingsBatch(ctx, missing, pr.Proc, pr.Port, pr.Index)
		if err != nil {
			return nil, err
		}
		for r, bs := range sub {
			byRun[r] = bs
		}
	}
	return byRun, nil
}
