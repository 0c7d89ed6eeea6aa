package store

import (
	"sync"

	"repro/internal/colstore"
	"repro/internal/reldb"
	"repro/internal/trace"
	"repro/internal/value"
)

// A View is a snapshot-isolated read handle on a store: it pins the engine
// epoch current at View() time, and every query through it — single-run
// probes, batched probes, column scans, full trace loads — answers from
// exactly the data committed at or before that epoch, no matter how much
// concurrent ingest lands while the view is open. Views are what keep
// long-running reads (checkpointing a replica, a differential comparison, a
// follower catch-up) coherent under live TailIngest traffic.
//
// A View is one pinned engine snapshot and nothing else: its reads are the
// store's typed index scans run against that snapshot's frozen tables,
// lock-free, so any number of goroutines probe through one View in parallel
// and nothing a View does touches state past its epoch. Close it promptly —
// a pinned epoch holds the frozen tables it references alive.
type View struct {
	s    *Store
	snap *reldb.Snapshot

	// The pinned epoch's run-ID set, built on first use; the data is pinned,
	// so it never changes.
	runsOnce sync.Once
	runSet   map[string]bool
	runsErr  error
}

// Epoch returns the latest committed engine epoch: the epoch a View opened
// now would pin.
func (s *Store) Epoch() uint64 { return s.rdb.Epoch() }

// View opens a snapshot-isolated read handle pinned at the latest committed
// epoch. The caller must Close it.
func (s *Store) View() (*View, error) {
	return &View{s: s, snap: s.rdb.Snapshot()}, nil
}

// Epoch returns the epoch this view is pinned at.
func (v *View) Epoch() uint64 { return v.snap.Epoch() }

// Close releases the view's snapshot (idempotent); reads through a closed
// view fail with reldb.ErrSnapshotReleased.
func (v *View) Close() error {
	v.snap.Release()
	return nil
}

func (v *View) engine() reader { return reader{snap: v.snap} }

// runIDs returns the run-ID set of the pinned epoch.
func (v *View) runIDs() (map[string]bool, error) {
	v.runsOnce.Do(func() { v.runSet, v.runsErr = runSetOn(v.engine()) })
	return v.runSet, v.runsErr
}

func (v *View) runsEstimate() int64 { return runCount(v.runIDs()) }

// The read surface, mirroring Store's: every method answers at the pinned
// epoch. *View satisfies the same read interfaces as *Store.
var (
	_ LineageQuerier = (*View)(nil)
	_ TraceQuerier   = (*View)(nil)
	_ ColumnScanner  = (*View)(nil)
)

// XformsByOutput is Store.XformsByOutput at the pinned epoch.
func (v *View) XformsByOutput(runID, proc, port string, idx value.Index) ([]Xform, error) {
	return v.s.xformsByOutputOn(v.engine(), runID, proc, port, idx)
}

// XformsByInput is Store.XformsByInput at the pinned epoch.
func (v *View) XformsByInput(runID, proc, port string, idx value.Index) ([]ForwardXform, error) {
	return v.s.xformsByInputOn(v.engine(), runID, proc, port, idx)
}

// XfersTo is Store.XfersTo at the pinned epoch.
func (v *View) XfersTo(runID, proc, port string) ([]Xfer, error) {
	return v.s.xfersOn(v.engine(), v.s.scans.xfersTo, runID, proc, port)
}

// XfersFrom is Store.XfersFrom at the pinned epoch.
func (v *View) XfersFrom(runID, proc, port string) ([]Xfer, error) {
	return v.s.xfersOn(v.engine(), v.s.scans.xfersFrom, runID, proc, port)
}

// InputBindings is Store.InputBindings at the pinned epoch.
func (v *View) InputBindings(runID, proc, port string, idx value.Index) ([]Binding, error) {
	return v.s.inputBindingsOn(v.engine(), runID, proc, port, idx)
}

// InputBindingsBatch is Store.InputBindingsBatch at the pinned epoch.
func (v *View) InputBindingsBatch(runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, error) {
	return v.s.inputBindingsBatchOn(v.engine(), runIDs, proc, port, idx)
}

// Value is Store.Value at the pinned epoch.
func (v *View) Value(runID string, valID int64) (value.Value, error) {
	return v.s.valueOn(v.engine(), runID, valID)
}

// ValuesBatch is Store.ValuesBatch at the pinned epoch.
func (v *View) ValuesBatch(refs []ValueRef) (map[ValueRef]value.Value, error) {
	return v.s.valuesBatchOn(v.engine(), v.runsEstimate, refs)
}

// HasRun reports whether the pinned epoch holds the given run. The run set
// is built once per view (the pinned data cannot change), so multi-run
// validation costs one map lookup per run.
func (v *View) HasRun(runID string) (bool, error) {
	set, err := v.runIDs()
	return set[runID], err
}

// ListRuns is Store.ListRuns at the pinned epoch.
func (v *View) ListRuns() ([]RunInfo, error) { return listRunsOn(v.engine()) }

// RecordCounts is Store.RecordCounts at the pinned epoch.
func (v *View) RecordCounts(runID string) (xformIn, xformOut, xfers int, err error) {
	return recordCountsOn(v.engine(), runID)
}

// LoadTrace is Store.LoadTrace at the pinned epoch: the trace as of the
// view's epoch, even while later events for the same run are streaming in.
func (v *View) LoadTrace(runID string) (*trace.Trace, error) {
	return loadTraceOn(v.engine(), runID)
}

// pinnedSegment returns the run's column segment only when it is provably
// usable at the pinned epoch: cached, and installed at an epoch the view
// covers (see colseg.go's fencing notes). Unlike Store.segmentFor it never
// lazily loads from disk — a segment loaded now would carry the current
// epoch, which a pinned view cannot use.
func (v *View) pinnedSegment(runID string) *colstore.Segment {
	v.s.segMu.RLock()
	defer v.s.segMu.RUnlock()
	seg := v.s.segs[runID]
	if seg == nil || v.s.segEpoch[runID] > v.Epoch() {
		return nil
	}
	return seg
}

// ColScanAvailable implements ColumnScanner for the pinned view: true when
// any cached segment is usable at the view's epoch.
func (v *View) ColScanAvailable() bool {
	v.s.segMu.RLock()
	defer v.s.segMu.RUnlock()
	for runID, e := range v.s.segEpoch {
		if _, ok := v.s.segs[runID]; ok && e <= v.Epoch() {
			return true
		}
	}
	return false
}

// ColScanBindings implements ColumnScanner at the pinned epoch: runs whose
// segment is not usable at the view's epoch land in missing and resolve
// through the view's row path, so answers never leak past the pin.
func (v *View) ColScanBindings(runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, []string, error) {
	return colScanBindings(v.pinnedSegment, runIDs, proc, port, idx)
}
