package store

import (
	"path/filepath"
	"sort"

	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/value"
)

// This file maintains the store's columnar projection: one immutable
// colstore.Segment per checkpointed run, held beside the B-tree row store
// and answering multi-run probes with vectorized column scans instead of
// row-at-a-time index walks. The row store stays the source of truth —
// segments are built from it at Checkpoint time, invalidated the moment a
// writer touches their run, persisted (durable stores only) through the
// engine's VFS so fault injection covers them, and rebuilt on demand. Any
// run without a fresh segment simply falls back to the row-scan path, so
// the projection can never change an answer, only its cost.
//
// Locking: the in-memory cache (segs), the writer fence (openWriters,
// segGen), and every segment-file operation are all serialized under segMu.
// Keeping disk I/O inside the lock is what makes invalidation airtight — a
// reader can never observe a bumped generation while a stale file still
// lingers — and it is cheap: segment files are touched once per run per
// checkpoint (build) or per process (lazy load), never per probe.

// obs handles for the columnar path.
var (
	obsColSegsScanned = obs.C("colscan.segments_scanned")
	obsColRowsFilt    = obs.C("colscan.rows_filtered")
	obsColZonePrunes  = obs.C("colscan.zonemap_prunes")
	obsColFallbacks   = obs.C("colscan.fallbacks")
	obsColBuilds      = obs.C("colscan.builds")
	obsColPersistErrs = obs.C("colscan.persist_errors")
	obsColBuildNs     = obs.H("colscan.build_ns")
)

// ColumnScanner is the optional columnar fast path of a LineageQuerier. The
// multi-run executors type-assert for it; when absent (or when every run
// lands in the missing list) they use the batched row probes instead, with
// byte-identical results.
type ColumnScanner interface {
	// ColScanBindings answers the batched trace probe Q(P, X, p) from column
	// segments for every run that has a fresh one, returning those answers
	// grouped by run plus the runs that must fall back to row scans. The
	// per-run answers are exactly what InputBindingsBatch would produce.
	ColScanBindings(runIDs []string, proc, port string, idx value.Index) (byRun map[string][]Binding, missing []string, err error)
	// ColScanAvailable reports whether any column segments exist (in memory
	// or on disk), so an executor can decide the columnar path is worth
	// attempting without probing per run.
	ColScanAvailable() bool
}

var _ ColumnScanner = (*Store)(nil)

// initColSegs readies the columnar state for a freshly opened store; called
// once from Open, after the embedded engine handle is available.
func (s *Store) initColSegs() {
	s.segs = make(map[string]*colstore.Segment)
	s.openWriters = make(map[string]int)
	s.segGen = make(map[string]uint64)
	s.segEpoch = make(map[string]uint64)
	if dir := s.rdb.DurableDir(); dir != "" {
		s.segDisk = &colstore.DiskStore{FS: s.rdb.FS(), Dir: filepath.Join(dir, "colseg")}
	}
}

// beginRunWrite fences a run against the columnar projection before its
// first row is written: the in-memory segment is dropped, the on-disk one
// removed, and the run marked open so no builder installs a segment while
// rows are still arriving. Called before the runs-table insert, so any
// reader that can see the run's rows also sees the fence.
func (s *Store) beginRunWrite(runID string) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	s.openWriters[runID]++
	s.segGen[runID]++
	delete(s.segs, runID)
	delete(s.segEpoch, runID)
	s.removeSegFileLocked(runID)
}

// endRunWrite lifts the fence once a writer is done (or failed to start);
// the run becomes eligible for segment builds again at the next checkpoint.
func (s *Store) endRunWrite(runID string) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.openWriters[runID]--; s.openWriters[runID] <= 0 {
		delete(s.openWriters, runID)
	}
}

// invalidateSegment drops a run's segment everywhere (after DeleteRun).
func (s *Store) invalidateSegment(runID string) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	s.segGen[runID]++
	delete(s.segs, runID)
	delete(s.segEpoch, runID)
	s.removeSegFileLocked(runID)
}

func (s *Store) removeSegFileLocked(runID string) {
	if s.segDisk == nil {
		return
	}
	if err := s.segDisk.Remove(runID); err != nil {
		obsColPersistErrs.Add(1)
	}
}

// BuildColumnSegments brings the columnar projection up to date: every run
// that has no fresh segment and no writer in flight gets one built from the
// row store. On durable stores, newly built segments are also persisted
// under <wal dir>/colseg/ through the engine's VFS; persist failures are
// counted and swallowed (the in-memory segment still serves, and a later
// checkpoint retries). It returns the number of segments built. Reading the
// row store is the only failure that surfaces — on error, affected runs stay
// on the row-scan path.
func (s *Store) BuildColumnSegments() (int, error) {
	runs, err := s.ListRuns()
	if err != nil {
		return 0, err
	}
	built := 0
	for _, ri := range runs {
		runID := ri.RunID
		s.segMu.Lock()
		_, have := s.segs[runID]
		open := s.openWriters[runID] > 0
		gen := s.segGen[runID]
		if !have && !open && s.segDisk != nil {
			// A persisted segment from an earlier checkpoint (or previous
			// process) satisfies the run without a rebuild; a corrupt file
			// reads as absent and is replaced by the rebuild below.
			if seg, err := s.segDisk.Load(runID); err == nil && seg != nil {
				s.segs[runID] = seg
				s.segEpoch[runID] = s.rdb.Epoch()
				have = true
			}
		}
		s.segMu.Unlock()
		if have || open {
			continue
		}
		sp := obs.Start(obsColBuildNs)
		seg, err := s.buildSegment(runID)
		sp.End()
		if err != nil {
			return built, err
		}
		if !s.installSegment(runID, gen, seg, true) {
			continue // a writer reopened the run mid-build: discard
		}
		obsColBuilds.Add(1)
		built++
	}
	return built, nil
}

// installSegment publishes a built segment (persisting it when persist is
// set and the store is durable) unless the run was written to or deleted
// since gen was observed — the fence that keeps a stale segment from ever
// shadowing newer rows.
//
// The install also stamps the segment with the engine epoch current at
// install time (segEpoch). The stamp is what lets a pinned View at epoch E
// use a cached segment when segEpoch ≤ E: every row in the segment was
// committed at or before segEpoch (the build read finished before the
// stamp), and the segment is complete as of the stamp (any row of the run
// committed between the build read and the install would have bumped the
// generation through beginRunWrite, failing the check below). Because a run
// mutation always drops the cached segment, a segment still cached when the
// View probes is fresh-or-absent: fresh for every epoch from segEpoch to
// now, absent otherwise.
func (s *Store) installSegment(runID string, gen uint64, seg *colstore.Segment, persist bool) bool {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if s.segGen[runID] != gen || s.openWriters[runID] > 0 {
		return false
	}
	s.segs[runID] = seg
	s.segEpoch[runID] = s.rdb.Epoch()
	if persist && s.segDisk != nil {
		if err := s.segDisk.Write(seg); err != nil {
			obsColPersistErrs.Add(1)
		}
	}
	return true
}

// buildSegment projects one run's xform_in rows into a column segment. The
// rows are sorted by (event_id, pos) — the row store's insertion order —
// before the columnar build, so segment scan order reproduces the run's
// xin_port index scan order exactly.
func (s *Store) buildSegment(runID string) (*colstore.Segment, error) {
	rows, err := s.db.Query(
		`SELECT event_id, pos, proc, port, idx, ctx, val_id FROM xform_in WHERE run_id = ?`, runID)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	type buildRow struct {
		evt, pos int64
		row      colstore.Row
	}
	var brs []buildRow
	for rows.Next() {
		var br buildRow
		var ctx, valID int64
		if err := rows.Scan(&br.evt, &br.pos, &br.row.Proc, &br.row.Port, &br.row.Key, &ctx, &valID); err != nil {
			return nil, err
		}
		br.row.Ctx = int32(ctx)
		br.row.ValID = valID
		brs = append(brs, br)
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	sort.Slice(brs, func(i, j int) bool {
		if brs[i].evt != brs[j].evt {
			return brs[i].evt < brs[j].evt
		}
		return brs[i].pos < brs[j].pos
	})
	crows := make([]colstore.Row, len(brs))
	for i, br := range brs {
		crows[i] = br.row
	}
	return colstore.Build(runID, crows), nil
}

// segmentFor returns the run's fresh segment, lazily loading a persisted one
// on first touch; nil means the run must use the row-scan path.
func (s *Store) segmentFor(runID string) *colstore.Segment {
	s.segMu.RLock()
	seg := s.segs[runID]
	open := s.openWriters[runID] > 0
	disk := s.segDisk
	s.segMu.RUnlock()
	if seg != nil {
		return seg
	}
	if open || disk == nil {
		return nil
	}
	s.segMu.Lock()
	defer s.segMu.Unlock()
	if seg := s.segs[runID]; seg != nil { // raced with another loader
		return seg
	}
	if s.openWriters[runID] > 0 {
		return nil
	}
	loaded, err := s.segDisk.Load(runID)
	if err != nil || loaded == nil {
		return nil // absent, or corrupt: Checkpoint will rebuild it
	}
	s.segs[runID] = loaded
	s.segEpoch[runID] = s.rdb.Epoch()
	return loaded
}

// ColScanAvailable implements ColumnScanner: true when any segment is cached
// or the durable segment directory exists (a previous checkpoint persisted
// segments that segmentFor can lazily load).
func (s *Store) ColScanAvailable() bool {
	s.segMu.RLock()
	n := len(s.segs)
	disk := s.segDisk
	s.segMu.RUnlock()
	if n > 0 {
		return true
	}
	if disk == nil {
		return false
	}
	_, err := disk.FS.Stat(disk.Dir)
	return err == nil
}

// ColScanBindings implements ColumnScanner: the vectorized form of
// InputBindingsBatch. Each run with a fresh segment is answered by at most
// one tight pass over the segment's key column — zone-map filter first, then
// the prefix scan, then the granularity-fallback exact scans (§2.3/§2.4) at
// successively shorter prefixes while the answer is empty — appending into
// one scratch buffer reused across the whole chunk. Runs without a fresh
// segment are returned in missing for the caller to resolve through the row
// path. Per-run answers are byte-identical to InputBindingsBatch: same
// bindings, same order.
func (s *Store) ColScanBindings(runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, []string, error) {
	return colScanBindings(s.segmentFor, runIDs, proc, port, idx)
}

// colScanBindings is the scan core shared by the live store and pinned
// Views; segFor decides which runs have a usable segment (and under what
// visibility rules — latest state for the store, the pinned epoch for a
// View).
func colScanBindings(segFor func(string) *colstore.Segment, runIDs []string, proc, port string, idx value.Index) (map[string][]Binding, []string, error) {
	key, err := IdxKey(idx)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string][]Binding, len(runIDs))
	var missing []string
	var scratch []colstore.Match
	var examined, scanned int64
	for _, runID := range runIDs {
		seg := segFor(runID)
		if seg == nil {
			missing = append(missing, runID)
			continue
		}
		scanned++
		if !seg.MayContainProc(proc) {
			// The zone map proves the run has no rows for proc at all, so
			// the granularity fallback would come up empty at every level:
			// the run's answer is simply empty.
			obsColZonePrunes.Add(1)
			out[runID] = nil
			continue
		}
		scratch = scratch[:0]
		var ex int
		scratch, ex = seg.ScanPrefix(proc, port, key, scratch)
		examined += int64(ex)
		for n := len(key) - (idxComponentWidth + 1); n >= 0 && len(scratch) == 0; n -= idxComponentWidth + 1 {
			scratch, ex = seg.ScanExact(proc, port, key[:n], scratch)
			examined += int64(ex)
		}
		bs, err := bindingsFromMatches(runID, proc, port, scratch)
		if err != nil {
			return nil, nil, err
		}
		out[runID] = bs
	}
	obsColSegsScanned.Add(scanned)
	obsColRowsFilt.Add(examined)
	if len(missing) > 0 {
		obsColFallbacks.Add(int64(len(missing)))
	}
	return out, missing, nil
}

// bindingsFromMatches converts segment matches into Bindings, in match
// (= index scan) order; empty in, nil out, matching the row path.
func bindingsFromMatches(runID, proc, port string, ms []colstore.Match) ([]Binding, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	out := make([]Binding, len(ms))
	for i, m := range ms {
		idx, err := ParseIdxKey(string(m.Key))
		if err != nil {
			return nil, err
		}
		out[i] = Binding{RunID: runID, Proc: proc, Port: port, Index: idx, Ctx: int(m.Ctx), ValID: m.ValID}
	}
	return out, nil
}
