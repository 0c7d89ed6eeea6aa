package store

import (
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/reldb"
	"repro/internal/sqlike"
)

// Store is a handle on a provenance database. It is safe for concurrent use.
// Lineage probes and the other reads are typed index scans issued straight
// at the embedded engine (see reader.go): lock-free against its last
// published version, so readers never wait on each other or on ingest. Run
// writers register runs and flush their rows as typed engine calls too (see
// writer.go). SQL (db) carries the rest: DDL and migration, run deletion,
// the dead-letter queue, and the ad-hoc surface handed out by DB().
type Store struct {
	db  *sql.DB
	dsn string
	// rdb is the embedded engine behind dsn. Reads scan it directly, and
	// run writers flush multi-row batches straight into it (one lock
	// acquisition + one group-committed WAL record per batch).
	rdb *reldb.DB
	// scans are the read path's access paths, prepared once per store.
	scans scans

	// regMu makes run registration (check the runs table for the ID, then
	// insert it) one step; see registerRun.
	regMu sync.Mutex

	// runSet caches the stored run IDs (nil = unknown) so HasRun — called
	// once per run by every multi-run query's validation pass — is a map
	// lookup, not a scan of the runs table. Writers invalidate it; runGen
	// counts the invalidations, so a set listed before one can never be
	// installed after it.
	runSetMu sync.RWMutex
	runSet   map[string]bool
	runGen   uint64

	// Columnar projection state (see colseg.go). segs caches one immutable
	// colstore.Segment per checkpointed run; openWriters and segGen fence
	// segment installs against concurrent ingest so a probe can never see a
	// segment that lags the row store; segEpoch records the engine epoch each
	// cached segment became current at, so pinned Views can tell which
	// segments their epoch covers; segDisk (durable stores only) persists
	// segments next to the WAL through the engine's VFS.
	segMu       sync.RWMutex
	segs        map[string]*colstore.Segment
	openWriters map[string]int
	segGen      map[string]uint64
	segEpoch    map[string]uint64
	segDisk     *colstore.DiskStore

	// Dead-letter queue sequencing (see tail.go).
	dlqState
}

// schema is the DDL of the provenance database, mirroring the relational
// implementation described in §4 of the paper: one row per xform input
// binding, one per xform output binding, one per xfer event, plus runs and
// deduplicated port values. Every query issued by the lineage algorithms is
// covered by one of the composite indexes.
var schema = []string{
	`CREATE TABLE runs (run_id TEXT, workflow TEXT)`,
	`CREATE INDEX runs_id ON runs (run_id)`,

	`CREATE TABLE vals (run_id TEXT, val_id INT, payload TEXT)`,
	`CREATE INDEX vals_id ON vals (run_id, val_id)`,
	`CREATE INDEX vals_vid ON vals (val_id)`,

	`CREATE TABLE xform_in (run_id TEXT, event_id INT, pos INT, proc TEXT, port TEXT, idx TEXT, ctx INT, val_id INT)`,
	`CREATE INDEX xin_evt ON xform_in (run_id, event_id, pos)`,
	`CREATE INDEX xin_port ON xform_in (run_id, proc, port, idx)`,

	`CREATE TABLE xform_out (run_id TEXT, event_id INT, proc TEXT, port TEXT, idx TEXT, ctx INT, val_id INT)`,
	`CREATE INDEX xout_port ON xform_out (run_id, proc, port, idx)`,
	`CREATE INDEX xout_evt ON xform_out (run_id, event_id)`,

	`CREATE TABLE xfer (run_id TEXT, from_proc TEXT, from_port TEXT, from_idx TEXT, from_ctx INT,
	                    to_proc TEXT, to_port TEXT, to_idx TEXT, to_ctx INT, val_id INT)`,
	`CREATE INDEX xfer_to ON xfer (run_id, to_proc, to_port)`,
	`CREATE INDEX xfer_from ON xfer (run_id, from_proc, from_port)`,

	// The streaming-ingest dead-letter queue (see tail.go): events TailIngest
	// rejects, kept durably for inspection and replay.
	`CREATE TABLE dlq (seq INT, run_id TEXT, kind TEXT, reason TEXT, event TEXT, retries INT)`,
	`CREATE INDEX dlq_seq ON dlq (seq)`,
}

// Column positions of the tables above, for the typed engine reads.
const (
	runsRun, runsWorkflow = 0, 1

	valsRun, valsID, valsPayload = 0, 1, 2

	inRun, inEvent, inPos, inProc, inPort, inIdx, inCtx, inVal = 0, 1, 2, 3, 4, 5, 6, 7

	outRun, outEvent, outProc, outPort, outIdx, outCtx, outVal = 0, 1, 2, 3, 4, 5, 6

	xferRun, xferFromProc, xferFromPort, xferFromIdx, xferFromCtx = 0, 1, 2, 3, 4
	xferToProc, xferToPort, xferToIdx, xferToCtx, xferVal         = 5, 6, 7, 8, 9
)

// Open opens (and if necessary initializes) a provenance store at the given
// sqlike DSN ("memory:<name>" or "file:<path>").
func Open(dsn string) (*Store, error) {
	db, err := sql.Open(sqlike.DriverName, dsn)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{db: db, dsn: dsn, scans: newScans()}
	if err := s.ensureSchema(); err != nil {
		db.Close()
		return nil, err
	}
	if s.rdb, err = sqlike.DBFor(dsn); err != nil {
		db.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.initColSegs()
	return s, nil
}

// MemoryDSN returns a fresh, private in-memory DSN.
func MemoryDSN() string { return sqlike.MemoryDSN() }

// OpenMemory opens a fresh, private in-memory provenance store.
func OpenMemory() (*Store, error) { return Open(MemoryDSN()) }

func (s *Store) ensureSchema() error {
	// The runs table existing means the schema is already in place; stores
	// created before an index was added to the schema still need it built.
	var n int
	if err := s.db.QueryRow(`SELECT COUNT(*) FROM runs`).Scan(&n); err == nil {
		return s.migrateIndexes()
	}
	for _, stmt := range schema {
		if _, err := s.db.Exec(stmt); err != nil {
			return fmt.Errorf("store: initializing schema: %w", err)
		}
	}
	return nil
}

// migrateIndexes backfills schema objects added after a store was created:
// indexes and whole tables (e.g. dlq, the streaming-ingest dead-letter
// queue). It drops nothing. A durable store created while the schema still
// declared the cross-run xin_ppi (proc, port, idx) index keeps it, maintained
// on write but never planned onto: every prepared xform_in scan binds run_id,
// and an index leading with run_id covers more of its columns.
func (s *Store) migrateIndexes() error {
	for _, stmt := range schema {
		if !strings.HasPrefix(stmt, "CREATE INDEX") && !strings.HasPrefix(stmt, "CREATE TABLE") {
			continue
		}
		if _, err := s.db.Exec(stmt); err != nil {
			if errors.Is(err, reldb.ErrIndexExists) || errors.Is(err, reldb.ErrTableExists) {
				continue
			}
			return fmt.Errorf("store: migrating schema: %w", err)
		}
	}
	return nil
}

// Close releases the database handle. In-memory stores also release their
// contents.
func (s *Store) Close() error {
	err := s.db.Close()
	sqlike.Forget(s.dsn)
	return err
}

// DB exposes the database/sql handle for ad-hoc queries (used by the CLIs,
// the benchmark harness, and the SQL oracle of the differential tests).
func (s *Store) DB() *sql.DB { return s.db }

// DSN returns the store's data source name.
func (s *Store) DSN() string { return s.dsn }

// Save snapshots the store to a file; a store opened later with DSN
// "file:<path>" sees the saved state.
func (s *Store) Save(path string) error {
	_, err := s.db.Exec(`SAVE TO '` + sqlEscape(path) + `'`)
	return err
}

// Checkpoint writes a fresh snapshot of a durable store and truncates its
// write-ahead log, bounding both the WAL's disk footprint and the replay
// work a later Open must do. On a non-durable (memory- or file-backed)
// store there is no log to truncate and that step is a no-op.
//
// Checkpoint is also when the store brings its columnar projection up to
// date: every quiescent run without a fresh column segment gets one built
// from the row store (and, on durable stores, persisted beside the WAL).
// Segment maintenance is best-effort — a build failure leaves the affected
// runs on the row-scan path, it never fails the checkpoint.
func (s *Store) Checkpoint() error {
	if err := s.rdb.Checkpoint(); err != nil {
		if !errors.Is(err, reldb.ErrNotDurable) {
			return err
		}
	}
	_, err := s.BuildColumnSegments()
	return err
}

func sqlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// RunInfo describes one stored run.
type RunInfo struct {
	RunID    string
	Workflow string
}

// ListRuns returns all stored runs.
func (s *Store) ListRuns() ([]RunInfo, error) { return listRunsOn(s.engine()) }

func listRunsOn(r reader) ([]RunInfo, error) {
	rows, err := r.selectRows("runs")
	if err != nil {
		return nil, err
	}
	var out []RunInfo
	for _, row := range rows {
		out = append(out, RunInfo{RunID: row[runsRun].Str(), Workflow: row[runsWorkflow].Str()})
	}
	return out, nil
}

// runSetOn lists the run IDs visible to r as a set.
func runSetOn(r reader) (map[string]bool, error) {
	rows, err := r.selectRows("runs")
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(rows))
	for _, row := range rows {
		set[row[runsRun].Str()] = true
	}
	return set, nil
}

// runIDs returns the cached run-ID set, building it on first use. A set
// that a writer invalidated while it was being listed is returned to this
// caller (it was current at some point during the call) but not cached.
func (s *Store) runIDs() (map[string]bool, error) {
	s.runSetMu.RLock()
	set, gen := s.runSet, s.runGen
	s.runSetMu.RUnlock()
	if set != nil {
		return set, nil
	}
	set, err := runSetOn(s.engine())
	if err != nil {
		return nil, err
	}
	s.runSetMu.Lock()
	if s.runGen == gen {
		s.runSet = set
	}
	s.runSetMu.Unlock()
	return set, nil
}

// HasRun reports whether the store holds the given run. It is not counted as
// a lineage probe: existence checks are bookkeeping, not trace access. The
// answer comes from the cached run-ID set, so validating a large multi-run
// query costs one map lookup per run, not one table scan per run.
func (s *Store) HasRun(runID string) (bool, error) {
	set, err := s.runIDs()
	return set[runID], err
}

// runsEstimate returns the number of stored runs. It only steers the
// cross-run scan heuristic in ValuesBatch.
func (s *Store) runsEstimate() int64 { return runCount(s.runIDs()) }

func runCount(set map[string]bool, err error) int64 {
	if err != nil {
		return 1 << 30 // unknown: make cross-run scans look expensive
	}
	return int64(len(set))
}

// invalidateRunCaches drops the cached run-ID set after a mutation of the
// runs table.
func (s *Store) invalidateRunCaches() {
	s.runSetMu.Lock()
	s.runSet = nil
	s.runGen++
	s.runSetMu.Unlock()
}

// RunsOf returns the IDs of all runs of the named workflow.
func (s *Store) RunsOf(workflow string) ([]string, error) {
	runs, err := s.ListRuns()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range runs {
		if r.Workflow == workflow {
			out = append(out, r.RunID)
		}
	}
	return out, nil
}

// RecordCounts reports the number of rows each event table holds for a run
// (pass "" for all runs). This is the metric of Table 1 of the paper: xform
// input rows + xform output rows + xfer rows.
func (s *Store) RecordCounts(runID string) (xformIn, xformOut, xfers int, err error) {
	return recordCountsOn(s.engine(), runID)
}

func recordCountsOn(r reader, runID string) (xformIn, xformOut, xfers int, err error) {
	var preds []reldb.Pred
	if runID != "" {
		preds = []reldb.Pred{reldb.Eq("run_id", reldb.S(runID))}
	}
	if xformIn, err = r.count("xform_in", preds); err != nil {
		return
	}
	if xformOut, err = r.count("xform_out", preds); err != nil {
		return
	}
	xfers, err = r.count("xfer", preds)
	return
}

// TotalRecords returns the Table 1 record count for a run ("" for all runs).
func (s *Store) TotalRecords(runID string) (int, error) {
	in, out, xf, err := s.RecordCounts(runID)
	return in + out + xf, err
}

// DeleteRun removes every record of a run (events, transfers, values and
// the run row itself), returning the number of event rows removed.
func (s *Store) DeleteRun(runID string) (int, error) {
	var n int
	if err := s.db.QueryRow(`SELECT COUNT(*) FROM runs WHERE run_id = ?`, runID).Scan(&n); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: %q", ErrUnknownRun, runID)
	}
	// Drop the run's column segment before touching its rows (so no probe
	// serves the run from a segment while rows disappear underneath it) …
	s.invalidateSegment(runID)
	removed := 0
	for _, table := range []string{"xform_in", "xform_out", "xfer"} {
		res, err := s.db.Exec(`DELETE FROM `+table+` WHERE run_id = ?`, runID)
		if err != nil {
			return removed, err
		}
		if aff, err := res.RowsAffected(); err == nil {
			removed += int(aff)
		}
	}
	if _, err := s.db.Exec(`DELETE FROM vals WHERE run_id = ?`, runID); err != nil {
		return removed, err
	}
	if _, err := s.db.Exec(`DELETE FROM runs WHERE run_id = ?`, runID); err != nil {
		return removed, err
	}
	// … and again afterwards, bumping the generation a second time so a
	// segment build that raced the deletes (reading a half-deleted run)
	// can never install its result.
	s.invalidateSegment(runID)
	s.invalidateRunCaches()
	return removed, nil
}
