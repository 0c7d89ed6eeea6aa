package reldb

import (
	"errors"
	"sync/atomic"
)

// ErrSnapshotReleased is returned by reads through a Snapshot after Release.
var ErrSnapshotReleased = errors.New("reldb: snapshot released")

// Snapshot is a pinned, immutable view of the database at the epoch of the
// last committed mutation when it was taken. Reads through a snapshot are
// lock-free and see exactly the data committed at or before its epoch, no
// matter how much concurrent ingest, deletion or checkpointing happens
// after the pin. Snapshots are cheap (one atomic load); Release marks the
// snapshot dead — the underlying frozen tables are reclaimed by the garbage
// collector once the last published version moves past them.
type Snapshot struct {
	db       *DB
	v        *dbVersion
	released atomic.Bool
}

// Snapshot pins the current committed state and returns a read handle over
// it. The returned snapshot observes every mutation whose call completed
// before Snapshot was called, and none that commits after.
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{db: db, v: db.version.Load()}
}

// Epoch returns the epoch the snapshot is pinned at.
func (s *Snapshot) Epoch() uint64 { return s.v.epoch }

// Release marks the snapshot dead. Further reads fail with
// ErrSnapshotReleased; releasing twice is a no-op.
func (s *Snapshot) Release() { s.released.Store(true) }

// Table returns the frozen table with the given name as of the snapshot's
// epoch.
func (s *Snapshot) Table(name string) (*Table, bool) {
	if s.released.Load() {
		return nil, false
	}
	t, ok := s.v.tables[name]
	return t, ok
}

// Select is DB.Select against the pinned epoch.
func (s *Snapshot) Select(tableName string, preds []Pred, limit int) ([]Row, error) {
	if s.released.Load() {
		return nil, ErrSnapshotReleased
	}
	return s.db.selectIn(s.v, tableName, preds, limit)
}

// Count is DB.Count against the pinned epoch.
func (s *Snapshot) Count(tableName string, preds []Pred) (int, error) {
	if s.released.Load() {
		return 0, ErrSnapshotReleased
	}
	return s.db.countIn(s.v, tableName, preds)
}

// Scan is DB.Scan against the pinned epoch.
func (s *Snapshot) Scan(sc *Scan, vals []Datum, fn func(rid int64, row Row) bool) error {
	if s.released.Load() {
		return ErrSnapshotReleased
	}
	c := Cursor{db: s.db, v: s.v}
	err := c.Scan(sc, vals, fn)
	c.Close()
	return err
}

// Cursor opens a cursor on the pinned epoch; its scans fail with
// ErrSnapshotReleased once the snapshot is released.
func (s *Snapshot) Cursor() *Cursor { return &Cursor{db: s.db, v: s.v, snap: s} }
