package reldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DB is an embedded relational database: a set of named tables guarded by a
// reader/writer lock for mutations, with reads served lock-free from an
// immutable published version (see dbVersion): every committed mutation
// freezes the tables it touched and atomically publishes a new version
// stamped with a monotonically increasing epoch. Readers — including
// pinned Snapshots — therefore never contend with ingest.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// Durability (optional, see OpenDurable): the write-ahead log every
	// mutation is appended to, and the directory holding log + snapshot.
	wal    *walWriter
	walDir string
	// vfs is the filesystem durability goes through (nil means the OS).
	vfs VFS
	// seq is the sequence number of the last committed WAL record; the
	// snapshot records the value it covers so replay never re-applies.
	seq uint64
	// epoch stamps the currently committed state; it advances by exactly
	// one per committed mutation, and on a durable database it is kept in
	// lockstep with seq, so every committed WAL group is stamped with the
	// epoch at which its effects became visible. Guarded by mu; the
	// published value is read through version.
	epoch uint64
	// version is the latest published immutable state. Stored under mu,
	// loaded lock-free by readers and Snapshot.
	version atomic.Pointer[dbVersion]
	// repairs records integrity repairs made while opening (rebuilt
	// indexes); see RecoveryReport.
	repairs []string
	// stats counters, exported for benchmark instrumentation; atomic
	// because read paths increment them without any lock.
	statIndexScans atomic.Int64
	statFullScans  atomic.Int64
	statRowsRead   atomic.Int64
}

// dbVersion is one immutable published state: the epoch it was committed
// at and a frozen copy of every table. Readers holding a version (directly
// or through a Snapshot) see exactly the data committed at or before its
// epoch, regardless of concurrent mutations.
type dbVersion struct {
	epoch  uint64
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{tables: make(map[string]*Table)}
	db.version.Store(&dbVersion{tables: map[string]*Table{}})
	return db
}

// publishLocked freezes the named dirty tables, reuses the previous frozen
// copy of every clean one, and atomically publishes the result stamped with
// the current epoch. The caller holds the write lock and has already
// committed the mutation (memory + WAL).
func (db *DB) publishLocked(dirty ...string) {
	prev := db.version.Load()
	tables := make(map[string]*Table, len(db.tables))
next:
	for name, t := range db.tables {
		for _, d := range dirty {
			if d == name {
				tables[name] = t.freeze()
				continue next
			}
		}
		if prev != nil {
			if ft, ok := prev.tables[name]; ok {
				tables[name] = ft
				continue
			}
		}
		tables[name] = t.freeze()
	}
	db.version.Store(&dbVersion{epoch: db.epoch, tables: tables})
}

// publishAllLocked freezes every table and publishes; used after bulk state
// replacement (open, replay, adopt, index repair) where per-table dirt
// tracking does not apply.
func (db *DB) publishAllLocked() {
	tables := make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		tables[name] = t.freeze()
	}
	db.version.Store(&dbVersion{epoch: db.epoch, tables: tables})
}

// commitLocked advances the epoch and publishes the named dirty tables; it
// is the last step of every successful logged mutation.
func (db *DB) commitLocked(dirty ...string) {
	db.epoch++
	db.publishLocked(dirty...)
}

// Epoch returns the epoch of the last committed mutation. A reader that
// opens a Snapshot afterwards is guaranteed to see at least this epoch.
func (db *DB) Epoch() uint64 { return db.version.Load().epoch }

// fs returns the database's filesystem, defaulting to the OS.
func (db *DB) fs() VFS {
	if db.vfs == nil {
		return OSFS{}
	}
	return db.vfs
}

// FS exposes the filesystem the database's durability goes through, so
// sidecar files maintained next to the snapshot and WAL (e.g. the store's
// column segments) are written through the same VFS — and therefore see the
// same injected faults and crashes under test as the engine's own files.
func (db *DB) FS() VFS { return db.fs() }

// DurableDir returns the directory holding the WAL and snapshot of a durable
// database, or "" when the database is not durable.
func (db *DB) DurableDir() string { return db.walDir }

// Every logged mutation below is fault-atomic: the in-memory change is made
// first, and if the WAL append then fails the change is rolled back before
// the error is returned. A failed commit therefore leaves both the memory
// state and (after the writer's self-repair) the log exactly as they were,
// so callers may safely retry transient failures.

// CreateTable creates a table with the given schema.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("reldb: table %q: empty schema", name)
	}
	seen := make(map[string]bool, len(schema))
	for _, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("reldb: table %q: column with empty name", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("reldb: table %q: duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	t := newTable(name, schema)
	db.tables[name] = t
	if err := db.logCreateTable(name, t.Schema); err != nil {
		delete(db.tables, name)
		return nil, err
	}
	db.commitLocked(name)
	return t, nil
}

// DropTable removes a table and its indexes.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	delete(db.tables, name)
	if err := db.logDropTable(name); err != nil {
		db.tables[name] = t
		return err
	}
	db.commitLocked()
	return nil
}

// Table returns the live table with the given name. Callers reading row
// data concurrently with ingest should go through Select/Count or a
// Snapshot instead; Table exists for schema lookups and white-box access.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateIndex creates and backfills a secondary index.
func (db *DB) CreateIndex(indexName, tableName string, cols ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	if _, err := t.buildIndex(indexName, cols); err != nil {
		return err
	}
	if err := db.logCreateIndex(indexName, tableName, cols); err != nil {
		t.removeIndex(indexName)
		return err
	}
	db.commitLocked(tableName)
	return nil
}

// Insert adds a row to a table and returns its row ID.
func (db *DB) Insert(tableName string, row Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	rid, err := t.insert(row)
	if err != nil {
		return 0, err
	}
	if err := db.logInsert(tableName, []Row{row}); err != nil {
		t.unInsertTail(rid, 1)
		return 0, err
	}
	db.commitLocked(tableName)
	return rid, nil
}

// InsertBatch adds many rows under one lock acquisition. Index entries are
// maintained in bulk (sorted insertion, bottom-up tree builds for empty or
// small indexes) and the whole batch is group-committed to the write-ahead
// log as one record — one length/CRC frame and one flush, instead of one per
// row. A failing batch leaves the table unchanged.
func (db *DB) InsertBatch(tableName string, rows []Row) error {
	return db.insertBatchMode(tableName, rows, false)
}

// InsertBatchOwned is InsertBatch without the defensive per-row copy: the
// database adopts each row's datum slice as table storage. The rows slice
// itself is copied and may be reused, but the caller must not read or
// modify any row (the []Datum) after the call. Bulk loaders use it to shed
// one allocation and copy per row.
func (db *DB) InsertBatchOwned(tableName string, rows []Row) error {
	return db.insertBatchMode(tableName, rows, true)
}

func (db *DB) insertBatchMode(tableName string, rows []Row, owned bool) error {
	if len(rows) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	base := int64(len(t.rows))
	if err := t.insertBatch(rows, owned); err != nil {
		return err
	}
	if err := db.logInsertBatch(tableName, rows); err != nil {
		t.unInsertTail(base, len(rows))
		return err
	}
	db.commitLocked(tableName)
	return nil
}

// Select returns the rows of a table matching every equality predicate. It
// uses the index covering the longest prefix of the predicate columns when
// one exists, falling back to a heap scan. Rows are returned in index order
// (or row-ID order for heap scans); limit < 0 means no limit.
//
// Select reads the last published version lock-free: it never blocks on —
// and is never blocked by — concurrent ingest or checkpoints.
func (db *DB) Select(tableName string, preds []Pred, limit int) ([]Row, error) {
	return db.selectIn(db.version.Load(), tableName, preds, limit)
}

// Count returns the number of rows matching the predicates, lock-free
// against the last published version.
func (db *DB) Count(tableName string, preds []Pred) (int, error) {
	return db.countIn(db.version.Load(), tableName, preds)
}

// Delete removes every row matching the predicates, returning the count.
func (db *DB) Delete(tableName string, preds []Pred) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	var rids []int64
	var rows []Row
	if err := db.scanTable(t, preds, func(rid int64, row Row) bool {
		rids = append(rids, rid)
		rows = append(rows, row)
		return true
	}); err != nil {
		return 0, err
	}
	for _, rid := range rids {
		if err := t.delete(rid); err != nil {
			return 0, err
		}
	}
	if err := db.logDelete(tableName, rids); err != nil {
		t.reinsertAt(rids, rows)
		return 0, err
	}
	db.commitLocked(tableName)
	return len(rids), nil
}

// Adopt replaces the contents of db with those of other (used to restore a
// snapshot into an already-shared handle). The other database must not be
// used afterwards. Adopt is not a logged operation: a durable database
// stops logging when adopted into (checkpoint to re-establish durability).
func (db *DB) Adopt(other *DB) {
	db.mu.Lock()
	defer db.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	db.tables = other.tables
	db.seq = other.seq
	if other.epoch > db.epoch {
		db.epoch = other.epoch
	}
	db.epoch++
	if db.wal != nil {
		db.wal.close()
		db.wal = nil
	}
	db.publishAllLocked()
}

// Stats reports cumulative access-path counters (index scans, full scans,
// rows read) since the database was created; used by the benchmark harness
// to verify that hot paths are index-backed.
func (db *DB) Stats() (indexScans, fullScans, rowsRead int64) {
	return db.statIndexScans.Load(), db.statFullScans.Load(), db.statRowsRead.Load()
}
