package reldb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"repro/internal/obs"
)

// Write-ahead logging: a durable database pairs a snapshot file with an
// append-only log of mutations. Every mutating operation is applied to the
// in-memory state and appended to the log (synchronously flushed); recovery
// loads the snapshot and replays the log, tolerating a torn final record.
// Checkpoint writes a fresh snapshot and truncates the log.
//
// Record layout: u32 length | u32 crc | u64 seq | payload. The CRC covers
// the sequence number and the payload. Sequence numbers are assigned
// monotonically per committed record and the snapshot stores the last one it
// covers, so replay is idempotent: a crash after the checkpoint snapshot
// lands but before the log truncation cannot re-apply old records (they are
// skipped by sequence), and an interrupted truncation is repaired by the
// next checkpoint.
//
// The payload starts with a one-byte record type followed by type-specific
// fields using the snapshot encoding helpers.

const (
	recCreateTable byte = 1
	recCreateIndex byte = 2
	recDropTable   byte = 3
	recInsert      byte = 4
	recDelete      byte = 5
	// recInsertBatch is the group-committed form of recInsert: all rows of
	// one InsertBatch share a single length/CRC frame and a single flush, so
	// a batch is durable (and replayed) atomically — a torn tail drops the
	// whole batch, never part of it. Replay goes through the bulk index
	// maintenance path, so recovery of batched ingest is itself batched.
	recInsertBatch byte = 6
)

// walFrameHeader is the fixed per-record framing overhead in bytes.
const walFrameHeader = 16

const (
	snapshotFile = "snapshot.db"
	walFile      = "wal.log"
)

// walWriter appends framed records to the log through the database's VFS.
// It tracks the durable byte offset of the last acknowledged record: after a
// failed append (which may have left partial bytes on disk) the writer is
// marked broken, and the next append first repairs the file by truncating it
// back to the last good offset and reopening — so a transient write error
// never poisons the log for later commits.
type walWriter struct {
	fs     VFS
	path   string
	f      File
	w      *bufio.Writer
	good   int64 // durable size after the last acknowledged append
	broken bool  // the tail past good may be garbage; repair before appending
	closed bool
}

func (w *walWriter) append(seq uint64, payload []byte) error {
	if w.closed {
		return ErrClosed
	}
	if w.broken || w.f == nil {
		if err := w.repair(); err != nil {
			return fmt.Errorf("reldb: wal repair: %w", err)
		}
	}
	var hdr [walFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.ChecksumIEEE(hdr[8:16])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	sp := obs.Start(obsWalAppendNs)
	err := func() error {
		if _, err := w.w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.w.Write(payload); err != nil {
			return err
		}
		if err := w.w.Flush(); err != nil {
			return err
		}
		fs := obs.Start(obsWalFsyncNs)
		serr := w.f.Sync()
		fs.End()
		return serr
	}()
	sp.End()
	if err != nil {
		w.broken = true
		return err
	}
	w.good += walFrameHeader + int64(len(payload))
	obsWalAppends.Add(1)
	obsWalBytes.Add(walFrameHeader + int64(len(payload)))
	return nil
}

// repair restores the log to its last acknowledged size and reopens it for
// appending. It runs after a failed append (dropping any partial tail) and
// after a checkpoint (with good reset to zero, truncating the whole log).
func (w *walWriter) repair() error {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if err := w.fs.Truncate(w.path, w.good); err != nil {
		return err
	}
	f, err := w.fs.Append(w.path)
	if err != nil {
		return err
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.broken = false
	return nil
}

// reset empties the log after a checkpoint snapshot has been made durable.
// On failure the old records remain on disk, which is safe: replay skips
// them by sequence number.
func (w *walWriter) reset() error {
	w.good = 0
	w.broken = true
	if err := w.repair(); err != nil {
		return fmt.Errorf("reldb: wal reset: %w", err)
	}
	return nil
}

func (w *walWriter) close() error {
	if w == nil || w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// OpenDurable opens (creating if necessary) a durable database in a
// directory: the state is the snapshot plus the replayed write-ahead log.
func OpenDurable(dir string) (*DB, error) { return OpenDurableVFS(OSFS{}, dir) }

// OpenDurableVFS is OpenDurable through an explicit filesystem; fault
// injection harnesses use it to exercise every I/O failure point.
func OpenDurableVFS(fs VFS, dir string) (*DB, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("reldb: durable open: %w", err)
	}
	snapPath := filepath.Join(dir, snapshotFile)
	var db *DB
	if _, err := fs.Stat(snapPath); err == nil {
		db, err = LoadVFS(fs, snapPath)
		if err != nil {
			return nil, err
		}
	} else {
		db = NewDB()
	}
	db.vfs = fs
	walPath := filepath.Join(dir, walFile)
	goodOff, err := db.replayWAL(walPath)
	if err != nil {
		return nil, err
	}
	f, err := fs.Append(walPath)
	if err != nil {
		return nil, fmt.Errorf("reldb: durable open: %w", err)
	}
	db.mu.Lock()
	db.wal = &walWriter{fs: fs, path: walPath, f: f, w: bufio.NewWriter(f), good: goodOff}
	db.walDir = dir
	// Epochs track WAL sequence numbers on a durable database: every
	// committed record's seq is the epoch at which its effects became
	// visible, and recovery resumes the epoch clock from the last durable
	// record — an acked commit is visible at its epoch across a crash.
	db.epoch = db.seq
	db.mu.Unlock()
	// Secondary indexes are rebuilt from table contents by load/replay, but
	// verify their shape anyway: any index that disagrees with its table is
	// rebuilt before the database is shared, and the repair is reported.
	// repairIndexesOnOpen publishes the recovered state as the first
	// readable version.
	db.repairIndexesOnOpen()
	return db, nil
}

// CloseDurable flushes and closes the write-ahead log. The database remains
// usable in memory but stops logging.
func (db *DB) CloseDurable() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.wal.close()
	db.wal = nil
	return err
}

// Checkpoint writes a snapshot of the current state and truncates the
// write-ahead log, bounding recovery time. The write lock is held across the
// snapshot AND the log truncation: a mutation committed by a concurrent
// ingest worker is either captured by the snapshot or still present in the
// fresh log — never lost in between. The snapshot replacement is atomic
// (temp file, fsync, rename, directory fsync) and carries the covered WAL
// sequence, so a crash at ANY point — mid-snapshot, between the rename and
// the truncation, or mid-truncation — recovers to a state holding exactly
// the acknowledged commits.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	dir := db.walDir
	if dir == "" {
		return ErrNotDurable
	}
	if db.wal == nil || db.wal.closed {
		return ErrClosed
	}
	sp := obs.Start(obsCheckpointNs)
	defer sp.End()
	if err := db.saveLocked(filepath.Join(dir, snapshotFile)); err != nil {
		return err
	}
	if err := db.wal.reset(); err != nil {
		return err
	}
	obsCheckpoints.Add(1)
	return nil
}

// replayWAL applies the log records at path (if any) with sequence numbers
// above the snapshot's, and returns the byte offset of the end of the last
// intact record. A torn or corrupt tail — the expected shape of a crash —
// stops replay at the last intact record and truncates the file there;
// corruption before the tail is an error.
func (db *DB) replayWAL(path string) (int64, error) {
	fs := db.fs()
	data, err := fs.ReadFile(path)
	if err != nil {
		if _, serr := fs.Stat(path); serr != nil {
			return 0, nil // no log yet
		}
		return 0, fmt.Errorf("reldb: wal replay: %w", err)
	}
	off := 0
	for off < len(data) {
		if off+walFrameHeader > len(data) {
			break // torn header
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		seq := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if off+walFrameHeader+n > len(data) {
			break // torn payload
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+n]
		crc := crc32.ChecksumIEEE(data[off+8 : off+16])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != want {
			break // torn/corrupt record: stop at the last intact one
		}
		if seq > db.seq {
			if err := db.applyRecord(payload); err != nil {
				return 0, fmt.Errorf("reldb: wal replay at offset %d: %w", off, err)
			}
			db.seq = seq
			obsWalReplayed.Add(1)
		}
		off += walFrameHeader + n
	}
	if off < len(data) {
		if err := fs.Truncate(path, int64(off)); err != nil {
			return 0, fmt.Errorf("reldb: wal truncate: %w", err)
		}
	}
	return int64(off), nil
}

func (db *DB) applyRecord(payload []byte) error {
	r := &byteReader{data: payload}
	kind, err := r.bytes(1)
	if err != nil {
		return err
	}
	switch kind[0] {
	case recCreateTable:
		name, err := r.str()
		if err != nil {
			return err
		}
		nCols, err := r.uvarint()
		if err != nil {
			return err
		}
		schema := make(Schema, nCols)
		for i := range schema {
			cname, err := r.str()
			if err != nil {
				return err
			}
			ctype, err := r.uvarint()
			if err != nil {
				return err
			}
			schema[i] = Column{Name: cname, Type: ColType(ctype)}
		}
		_, err = db.createTableLockedFree(name, schema)
		return err
	case recCreateIndex:
		iname, err := r.str()
		if err != nil {
			return err
		}
		tname, err := r.str()
		if err != nil {
			return err
		}
		nCols, err := r.uvarint()
		if err != nil {
			return err
		}
		cols := make([]string, nCols)
		for i := range cols {
			if cols[i], err = r.str(); err != nil {
				return err
			}
		}
		return db.createIndexNoLog(iname, tname, cols...)
	case recDropTable:
		name, err := r.str()
		if err != nil {
			return err
		}
		return db.dropTableNoLog(name)
	case recInsert:
		tname, err := r.str()
		if err != nil {
			return err
		}
		nRows, err := r.uvarint()
		if err != nil {
			return err
		}
		t, ok := db.tables[tname]
		if !ok {
			return fmt.Errorf("insert into missing table %q", tname)
		}
		for i := uint64(0); i < nRows; i++ {
			row := make(Row, len(t.Schema))
			for j := range row {
				if row[j], err = r.datum(); err != nil {
					return err
				}
			}
			if _, err := t.insert(row); err != nil {
				return err
			}
		}
		return nil
	case recInsertBatch:
		tname, err := r.str()
		if err != nil {
			return err
		}
		nRows, err := r.uvarint()
		if err != nil {
			return err
		}
		t, ok := db.tables[tname]
		if !ok {
			return fmt.Errorf("batch insert into missing table %q", tname)
		}
		rows := make([]Row, nRows)
		for i := range rows {
			row := make(Row, len(t.Schema))
			for j := range row {
				if row[j], err = r.datum(); err != nil {
					return err
				}
			}
			rows[i] = row
		}
		// Rows are freshly decoded from the log, so the table can adopt them.
		return t.insertBatch(rows, true)
	case recDelete:
		tname, err := r.str()
		if err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		t, ok := db.tables[tname]
		if !ok {
			return fmt.Errorf("delete from missing table %q", tname)
		}
		for i := uint64(0); i < n; i++ {
			rid, err := r.uvarint()
			if err != nil {
				return err
			}
			if err := t.delete(int64(rid)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown wal record type %d", ErrCorrupt, kind[0])
	}
}

// createTableLockedFree and friends apply schema mutations without logging
// and without taking the lock (replay runs before the database is shared).
func (db *DB) createTableLockedFree(name string, schema Schema) (*Table, error) {
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	t := newTable(name, schema)
	db.tables[name] = t
	return t, nil
}

func (db *DB) createIndexNoLog(indexName, tableName string, cols ...string) error {
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	_, err := t.buildIndex(indexName, cols)
	return err
}

func (db *DB) dropTableNoLog(name string) error {
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	delete(db.tables, name)
	return nil
}

// Log-record builders, called with db.mu held after the in-memory mutation
// succeeded. Each commits under a fresh sequence number.

func (db *DB) logCreateTable(name string, schema Schema) error {
	if db.wal == nil {
		return nil
	}
	var buf walBuf
	buf.byte(recCreateTable)
	buf.str(name)
	buf.uvarint(uint64(len(schema)))
	for _, c := range schema {
		buf.str(c.Name)
		buf.uvarint(uint64(c.Type))
	}
	db.seq++
	return db.wal.append(db.seq, buf.b)
}

func (db *DB) logCreateIndex(indexName, tableName string, cols []string) error {
	if db.wal == nil {
		return nil
	}
	var buf walBuf
	buf.byte(recCreateIndex)
	buf.str(indexName)
	buf.str(tableName)
	buf.uvarint(uint64(len(cols)))
	for _, c := range cols {
		buf.str(c)
	}
	db.seq++
	return db.wal.append(db.seq, buf.b)
}

func (db *DB) logDropTable(name string) error {
	if db.wal == nil {
		return nil
	}
	var buf walBuf
	buf.byte(recDropTable)
	buf.str(name)
	db.seq++
	return db.wal.append(db.seq, buf.b)
}

func (db *DB) logInsert(tableName string, rows []Row) error {
	if db.wal == nil {
		return nil
	}
	var buf walBuf
	buf.byte(recInsert)
	buf.str(tableName)
	buf.uvarint(uint64(len(rows)))
	for _, row := range rows {
		for _, d := range row {
			buf.datum(d)
		}
	}
	db.seq++
	return db.wal.append(db.seq, buf.b)
}

// logInsertBatch writes one recInsertBatch record covering every row of the
// batch: one header, one CRC, one flush — group commit.
func (db *DB) logInsertBatch(tableName string, rows []Row) error {
	if db.wal == nil {
		return nil
	}
	var buf walBuf
	buf.byte(recInsertBatch)
	buf.str(tableName)
	buf.uvarint(uint64(len(rows)))
	for _, row := range rows {
		for _, d := range row {
			buf.datum(d)
		}
	}
	db.seq++
	return db.wal.append(db.seq, buf.b)
}

func (db *DB) logDelete(tableName string, rids []int64) error {
	if db.wal == nil {
		return nil
	}
	var buf walBuf
	buf.byte(recDelete)
	buf.str(tableName)
	buf.uvarint(uint64(len(rids)))
	for _, rid := range rids {
		buf.uvarint(uint64(rid))
	}
	db.seq++
	return db.wal.append(db.seq, buf.b)
}

// walBuf accumulates a record payload using the snapshot field encodings.
type walBuf struct {
	b []byte
}

func (w *walBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *walBuf) byte(c byte)      { w.b = append(w.b, c) }
func (w *walBuf) uvarint(v uint64) { writeUvarint(w, v) }
func (w *walBuf) str(s string)     { writeString(w, s) }
func (w *walBuf) datum(d Datum)    { writeDatum(w, d) }

var _ io.Writer = (*walBuf)(nil)
