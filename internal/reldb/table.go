package reldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of a column by name.
func (s Schema) ColIndex(name string) (int, bool) {
	for i, c := range s {
		if c.Name == name {
			return i, true
		}
	}
	return -1, false
}

// Index is a secondary index over one or more columns of a table. Entries
// are stored in a B-tree under the order-preserving encoding of the indexed
// columns followed by the row ID (making every entry unique and scans
// stable).
type Index struct {
	Name string
	Cols []int // column positions in the table schema
	tree *btree
	// damaged quarantines an index that failed an integrity check: the
	// planner bypasses it (queries fall back to heap scans) until it is
	// rebuilt from the table. Mutations keep maintaining it so a rebuild
	// is only ever needed once.
	damaged bool
}

// Damaged reports whether the index is quarantined (see DB.VerifyIndexes).
func (ix *Index) Damaged() bool { return ix.damaged }

// entryKey builds the stored key for a row.
func (ix *Index) entryKey(row Row, rid int64) []byte {
	key := make([]byte, 0, 16*len(ix.Cols)+8)
	for _, c := range ix.Cols {
		key = encodeDatum(key, row[c])
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(rid))
	return append(key, buf[:]...)
}

// Table is a heap-organized table: rows live in a slice addressed by row ID,
// with tombstones marking deleted rows.
type Table struct {
	Name    string
	Schema  Schema
	rows    []Row // nil entries are tombstones
	live    int
	indexes []*Index
	// rowsShared marks the row heap as shared with a frozen copy (see
	// freeze): appends remain safe (a frozen copy's slice header has the
	// frozen length, so rows past it are invisible), but in-place
	// tombstoning must copy the slice first.
	rowsShared bool
	// layout changes whenever the index set or a quarantine flag does, so
	// prepared scans know when to re-plan (see layoutToken).
	layout *layoutToken
}

func newTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: append(Schema(nil), schema...), layout: new(layoutToken)}
}

// freeze returns an immutable copy of the table sharing its storage: the
// row heap is shared up to the current length (the live table only ever
// appends, and delete copies-on-write while the heap is marked shared), and
// each index B-tree is cloned copy-on-write. The frozen copy is safe to
// read without any lock while the live table keeps mutating; the caller
// must hold the DB write lock for the freeze itself.
func (t *Table) freeze() *Table {
	t.rowsShared = true
	idx := make([]*Index, len(t.indexes))
	for i, ix := range t.indexes {
		idx[i] = &Index{Name: ix.Name, Cols: ix.Cols, tree: ix.tree.clone(), damaged: ix.damaged}
	}
	return &Table{
		Name:       t.Name,
		Schema:     t.Schema,
		rows:       t.rows[:len(t.rows):len(t.rows)],
		live:       t.live,
		indexes:    idx,
		rowsShared: true,
		layout:     t.layout,
	}
}

// NumRows returns the number of live rows.
func (t *Table) NumRows() int { return t.live }

// Indexes returns the table's indexes.
func (t *Table) Indexes() []*Index { return t.indexes }

// FindIndex returns the index with the given name.
func (t *Table) FindIndex(name string) (*Index, bool) {
	for _, ix := range t.indexes {
		if ix.Name == name {
			return ix, true
		}
	}
	return nil, false
}

// checkRow validates a row against the schema (NULLs are allowed in any
// column).
func (t *Table) checkRow(row Row) error {
	if len(row) != len(t.Schema) {
		return fmt.Errorf("reldb: table %q: row has %d values, schema has %d columns", t.Name, len(row), len(t.Schema))
	}
	for i, d := range row {
		if !d.IsNull() && d.Type() != t.Schema[i].Type {
			return fmt.Errorf("reldb: table %q: column %q expects %v, got %v",
				t.Name, t.Schema[i].Name, t.Schema[i].Type, d.Type())
		}
	}
	return nil
}

// insert appends a row and maintains all indexes, returning the row ID.
func (t *Table) insert(row Row) (int64, error) {
	if err := t.checkRow(row); err != nil {
		return 0, err
	}
	rid := int64(len(t.rows))
	t.rows = append(t.rows, row.Clone())
	t.live++
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.entryKey(row, rid), rid)
	}
	return rid, nil
}

// insertBatch appends many rows and maintains all indexes in bulk. Every row
// is validated up front, so a failing batch leaves the table unchanged; index
// entries are built sorted and added with the B-tree's bulk path (bottom-up
// build or merge-rebuild) instead of one point insert per row. With owned
// set, the table adopts the rows without the defensive per-row copy.
func (t *Table) insertBatch(rows []Row, owned bool) error {
	for _, r := range rows {
		if err := t.checkRow(r); err != nil {
			return err
		}
	}
	base := int64(len(t.rows))
	if owned {
		t.rows = append(t.rows, rows...)
	} else {
		for _, r := range rows {
			t.rows = append(t.rows, r.Clone())
		}
	}
	t.live += len(rows)
	for _, ix := range t.indexes {
		entries := make([]btreeItem, len(rows))
		for i := range rows {
			rid := base + int64(i)
			entries[i] = btreeItem{key: ix.entryKey(t.rows[rid], rid), rid: rid}
		}
		sort.Slice(entries, func(a, b int) bool {
			return bytes.Compare(entries[a].key, entries[b].key) < 0
		})
		ix.tree.insertBulk(entries)
	}
	return nil
}

// unInsertTail rolls back the n most recent insertions (row IDs base on):
// the inverse of a just-failed insert or insertBatch whose WAL append did
// not commit. Only valid while the caller still holds the write lock it
// inserted under, so no other mutation can have appended after base.
func (t *Table) unInsertTail(base int64, n int) {
	for rid := base; rid < base+int64(n); rid++ {
		row := t.rows[rid]
		if row == nil {
			continue
		}
		for _, ix := range t.indexes {
			ix.tree.Delete(ix.entryKey(row, rid))
		}
		t.live--
	}
	t.rows = t.rows[:base]
}

// reinsertAt restores rows previously removed by delete under the same row
// IDs — the rollback of a Delete whose WAL append failed.
func (t *Table) reinsertAt(rids []int64, rows []Row) {
	for i, rid := range rids {
		if t.rows[rid] != nil {
			continue
		}
		t.rows[rid] = rows[i]
		t.live++
		for _, ix := range t.indexes {
			ix.tree.Insert(ix.entryKey(rows[i], rid), rid)
		}
	}
}

// removeIndex drops an index by name (the rollback of a CreateIndex whose
// WAL append failed).
func (t *Table) removeIndex(name string) {
	for i, ix := range t.indexes {
		if ix.Name == name {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			t.layout = new(layoutToken)
			return
		}
	}
}

// delete removes the row with the given ID, maintaining indexes. When the
// row heap is shared with a frozen copy, it is copied first so the
// tombstone never shows through a pinned snapshot.
func (t *Table) delete(rid int64) error {
	if rid < 0 || rid >= int64(len(t.rows)) || t.rows[rid] == nil {
		return fmt.Errorf("reldb: table %q: no row %d", t.Name, rid)
	}
	if t.rowsShared {
		t.rows = append([]Row(nil), t.rows...)
		t.rowsShared = false
	}
	row := t.rows[rid]
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.entryKey(row, rid))
	}
	t.rows[rid] = nil
	t.live--
	return nil
}

// row returns the live row with the given ID.
func (t *Table) row(rid int64) (Row, bool) {
	if rid < 0 || rid >= int64(len(t.rows)) || t.rows[rid] == nil {
		return nil, false
	}
	return t.rows[rid], true
}

// scanAll visits every live row in row-ID order.
func (t *Table) scanAll(fn func(rid int64, row Row) bool) {
	for rid, row := range t.rows {
		if row == nil {
			continue
		}
		if !fn(int64(rid), row) {
			return
		}
	}
}

// buildIndex creates and backfills an index over the named columns. The
// backfill is a sorted bulk load: entry keys for every live row are built,
// sorted once, and assembled into a B-tree bottom-up — O(n log n) with a
// single allocation pass, instead of n point inserts with node splits.
func (t *Table) buildIndex(name string, cols []string) (*Index, error) {
	if _, ok := t.FindIndex(name); ok {
		return nil, fmt.Errorf("%w: table %q already has index %q", ErrIndexExists, t.Name, name)
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		pos, ok := t.Schema.ColIndex(c)
		if !ok {
			return nil, fmt.Errorf("reldb: table %q has no column %q", t.Name, c)
		}
		positions[i] = pos
	}
	ix := &Index{Name: name, Cols: positions, tree: newBTree()}
	entries := make([]btreeItem, 0, t.live)
	t.scanAll(func(rid int64, row Row) bool {
		entries = append(entries, btreeItem{key: ix.entryKey(row, rid), rid: rid})
		return true
	})
	sort.Slice(entries, func(a, b int) bool {
		return bytes.Compare(entries[a].key, entries[b].key) < 0
	})
	ix.tree.bulkLoad(entries)
	t.indexes = append(t.indexes, ix)
	sort.Slice(t.indexes, func(i, j int) bool { return t.indexes[i].Name < t.indexes[j].Name })
	t.layout = new(layoutToken)
	return ix, nil
}
