package reldb

import (
	"bytes"
	"fmt"
	"sort"
)

// Integrity checking and repair for secondary indexes. Indexes are fully
// derivable from their tables, so a corrupt index is never fatal: it is
// detected (shape and membership checks), quarantined (the planner bypasses
// it, degrading to heap scans), and repairable in place (rebuilt from the
// table). OpenDurable runs a shape check automatically and rebuilds any
// index that disagrees with its table before the database is shared.

// IndexProblem describes one integrity violation found by VerifyIndexes.
type IndexProblem struct {
	Table string
	Index string
	Desc  string
}

func (p IndexProblem) String() string {
	return fmt.Sprintf("%s.%s: %s", p.Table, p.Index, p.Desc)
}

// VerifyIndexes checks every secondary index against its table: the entry
// count must equal the live row count, every entry must resolve to a live
// row, and the entry key must match the row's current column values. Any
// index that fails is quarantined — the planner stops using it until
// RebuildIndex (or RebuildDamaged) repairs it — and reported.
func (db *DB) VerifyIndexes() []IndexProblem {
	db.mu.Lock()
	defer db.mu.Unlock()
	var problems []IndexProblem
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.tables[name]
		for _, ix := range t.indexes {
			if desc, ok := t.checkIndex(ix); !ok {
				ix.damaged = true
				t.layout = new(layoutToken)
				problems = append(problems, IndexProblem{Table: t.Name, Index: ix.Name, Desc: desc})
			}
		}
	}
	if len(problems) > 0 {
		// Republish so lock-free readers see the quarantine flags. The
		// logical content is unchanged, so the epoch does not advance.
		db.publishAllLocked()
	}
	return problems
}

// checkIndex validates one index against the heap; it returns a description
// of the first violation found.
func (t *Table) checkIndex(ix *Index) (string, bool) {
	if got, want := ix.tree.Len(), t.live; got != want {
		return fmt.Sprintf("index has %d entries, table has %d live rows", got, want), false
	}
	bad := ""
	ix.tree.AscendRange(nil, nil, func(key []byte, rid int64) bool {
		row, ok := t.row(rid)
		if !ok {
			bad = fmt.Sprintf("entry references missing row %d", rid)
			return false
		}
		if !bytes.Equal(key, ix.entryKey(row, rid)) {
			bad = fmt.Sprintf("entry key for row %d does not match row contents", rid)
			return false
		}
		return true
	})
	return bad, bad == ""
}

// RebuildIndex reconstructs a secondary index from its table's rows and
// clears its quarantine. It is the recovery action for a VerifyIndexes
// finding; the operation is pure derivation, so nothing is logged.
func (db *DB) RebuildIndex(tableName, indexName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	for _, ix := range t.indexes {
		if ix.Name == indexName {
			t.rebuildIndex(ix)
			db.publishLocked(tableName)
			return nil
		}
	}
	return fmt.Errorf("reldb: table %q has no index %q", tableName, indexName)
}

// RebuildDamaged rebuilds every quarantined index, returning how many were
// repaired.
func (db *DB) RebuildDamaged() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, t := range db.tables {
		for _, ix := range t.indexes {
			if ix.damaged {
				t.rebuildIndex(ix)
				n++
			}
		}
	}
	if n > 0 {
		db.publishAllLocked()
	}
	return n
}

// rebuildIndex re-derives one index from the heap with the sorted bulk-load
// path; the caller holds the write lock.
func (t *Table) rebuildIndex(ix *Index) {
	entries := make([]btreeItem, 0, t.live)
	t.scanAll(func(rid int64, row Row) bool {
		entries = append(entries, btreeItem{key: ix.entryKey(row, rid), rid: rid})
		return true
	})
	sort.Slice(entries, func(a, b int) bool {
		return bytes.Compare(entries[a].key, entries[b].key) < 0
	})
	fresh := newBTree()
	fresh.bulkLoad(entries)
	ix.tree = fresh
	ix.damaged = false
	t.layout = new(layoutToken)
}

// repairIndexesOnOpen runs the cheap shape check (entry count vs live rows)
// on every index and rebuilds mismatches immediately: on open there is no
// concurrent traffic, so repairing is strictly better than quarantining.
// Repairs are recorded for RecoveryReport.
func (db *DB) repairIndexesOnOpen() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range db.tables {
		for _, ix := range t.indexes {
			if ix.tree.Len() != t.live {
				t.rebuildIndex(ix)
				db.repairs = append(db.repairs,
					fmt.Sprintf("rebuilt index %s.%s (entry count disagreed with table)", t.Name, ix.Name))
			}
		}
	}
	sort.Strings(db.repairs)
	// Publish the recovered state: the first version readers (and pinned
	// snapshots) of a freshly opened durable database will see.
	db.publishAllLocked()
}

// RecoveryReport lists the integrity repairs performed while opening the
// database (empty for a clean open).
func (db *DB) RecoveryReport() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.repairs...)
}
