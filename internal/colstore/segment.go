// Package colstore implements an immutable, per-run-partition columnar
// projection of the provenance bindings table: the vectorized counterpart of
// one run's range of the row store's xin_port (run_id, proc, port, idx)
// B-tree index.
//
// One Segment holds every input binding of one run — the run is the
// partition — decomposed into columns: processor and port names are
// dictionary-encoded and run-length-collapsed into a (proc, port) group
// directory, index keys live in one flat fixed-width byte column (the store's
// dotted IdxKey encoding is already fixed width per component, so a padded
// cell supports prefix matching with plain byte compares), and value IDs are
// dictionary-encoded. Per-segment zone maps (the run ID, and the min/max
// processor name) let a multi-run probe skip whole segments without touching
// a column.
//
// Segments are immutable once built; the row store remains the source of
// truth. They serialize to a single CRC-guarded file written through the
// engine's VFS, and a corrupt or truncated file decodes to reldb.ErrCorrupt —
// never a panic — so readers can always fall back to row scans.
package colstore

import (
	"bytes"
	"sort"
)

// Row is one bindings row handed to Build: the (proc, port, idx key, ctx,
// value id) projection of one xform_in row. Key is the store's fixed-width
// dotted index key and must not contain a NUL byte (the column pad).
type Row struct {
	Proc  string
	Port  string
	Key   string
	Ctx   int32
	ValID int64
}

// group is one run of rows sharing a (proc, port) pair: the dictionary-coded
// pair plus the start offset of its rows in the column arrays. Groups are
// sorted by (proc, port), so the per-row processor and port columns collapse
// to this directory (perfect run-length encoding over the sorted layout).
type group struct {
	proc, port uint32
	start      uint32
}

// Segment is the immutable columnar projection of one run's bindings.
type Segment struct {
	runID string

	procs []string // sorted processor dictionary; position = id
	ports []string // sorted port dictionary

	groups []group // (proc, port) directory, sorted; rows of group g are [start_g, start_{g+1})

	keyW int    // fixed key-cell width in bytes (0 when every key is empty)
	keys []byte // nRows * keyW, each cell zero-padded to keyW

	ctxs    []int32  // per-row context depth
	valDict []int64  // sorted distinct value IDs
	valIdx  []uint32 // per-row index into valDict

	nRows int
}

// Build constructs a segment from one run's bindings. The rows must be in
// the row store's per-run insertion order: Build sorts them stably by
// (proc, port, key), which then reproduces exactly the (proc, port, idx,
// rowid) order of the run's xin_port index scan — the property that makes
// columnar probe answers byte-identical to row-scan answers.
func Build(runID string, rows []Row) *Segment {
	sorted := make([]Row, len(rows))
	copy(sorted, rows)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Key < b.Key
	})

	s := &Segment{runID: runID, nRows: len(sorted)}

	procSet := make(map[string]uint32)
	portSet := make(map[string]uint32)
	valSet := make(map[int64]uint32)
	for _, r := range sorted {
		procSet[r.Proc] = 0
		portSet[r.Port] = 0
		valSet[r.ValID] = 0
		if len(r.Key) > s.keyW {
			s.keyW = len(r.Key)
		}
	}
	s.procs = sortedKeys(procSet)
	s.ports = sortedKeys(portSet)
	for i, p := range s.procs {
		procSet[p] = uint32(i)
	}
	for i, p := range s.ports {
		portSet[p] = uint32(i)
	}
	s.valDict = make([]int64, 0, len(valSet))
	for v := range valSet {
		s.valDict = append(s.valDict, v)
	}
	sort.Slice(s.valDict, func(i, j int) bool { return s.valDict[i] < s.valDict[j] })
	for i, v := range s.valDict {
		valSet[v] = uint32(i)
	}

	s.keys = make([]byte, len(sorted)*s.keyW)
	s.ctxs = make([]int32, len(sorted))
	s.valIdx = make([]uint32, len(sorted))
	for i, r := range sorted {
		copy(s.keys[i*s.keyW:(i+1)*s.keyW], r.Key) // remainder stays zero-padded
		s.ctxs[i] = r.Ctx
		s.valIdx[i] = valSet[r.ValID]
		pid, qid := procSet[r.Proc], portSet[r.Port]
		if n := len(s.groups); n == 0 || s.groups[n-1].proc != pid || s.groups[n-1].port != qid {
			s.groups = append(s.groups, group{proc: pid, port: qid, start: uint32(i)})
		}
	}
	return s
}

func sortedKeys(m map[string]uint32) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunID returns the run this segment projects — the segment's run zone map:
// a per-run partition covers exactly one run, so run pruning is an ID
// comparison.
func (s *Segment) RunID() string { return s.runID }

// NumRows returns the number of binding rows in the segment.
func (s *Segment) NumRows() int { return s.nRows }

// MayContainProc is the processor zone-map check: whether proc falls within
// the segment's [min, max] processor-name range. A false answer proves the
// segment holds no rows for proc, so a probe can skip it without touching a
// column (the caller counts these as zone-map prunes).
func (s *Segment) MayContainProc(proc string) bool {
	if len(s.procs) == 0 {
		return false
	}
	return proc >= s.procs[0] && proc <= s.procs[len(s.procs)-1]
}

// Match is one row produced by a segment scan. Key aliases the segment's
// key column (unpadded); callers must not retain it past the segment.
type Match struct {
	Key   []byte
	Ctx   int32
	ValID int64
}

// dictID returns the dictionary position of name, or false when absent.
func dictID(dict []string, name string) (uint32, bool) {
	i := sort.SearchStrings(dict, name)
	if i < len(dict) && dict[i] == name {
		return uint32(i), true
	}
	return 0, false
}

// groupBounds returns the row range [start, end) of the (proc, port) group,
// or ok=false when the segment has no such group.
func (s *Segment) groupBounds(proc, port string) (start, end int, ok bool) {
	pid, ok := dictID(s.procs, proc)
	if !ok {
		return 0, 0, false
	}
	qid, ok := dictID(s.ports, port)
	if !ok {
		return 0, 0, false
	}
	g := sort.Search(len(s.groups), func(i int) bool {
		gi := s.groups[i]
		return gi.proc > pid || (gi.proc == pid && gi.port >= qid)
	})
	if g == len(s.groups) || s.groups[g].proc != pid || s.groups[g].port != qid {
		return 0, 0, false
	}
	start = int(s.groups[g].start)
	if g+1 < len(s.groups) {
		end = int(s.groups[g+1].start)
	} else {
		end = s.nRows
	}
	return start, end, true
}

// cell returns row i's padded key cell.
func (s *Segment) cell(i int) []byte { return s.keys[i*s.keyW : (i+1)*s.keyW] }

// trimCell strips a cell's zero padding, yielding the stored key.
func trimCell(cell []byte) []byte {
	if n := bytes.IndexByte(cell, 0); n >= 0 {
		return cell[:n]
	}
	return cell
}

// ScanPrefix appends to dst every row of the (proc, port) group whose key
// extends prefix — the columnar form of the row store's `idx LIKE 'prefix%'`
// probe — and reports how many key cells the loop examined (the caller's
// rows-filtered counter is examined − matched). Keys are sorted within the
// group, so matches are contiguous: the loop runs over the fixed-width key
// column and stops at the first non-match after the match run ends. Rows
// append in column order, which equals the row store's index-scan order.
func (s *Segment) ScanPrefix(proc, port, prefix string, dst []Match) (out []Match, examined int) {
	out = dst
	start, end, ok := s.groupBounds(proc, port)
	if !ok {
		return out, 0
	}
	if prefix == "" {
		for i := start; i < end; i++ {
			out = append(out, s.match(i))
		}
		return out, end - start
	}
	if s.keyW < len(prefix) {
		return out, 0
	}
	p := []byte(prefix)
	matchedAny := false
	for i := start; i < end; i++ {
		examined++
		if bytes.HasPrefix(s.cell(i), p) {
			matchedAny = true
			out = append(out, s.match(i))
		} else if matchedAny {
			break // sorted keys: the contiguous match run has ended
		}
	}
	return out, examined
}

// ScanExact appends the rows whose key equals key exactly (the granularity-
// fallback probe `idx = ?`), with the same contract as ScanPrefix.
func (s *Segment) ScanExact(proc, port, key string, dst []Match) (out []Match, examined int) {
	out = dst
	start, end, ok := s.groupBounds(proc, port)
	if !ok {
		return out, 0
	}
	if s.keyW < len(key) {
		if s.keyW == len(key) && key == "" {
			// keyW == 0: every stored key is empty, so "" matches all rows.
			for i := start; i < end; i++ {
				out = append(out, Match{Ctx: s.ctxs[i], ValID: s.valDict[s.valIdx[i]]})
			}
			return out, end - start
		}
		return out, 0
	}
	k := []byte(key)
	matchedAny := false
	for i := start; i < end; i++ {
		examined++
		cell := s.cell(i)
		// Exact match: the cell starts with key and the remainder is padding.
		if bytes.HasPrefix(cell, k) && (len(k) == s.keyW || cell[len(k)] == 0) {
			matchedAny = true
			out = append(out, s.match(i))
		} else if matchedAny {
			break
		}
	}
	return out, examined
}

func (s *Segment) match(i int) Match {
	m := Match{Ctx: s.ctxs[i], ValID: s.valDict[s.valIdx[i]]}
	if s.keyW > 0 {
		m.Key = trimCell(s.cell(i))
	}
	return m
}
