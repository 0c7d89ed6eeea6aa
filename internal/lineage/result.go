// Package lineage implements the lineage query model of the paper: the
// recursive definition of lin(⟨P:Y[p], v⟩, 𝒫) over provenance graphs
// (Def. 1, §2.4), the naïve extensional algorithm NI that evaluates it by
// traversing the stored trace (§2.4, §4), an independent in-memory reference
// implementation over raw traces, and the INDEXPROJ algorithm (Alg. 2, §3.3)
// that replaces the trace traversal with a traversal of the workflow
// specification graph plus the index projection rule, touching the trace
// only at focus processors.
//
// All three implementations return identical results on identical stores —
// a property enforced by randomized tests — while issuing very different
// numbers of trace queries.
package lineage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Entry is one element of a lineage answer: a fine-grained input binding
// ⟨P:X[p], v⟩ of a focus processor encountered on a path from the query
// binding to the sources. Value holds the whole port value; Index addresses
// the relevant element within it (net of any nested-dataflow context).
type Entry struct {
	RunID string
	Proc  string
	Port  string
	Index value.Index
	Ctx   int
	Value value.Value
}

// Element returns the addressed element of the entry's port value.
func (e Entry) Element() (value.Value, error) {
	return e.Value.At(e.Index.Slice(e.Ctx, len(e.Index)))
}

func (e Entry) String() string {
	proc := e.Proc
	if proc == "" {
		proc = "workflow"
	}
	return fmt.Sprintf("<%s:%s%s>@%s", proc, e.Port, e.Index, e.RunID)
}

type entryKey struct {
	runID string
	proc  string
	port  string
	idx   string
}

// Result is a set of lineage entries, deduplicated by (run, proc, port,
// index). A partial-mode multi-run query additionally marks the runs it
// could not answer (every replica of their shard unavailable) as degraded;
// Equal compares entries only, so a degraded answer still compares equal to
// the same entries computed healthily — the marker is delivery metadata, not
// part of the lineage relation.
type Result struct {
	entries  map[entryKey]Entry
	degraded map[string]bool
}

// NewResult returns an empty result set.
func NewResult() *Result { return &Result{entries: make(map[entryKey]Entry)} }

// Add inserts an entry (idempotently).
func (r *Result) Add(e Entry) {
	k := entryKey{runID: e.RunID, proc: e.Proc, port: e.Port, idx: e.Index.String()}
	if _, ok := r.entries[k]; !ok {
		r.entries[k] = e
	}
}

// Len returns the number of distinct entries.
func (r *Result) Len() int { return len(r.entries) }

// Entries returns the entries sorted by (run, proc, port, index), suitable
// for display and comparison.
func (r *Result) Entries() []Entry {
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.RunID != b.RunID {
			return a.RunID < b.RunID
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Index.Compare(b.Index) < 0
	})
	return out
}

// Keys returns the sorted entry identities as strings (values omitted);
// convenient for test comparison.
func (r *Result) Keys() []string {
	es := r.Entries()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

// Equal reports whether two results contain the same entries with equal
// values.
func (r *Result) Equal(o *Result) bool {
	if len(r.entries) != len(o.entries) {
		return false
	}
	for k, e := range r.entries {
		oe, ok := o.entries[k]
		if !ok || !value.Equal(e.Value, oe.Value) {
			return false
		}
	}
	return true
}

// Merge adds every entry of o into r, and unions the degraded-run sets.
func (r *Result) Merge(o *Result) {
	for _, e := range o.entries {
		r.Add(e)
	}
	for run := range o.degraded {
		r.MarkDegraded(run)
	}
}

// MarkDegraded records runs whose answer is missing or incomplete because
// their shard was unavailable (partial mode).
func (r *Result) MarkDegraded(runIDs ...string) {
	if r.degraded == nil {
		r.degraded = make(map[string]bool)
	}
	for _, run := range runIDs {
		r.degraded[run] = true
	}
}

// Degraded reports whether any run's answer is missing or incomplete.
func (r *Result) Degraded() bool { return len(r.degraded) > 0 }

// DegradedRuns returns the degraded runs, sorted.
func (r *Result) DegradedRuns() []string {
	if len(r.degraded) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.degraded))
	for run := range r.degraded {
		out = append(out, run)
	}
	sort.Strings(out)
	return out
}

// String renders the result compactly for diagnostics.
func (r *Result) String() string {
	return "{" + strings.Join(r.Keys(), ", ") + "}"
}

// Focus is the set 𝒫 of "interesting" processors of a focused query, by
// path-qualified trace name (e.g. "get_pathways_by_genes", "comp/up").
type Focus map[string]bool

// NewFocus builds a focus set from processor names.
func NewFocus(procs ...string) Focus {
	f := make(Focus, len(procs))
	for _, p := range procs {
		f[p] = true
	}
	return f
}

// Names returns the focus processors, sorted.
func (f Focus) Names() []string {
	out := make([]string, 0, len(f))
	for p := range f {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
