// Package queryfmt holds the query-request syntax and answer rendering
// shared by the provq CLI and the provd HTTP server. Both front ends parse
// the same "proc:port[index]" binding notation and print byte-identical
// answers — a property the end-to-end server tests assert by comparing provd
// response bodies against provq output for the same queries.
package queryfmt

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/lineage"
	"repro/internal/value"
)

// ParseBinding splits "proc:port[i,j]" (use proc "workflow" or "" for
// workflow-level ports).
func ParseBinding(s string) (proc, port string, idx value.Index, err error) {
	bracket := strings.IndexByte(s, '[')
	idx = value.EmptyIndex
	core := s
	if bracket >= 0 {
		core = s[:bracket]
		idx, err = value.ParseIndex(s[bracket:])
		if err != nil {
			return "", "", nil, err
		}
	}
	colon := strings.LastIndexByte(core, ':')
	if colon < 0 {
		return "", "", nil, fmt.Errorf("binding %q must look like proc:port[index]", s)
	}
	proc, port = core[:colon], core[colon+1:]
	if proc == "workflow" {
		proc = ""
	}
	if port == "" {
		return "", "", nil, fmt.Errorf("binding %q has an empty port", s)
	}
	return proc, port, idx, nil
}

// ParseFocus splits a comma-separated focus list into a Focus set.
func ParseFocus(s string) lineage.Focus {
	focus := lineage.NewFocus()
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			focus[p] = true
		}
	}
	return focus
}

// DisplayProc renders the processor name of a binding ("" is the
// workflow-level pseudo-processor).
func DisplayProc(proc string) string {
	if proc == "" {
		return "workflow"
	}
	return proc
}

// Truncate clips s to at most n bytes, marking the cut with an ellipsis. The
// cut falls on a rune boundary, so valid UTF-8 stays valid.
func Truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "..."
}

// Query names one parsed lineage query, method and direction included; it
// carries everything the answer header mentions.
type Query struct {
	Direction string // "back", "backward", "forward", "fwd"
	Proc      string
	Port      string
	Idx       value.Index
	Focus     lineage.Focus
	Method    fmt.Stringer // core.Method; any Stringer naming the algorithm
}

// WriteHeader prints the single-run answer header, exactly as provq does.
func (q Query) WriteHeader(w io.Writer, res *lineage.Result) {
	fmt.Fprintf(w, "%s(<%s:%s%s>, %v) via %s: %d bindings\n",
		q.Direction, DisplayProc(q.Proc), q.Port, q.Idx, q.Focus.Names(), q.Method, res.Len())
}

// WriteMultiRunHeader prints the multi-run answer header, exactly as provq
// does.
func (q Query) WriteMultiRunHeader(w io.Writer, runs, parallelism int, res *lineage.Result) {
	fmt.Fprintf(w, "%s(<%s:%s%s>, %v) via %s over %d runs (parallelism %d): %d bindings\n",
		q.Direction, DisplayProc(q.Proc), q.Port, q.Idx, q.Focus.Names(), q.Method, runs, parallelism, res.Len())
}

// WriteDegraded prints the degraded-mode marker of a partial answer: one
// line naming the runs whose shard was unavailable. Silent for healthy
// answers, byte-identical between provq and provd.
func WriteDegraded(w io.Writer, res *lineage.Result) {
	if !res.Degraded() {
		return
	}
	runs := res.DegradedRuns()
	fmt.Fprintf(w, "DEGRADED: %d run(s) unavailable: %s\n", len(runs), strings.Join(runs, ", "))
}

// WriteEntries prints the answer's entries in their canonical order, one
// indented line each, with the bound element value when values is set —
// byte-identical to provq's query output.
func WriteEntries(w io.Writer, res *lineage.Result, values bool) {
	for _, e := range res.Entries() {
		if values {
			el, err := e.Element()
			detail := ""
			if err == nil {
				detail = " = " + Truncate(value.Encode(el), 100)
			}
			fmt.Fprintf(w, "  %s%s\n", e, detail)
		} else {
			fmt.Fprintf(w, "  %s\n", e)
		}
	}
}
