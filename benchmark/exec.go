package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lineage"
	"repro/internal/queryfmt"
	"repro/internal/trace"
	"repro/internal/value"
)

// This file turns generated queries into calls on the system under test and
// computes the reference answers they are checked against.

// ref is the fingerprint of a rendered answer: FNV-64a of the bytes, and
// their count.
type ref struct {
	sum uint64
	n   int
}

// digest is an io.Writer that fingerprints what is rendered into it, so an
// answer is checked without being kept.
type digest struct {
	h hash.Hash64
	n int
}

func (d *digest) hash() hash.Hash64 {
	if d.h == nil {
		d.h = fnv.New64a()
	}
	return d.h
}

func (d *digest) Write(p []byte) (int, error) {
	d.hash().Write(p)
	d.n += len(p)
	return len(p), nil
}

func (d *digest) reset() {
	d.hash().Reset()
	d.n = 0
}

func (d *digest) ref() ref { return ref{sum: d.hash().Sum64(), n: d.n} }

// prepared is a query resolved against one env before timing starts, so the
// measured loop allocates nothing of its own per query.
type prepared struct {
	q      Query
	method core.Method
	proc   string
	port   string
	idx    value.Index
	focus  lineage.Focus
	runID  string
	runIDs []string

	binding, focusArg string // the textual request, as a front end receives it
	url               string // served_mix
	want              ref
}

func (e *env) prepare(q Query) prepared {
	p := prepared{q: q, method: core.IndexProj}
	switch q.Kind {
	case IPFocused, IPUnfocused, NIFocused, TBMultiFocused:
		p.proc, p.port, p.idx = gen.FinalName, "product", value.Ix(int(q.I), int(q.J))
		p.focus = e.tbFocus
		if q.Kind == IPUnfocused {
			p.focus = e.tbAll
		}
		if q.Kind == NIFocused {
			p.method = core.Naive
		}
	case GKFocused, GKUnfocused:
		p.proc, p.port, p.idx = trace.WorkflowProc, gkPort, value.Ix(int(q.I), 0)
		p.focus = e.gkFocus
		if q.Kind == GKUnfocused {
			p.focus = e.gkAll
		}
	}
	switch q.Kind {
	case GKFocused, GKUnfocused:
		p.runIDs = pick(e.gkRuns, q.RunIndices())
	case TBMultiFocused:
		p.runIDs = pick(e.tbRuns, q.RunIndices())
	default:
		p.runID = e.tbRuns[q.Run]
	}
	p.binding = queryfmt.DisplayProc(p.proc) + ":" + p.port + p.idx.String()
	p.focusArg = strings.Join(p.focus.Names(), ",")
	if e.ts != nil {
		v := url.Values{}
		v.Set("tenant", servedTenant)
		v.Set("binding", p.binding)
		v.Set("focus", p.focusArg)
		if p.runIDs != nil {
			v.Set("runs", strings.Join(p.runIDs, ","))
			v.Set("parallel", strconv.Itoa(e.nproc))
		} else {
			v.Set("run", p.runID)
		}
		if p.method == core.Naive {
			v.Set("method", "naive")
		}
		if q.JSON {
			v.Set("format", "json")
		}
		p.url = "/v1/query?" + v.Encode()
	}
	return p
}

func pick(ids []string, at []int) []string {
	out := make([]string, len(at))
	for i, k := range at {
		out[i] = ids[k]
	}
	return out
}

// exec answers one query the way the workload's user would — in process
// through core.System (or the pinned view), or over HTTP — rendering the
// answer into w.
func (e *env) exec(ctx context.Context, p *prepared, w io.Writer) error {
	if e.ts != nil {
		return e.execHTTP(p, w)
	}
	res, err := e.lineage(ctx, p)
	if err != nil {
		return err
	}
	e.render(w, p, res)
	return nil
}

func (e *env) multiRunOptions() lineage.MultiRunOptions {
	return lineage.MultiRunOptions{Parallelism: e.nproc}
}

// lineage is the core-layer call of a query.
func (e *env) lineage(ctx context.Context, p *prepared) (*lineage.Result, error) {
	switch {
	case e.viewIP != nil:
		return e.viewIP.LineageMultiRunParallel(ctx, p.runIDs, p.proc, p.port, p.idx, p.focus, e.multiRunOptions())
	case p.runIDs != nil:
		return e.sys.LineageMultiRunParallel(ctx, p.method, p.runIDs, p.proc, p.port, p.idx, p.focus, e.multiRunOptions())
	default:
		return e.sys.Lineage(p.method, p.runID, p.proc, p.port, p.idx, p.focus)
	}
}

// render prints an answer exactly as provq and provd do (values on).
func (e *env) render(w io.Writer, p *prepared, res *lineage.Result) {
	if p.q.JSON {
		renderJSON(w, p, res)
		return
	}
	qf := queryfmt.Query{Direction: "back", Proc: p.proc, Port: p.port, Idx: p.idx, Focus: p.focus, Method: p.method}
	if p.runIDs != nil {
		qf.WriteMultiRunHeader(w, len(p.runIDs), e.nproc, res)
	} else {
		qf.WriteHeader(w, res)
	}
	queryfmt.WriteDegraded(w, res)
	queryfmt.WriteEntries(w, res, true)
}

// renderJSON reproduces provd's format=json body from the documented shape
// of the response, independently of the server's own encoder call.
func renderJSON(w io.Writer, p *prepared, res *lineage.Result) {
	type entry struct {
		Binding string `json:"binding"`
		Value   string `json:"value,omitempty"`
	}
	ans := struct {
		Direction    string   `json:"direction"`
		Binding      string   `json:"binding"`
		Focus        []string `json:"focus"`
		Method       string   `json:"method"`
		Runs         int      `json:"runs,omitempty"`
		Bindings     int      `json:"bindings"`
		Degraded     bool     `json:"degraded,omitempty"`
		DegradedRuns []string `json:"degraded_runs,omitempty"`
		Entries      []entry  `json:"entries"`
	}{
		Direction: "back", Binding: p.binding, Focus: p.focus.Names(), Method: p.method.String(),
		Runs: len(p.runIDs), Bindings: res.Len(),
	}
	for _, e := range res.Entries() {
		je := entry{Binding: e.String()}
		if el, err := e.Element(); err == nil {
			je.Value = value.Encode(el)
		}
		ans.Entries = append(ans.Entries, je)
	}
	json.NewEncoder(w).Encode(ans) // w is a digest or a buffer: cannot fail
}

func (e *env) execHTTP(p *prepared, w io.Writer) error {
	resp, err := e.client.Get(e.ts.URL + p.url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// reference computes the expected answer of a query from the generated
// traces alone, with the in-memory naive traversal: no store, no plan, no
// SQL. It is what every measured answer is compared with.
func (e *env) reference(p *prepared, mems map[string]*lineage.NaiveMem) (ref, error) {
	runs := p.runIDs
	if runs == nil {
		runs = []string{p.runID}
	}
	res := lineage.NewResult()
	for _, id := range runs {
		m := mems[id]
		if m == nil {
			tr := e.traces[id]
			if tr == nil {
				return ref{}, fmt.Errorf("no trace for run %q", id)
			}
			m = lineage.NewNaiveMem(tr)
			mems[id] = m
		}
		part, err := m.Lineage(p.proc, p.port, p.idx, p.focus)
		if err != nil {
			return ref{}, err
		}
		res.Merge(part)
	}
	var d digest
	e.render(&d, p, res)
	return d.ref(), nil
}

// references computes the fingerprint of every distinct query of the
// streams, then drops the traces: from here on the benchmark holds only
// fingerprints, and the heap is the system's.
func (e *env) references(streams [][]Query) (map[Query]ref, error) {
	refs := make(map[Query]ref)
	mems := make(map[string]*lineage.NaiveMem)
	for _, qs := range streams {
		for _, q := range qs {
			if _, ok := refs[q]; ok {
				continue
			}
			p := e.prepare(q)
			want, err := e.reference(&p, mems)
			if err != nil {
				return nil, fmt.Errorf("reference for %+v: %w", q, err)
			}
			refs[q] = want
		}
	}
	e.traces = nil
	return refs, nil
}

// prepareStreams resolves every client's stream; equal queries share one
// prepared value.
func (e *env) prepareStreams(streams [][]Query, refs map[Query]ref) [][]*prepared {
	distinct := make(map[Query]*prepared, len(refs))
	out := make([][]*prepared, len(streams))
	for c, qs := range streams {
		out[c] = make([]*prepared, len(qs))
		for k, q := range qs {
			p := distinct[q]
			if p == nil {
				np := e.prepare(q)
				np.want = refs[q]
				p = &np
				distinct[q] = p
			}
			out[c][k] = p
		}
	}
	return out
}
