package lineage

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// This file holds IndexProj's template table. A compiled plan is a pure
// function of the workflow specification, the query binding and |q|:
//
//   - never of the values in q, because the index projection rule is
//     positional (Prop. 1). A template is compiled on the identity index, and
//     every query instantiates it against its own index (resolve, below);
//   - never of the focus set. The compiler visits every processor and records
//     which probes each one owns, and a focused query runs the probes of its
//     focus processors, in template order (selected, below). That is exactly
//     the plan a compilation restricted to the focus produces.
//
// So an evaluator keeps one template per (binding, |q|), and the table is
// bounded by the specification. Every probe of a binding b reads positions
// below L_b, the context length of b's frame plus the depth of b's port
// (bound, below), so a longer q resolves through the L_b template. The key is
// (b, min(|q|, L_b)), unknown bindings fail to compile and are never stored,
// and no query can grow the table past Σ_b (L_b+1) templates. An evaluator
// belongs to one store and one workflow, so neither enters the key.

// PlanCache is the surface IndexProj's template table is reached through. Get
// returns the template stored under a key; Add stores a freshly compiled one
// and returns the winner (the stored template if another goroutine raced the
// same compilation in first — callers must use the returned plan, not their
// argument). Implementations must be safe for concurrent use.
type PlanCache interface {
	Get(key string) (*CompiledPlan, bool)
	Add(key string, plan *CompiledPlan) *CompiledPlan
}

// planTable is the default PlanCache: a read-mostly map, bounded by the
// specification (see above).
type planTable struct {
	mu    sync.RWMutex
	plans map[string]*CompiledPlan
}

func newPlanTable() *planTable {
	return &planTable{plans: make(map[string]*CompiledPlan)}
}

func (t *planTable) Get(key string) (*CompiledPlan, bool) {
	t.mu.RLock()
	p, ok := t.plans[key]
	t.mu.RUnlock()
	return p, ok
}

func (t *planTable) Add(key string, plan *CompiledPlan) *CompiledPlan {
	t.mu.Lock()
	defer t.mu.Unlock()
	if stored, ok := t.plans[key]; ok {
		return stored // another goroutine won the compilation race
	}
	t.plans[key] = plan
	return plan
}

func (t *planTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.plans)
}

// planKey is the table key of a template: the binding and the (bounded)
// index length, joined with \x01, which cannot appear in either name.
func planKey(proc, port string, n int) string {
	var buf [96]byte
	b := append(append(append(buf[:0], proc...), 1), port...)
	return string(strconv.AppendInt(append(b, 1), int64(n), 10))
}

// bound returns L_b for the query binding proc:port: the context length of
// the frame the binding lives in plus the depth of its port. Every probe a
// compilation of the binding emits reads positions of q below L_b (pinned by
// TestTemplateBound). ok is false when the binding names no port.
func (ip *IndexProj) bound(proc, port string) (n int, ok bool) {
	d := ip.d
	if proc == trace.WorkflowProc {
		return d.Depth(workflow.PortID{Proc: workflow.WorkflowPseudoProc, Port: port})
	}
	wf := ip.wf
	for {
		head, rest, nested := strings.Cut(proc, "/")
		if !nested {
			break
		}
		comp, sub := wf.Processor(head), d.Sub(head)
		if comp == nil || !comp.IsComposite() || sub == nil {
			return 0, false
		}
		n += d.IterationDepth(head)
		wf, d, proc = comp.Sub, sub, rest
	}
	dep, ok := d.Depth(workflow.PortID{Proc: proc, Port: port})
	return n + dep, ok
}

// selected returns the ordinals of the template probes owned by the focus's
// processors, in template order. A name that maps to false, or that owns no
// probe, selects nothing. It allocates only for a focus of several
// processors that is not all of the template's.
func (p *CompiledPlan) selected(focus Focus) []int {
	if len(focus) == 1 {
		for name, in := range focus {
			if in {
				return p.byProc[name]
			}
		}
		return nil
	}
	procs, n := 0, 0
	for name, in := range focus {
		if ords, ok := p.byProc[name]; ok && in {
			procs++
			n += len(ords)
		}
	}
	if procs == len(p.byProc) {
		return p.all
	}
	sel := make([]int, 0, n)
	for name, in := range focus {
		if in {
			sel = append(sel, p.byProc[name]...)
		}
	}
	slices.Sort(sel)
	return sel
}

// every returns the ordinals of all of p's probes.
func (p *CompiledPlan) every() []int {
	if len(p.all) == len(p.Probes) {
		return p.all
	}
	all := make([]int, len(p.Probes))
	for i := range all {
		all[i] = i
	}
	return all
}

// probeShape says how one template probe resolves against a query index q.
type probeShape struct {
	contiguous bool // the probe reads q[lo:hi]
	lo, hi     int
	// twin is the previous probe of equal (proc, port, |index|), or -1:
	// only those can resolve equal to this one. Twins share a processor, so
	// a focus selects a probe and its twins together.
	twin int
}

// probeGroup is what two probes must share to resolve equal.
type probeGroup struct {
	proc, port string
	n          int
}

func newProbeShape(pos value.Index, twin int) probeShape {
	s := probeShape{contiguous: true, twin: twin}
	if len(pos) > 0 {
		s.lo, s.hi = pos[0], pos[0]+len(pos)
	}
	for k, at := range pos {
		s.contiguous = s.contiguous && at == s.lo+k
	}
	return s
}

// resolve returns the index probe i reads for the query index q, and false
// when the probe resolves equal to an earlier one (it is then skipped, so a
// template runs exactly the probes a compilation on q would). A concrete
// plan's probes resolve to themselves. A contiguous probe is a capped
// subslice of q — no allocation — and any other probe one gather.
func (p *CompiledPlan) resolve(i int, q value.Index) (value.Index, bool) {
	pos := p.Probes[i].Index
	if p.shapes == nil {
		return pos, true
	}
	s := &p.shapes[i]
	for j := s.twin; j >= 0; j = p.shapes[j].twin {
		if sameAt(q, pos, p.Probes[j].Index) {
			return nil, false
		}
	}
	switch {
	case s.contiguous && s.lo == s.hi:
		return value.EmptyIndex, true
	case s.contiguous:
		return q[s.lo:s.hi:s.hi], true
	}
	out := make(value.Index, len(pos))
	for k, at := range pos {
		out[k] = q[at]
	}
	return out, true
}

// sameAt reports whether q read at positions a and at positions b (of equal
// length) gives the same index.
func sameAt(q, a, b value.Index) bool {
	for k := range a {
		if q[a[k]] != q[b[k]] {
			return false
		}
	}
	return true
}

// errTemplatePlan is what the public executors return for a template
// (obtained through PlanCache.Get), which only resolves against a query index.
var errTemplatePlan = errors.New("lineage: plan is a cached template; Compile the query for an executable plan")

// instantiate returns the concrete plan of a template for the query index q,
// holding the probes sel selects. Its probe indices may share storage with q.
func (p *CompiledPlan) instantiate(q value.Index, sel []int) *CompiledPlan {
	out := &CompiledPlan{Probes: make([]Probe, 0, len(sel))}
	for _, i := range sel {
		if idx, ok := p.resolve(i, q); ok {
			pr := p.Probes[i]
			pr.Index = idx
			out.Probes = append(out.Probes, pr)
		}
	}
	out.all = p.all[:len(out.Probes)] // a prefix of the identity is one
	return out
}
