package lineage

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/iter"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// IndexProj implements the paper's intensional lineage algorithm (Alg. 2,
// §3.3). A query lin(⟨P:Y[q]⟩, 𝒫) is answered in two steps:
//
//	(s1) Compile: traverse the *workflow specification graph* upwards from
//	     P:Y, applying the index projection rule (Def. 4 / Prop. 1) at each
//	     processor to rewrite the query index intensionally — without
//	     touching the trace. The output is a plan: the list of trace probes
//	     Q(P', X_i, p_i), one per input port of each focus processor on the
//	     traversed paths.
//	(s2) Execute: run each probe as one indexed lookup against the store.
//
// Plans are kept per (binding, |q|) in a table bounded by the specification
// (see plancache.go). The index projection rule is positional (Prop. 1), so
// one compilation over the identity index [0,1,…,|q|-1] serves every index
// of that length, and the compiler visits every processor, so one template
// serves every focus: a query runs the probes of its focus processors,
// resolved against its own index. A single plan is executed once per run for
// multi-run queries (§3.4), which is what makes INDEXPROJ's multi-run cost
// proportional to t2 only (Fig. 4).
//
// An IndexProj is safe for concurrent use: the template table is a
// read-mostly map, and the store probes go through store.LineageQuerier,
// whose implementations are required to be concurrency-safe. An evaluator
// belongs to one store; a reopened store gets new evaluators, and so an
// empty table.
type IndexProj struct {
	q  store.LineageQuerier
	wf *workflow.Workflow
	d  *workflow.Depths
	// arcs maps every sink port of wf and of its nested dataflows to the
	// arc feeding it, built once at registration: the compiler follows one
	// incoming arc per traversal step.
	arcs map[frameArc]workflow.Arc

	cache PlanCache // the template table, newPlanTable unless a test substitutes it
}

// Probe is one trace query Q(P, X, p) of a compiled plan.
type Probe struct {
	Proc  string
	Port  string
	Index value.Index
}

func (p Probe) String() string { return p.Proc + ":" + p.Port + p.Index.String() }

// CompiledPlan is the result of the specification-graph traversal: the exact
// set of trace probes a query needs, independent of any particular run.
//
// The plans an IndexProj keeps are templates: compiled on the identity index
// with every processor in focus, each probe's Index lists the positions of
// the query index q it reads, shapes says how to resolve them against q, and
// byProc which probes each processor owns. Plans returned by Compile, and
// plans built by hand, are concrete (shapes is nil); Execute and
// ExecuteMultiRun refuse a template.
type CompiledPlan struct {
	Probes []Probe

	shapes []probeShape     // templates only, one per probe
	byProc map[string][]int // templates only: each processor's probe ordinals
	all    []int            // 0…len(Probes)-1
}

// NewIndexProj prepares the evaluator for one workflow: it validates the
// specification and runs PROPAGATEDEPTHS (Alg. 1) once. This is the offline
// part of the pre-processing cost t1 reported in Fig. 8. The querier may be
// nil when only Compile is used (no trace access).
func NewIndexProj(q store.LineageQuerier, wf *workflow.Workflow) (*IndexProj, error) {
	if err := wf.Validate(); err != nil {
		return nil, fmt.Errorf("lineage: %w", err)
	}
	d, err := workflow.PropagateDepths(wf)
	if err != nil {
		return nil, fmt.Errorf("lineage: %w", err)
	}
	arcs := make(map[frameArc]workflow.Arc)
	indexArcs(arcs, wf)
	return &IndexProj{q: q, wf: wf, d: d, arcs: arcs, cache: newPlanTable()}, nil
}

// frameArc keys an incoming arc by the (sub-)workflow it belongs to and its
// sink port.
type frameArc struct {
	wf *workflow.Workflow
	to workflow.PortID
}

// indexArcs adds wf's arcs, and those of every nested dataflow in it, to
// arcs. The first arc into a port wins, as in Workflow.IncomingArc
// (validation makes it the only one).
func indexArcs(arcs map[frameArc]workflow.Arc, wf *workflow.Workflow) {
	for _, a := range wf.Arcs {
		if _, dup := arcs[frameArc{wf, a.To}]; !dup {
			arcs[frameArc{wf, a.To}] = a
		}
	}
	for _, p := range wf.Processors {
		if p.IsComposite() {
			indexArcs(arcs, p.Sub)
		}
	}
}

// UsePlanCache replaces this evaluator's template table, a test hook: a
// table that never keeps a plan times the compilation (t1) of every query.
// scope is unused. Call before the first query; swapping the table
// concurrently with queries is not supported.
func (ip *IndexProj) UsePlanCache(cache PlanCache, scope string) {
	if cache == nil {
		cache = newPlanTable()
	}
	ip.cache = cache
}

// Lineage evaluates lin(⟨proc:port[idx]⟩, focus) within one run. It executes
// the focus's probes of the stored template directly, resolving each against
// idx as it goes: a table hit builds no plan.
func (ip *IndexProj) Lineage(runID, proc, port string, idx value.Index, focus Focus) (*Result, error) {
	total := obs.Start(ipQueryNs)
	tmpl, sel, err := ip.focused(proc, port, idx, focus)
	if err != nil {
		total.End()
		return nil, err
	}
	result := NewResult()
	probes, err := ip.executeInto(result, tmpl, idx, sel, runID)
	if err != nil {
		total.End()
		return nil, err
	}
	d := total.End()
	ipQueries.Add(1)
	if obs.SlowExceeded(d) {
		obs.Slow("lineage.indexproj", d,
			"run", runID,
			"binding", proc+":"+port+idx.String(),
			"probes", strconv.Itoa(probes),
			"bindings", strconv.Itoa(result.Len()))
	}
	return result, nil
}

// LineageMultiRun evaluates the query over a set of runs: the specification
// graph is traversed once (one template per binding and |q|), and only the
// focus's probes are re-executed per run (§3.4).
func (ip *IndexProj) LineageMultiRun(runIDs []string, proc, port string, idx value.Index, focus Focus) (*Result, error) {
	total := obs.Start(ipQueryNs)
	tmpl, sel, err := ip.focused(proc, port, idx, focus)
	if err != nil {
		total.End()
		return nil, err
	}
	runIDs = dedupRuns(runIDs)
	if _, _, err := validateRuns(ip.q.HasRun, runIDs, false); err != nil {
		total.End()
		return nil, err
	}
	plan := tmpl.instantiate(idx, sel)
	result := NewResult()
	for _, runID := range runIDs {
		if _, err := ip.executeInto(result, plan, nil, plan.all, runID); err != nil {
			total.End()
			return nil, err
		}
	}
	d := total.End()
	ipQueries.Add(1)
	if obs.SlowExceeded(d) {
		obs.Slow("lineage.indexproj", d,
			"runs", strconv.Itoa(len(runIDs)),
			"binding", proc+":"+port+idx.String(),
			"probes", strconv.Itoa(len(plan.Probes)),
			"bindings", strconv.Itoa(result.Len()))
	}
	return result, nil
}

// Execute runs a compiled plan against one run. It refuses a cached
// template (see CompiledPlan), which needs a query index to resolve.
func (ip *IndexProj) Execute(plan *CompiledPlan, runID string) (*Result, error) {
	if plan.shapes != nil {
		return nil, errTemplatePlan
	}
	result := NewResult()
	if _, err := ip.executeInto(result, plan, nil, plan.every(), runID); err != nil {
		return nil, err
	}
	return result, nil
}

// executeInto runs the probes sel selects from plan against one run,
// resolving them against q when plan is a template, and returns how many
// probes it ran.
func (ip *IndexProj) executeInto(result *Result, plan *CompiledPlan, q value.Index, sel []int, runID string) (int, error) {
	sp := obs.Start(ipProbeNs)
	defer sp.End()
	n := 0
	for _, i := range sel {
		idx, ok := plan.resolve(i, q)
		if !ok {
			continue
		}
		pr := &plan.Probes[i]
		bs, err := ip.q.InputBindings(runID, pr.Proc, pr.Port, idx)
		if err != nil {
			return n, err
		}
		if err := ip.materialize(context.TODO(), result, bs); err != nil {
			return n, err
		}
		n++
	}
	ipProbes.Add(int64(n))
	return n, nil
}

// materialize is materialize for this evaluator's store, and the one place
// that counts the bindings INDEXPROJ probes matched — on every executor, so
// the count does not depend on how a query was run.
func (ip *IndexProj) materialize(ctx context.Context, result *Result, bs []store.Binding) error {
	ipBindings.Add(int64(len(bs)))
	return materialize(ctx, ip.q, result, bs)
}

// CacheSize returns the number of templates in this evaluator's table (0
// while a test hook substitutes it), at most Σ_b (L_b+1) over the workflow's
// bindings.
func (ip *IndexProj) CacheSize() int {
	if t, ok := ip.cache.(*planTable); ok {
		return t.len()
	}
	return 0
}

// Compile traverses the workflow specification graph and produces the probe
// plan for a query binding and focus set: the focus's probes of the template
// stored for the binding and |q| (compiled on a miss), resolved against idx.
// The plan shares no storage with idx. The table's read path never
// serializes concurrent queries sharing a template. A miss compiles outside
// any lock (two racing compilations of the same key both produce correct,
// equal templates; the first insert wins).
func (ip *IndexProj) Compile(proc, port string, idx value.Index, focus Focus) (*CompiledPlan, error) {
	tmpl, sel, err := ip.focused(proc, port, idx, focus)
	if err != nil {
		return nil, err
	}
	return tmpl.instantiate(idx.Clone(), sel), nil
}

// focused returns the template for the query's binding and |q|, and the
// ordinals of the probes the focus selects from it. Every executor filters
// through it.
func (ip *IndexProj) focused(proc, port string, idx value.Index, focus Focus) (*CompiledPlan, []int, error) {
	tmpl, err := ip.template(proc, port, len(idx))
	if err != nil {
		return nil, nil, err
	}
	return tmpl, tmpl.selected(focus), nil
}

// template returns the template stored for the binding and min(n, L_b),
// compiling and storing it on a miss. A binding bound cannot place is
// compiled as asked and never stored: the compiler rejects it.
func (ip *IndexProj) template(proc, port string, n int) (*CompiledPlan, error) {
	var key string
	l, known := ip.bound(proc, port)
	if known {
		n = min(n, l)
		key = planKey(proc, port, n)
		if tmpl, ok := ip.cache.Get(key); ok {
			ipCacheHits.Add(1)
			return tmpl, nil
		}
	}
	ipCacheMiss.Add(1)

	sp := obs.Start(ipPlanNs)
	defer sp.End()
	tmpl, err := ip.compileTemplate(proc, port, n)
	if err != nil || !known {
		return tmpl, err
	}
	return ip.cache.Add(key, tmpl), nil
}

// compileTemplate runs the compiler once on the identity index of length n.
// The compiler only truncates, slices, concatenates and projects the index,
// so every probe index it emits is the list of positions of q it reads, and
// its dedup maps see distinct components: two template probes can still
// resolve equal for a concrete q (q=[3,3]), which resolve sorts out.
func (ip *IndexProj) compileTemplate(proc, port string, n int) (*CompiledPlan, error) {
	identity := make(value.Index, n)
	for i := range identity {
		identity[i] = i
	}
	c := &compiler{
		ip:        ip,
		probeSeen: make(map[string]bool),
		visited:   make(map[string]bool),
	}
	if err := c.start(proc, port, identity); err != nil {
		return nil, err
	}
	tmpl := &CompiledPlan{
		Probes: c.probes,
		shapes: make([]probeShape, len(c.probes)),
		byProc: make(map[string][]int),
		all:    make([]int, len(c.probes)),
	}
	last := make(map[probeGroup]int)
	for i, pr := range c.probes {
		g := probeGroup{pr.Proc, pr.Port, len(pr.Index)}
		twin, ok := last[g]
		if !ok {
			twin = -1
		}
		tmpl.shapes[i] = newProbeShape(pr.Index, twin)
		last[g] = i
		tmpl.byProc[pr.Proc] = append(tmpl.byProc[pr.Proc], i)
		tmpl.all[i] = i
	}
	return tmpl, nil
}

// scope is one (sub-)workflow frame of the compilation traversal.
type scope struct {
	wf     *workflow.Workflow
	d      *workflow.Depths
	base   string // path of the enclosing composite ("" at the root)
	ctxLen int    // total context-prefix length of indices in this frame

	// parent/compProc link a sub-workflow frame to the composite processor
	// that hosts it. coveredByParent is true when the frame was entered by
	// descending from the parent's visitOutput, whose black-box continuation
	// already covers everything upstream of the composite at equal or
	// coarser granularity; frames a query *starts* in are not covered and
	// must exit explicitly through the boundary.
	parent          *scope
	compProc        *workflow.Processor
	coveredByParent bool
}

// qualifyName returns the trace name of a processor in this frame.
func (sc *scope) qualifyName(proc string) string {
	if sc.base == "" {
		return proc
	}
	return sc.base + "/" + proc
}

type compiler struct {
	ip        *IndexProj
	probes    []Probe
	probeSeen map[string]bool
	visited   map[string]bool
}

// start resolves the query binding's frame (descending through composite
// path segments) and begins the traversal.
func (c *compiler) start(proc, port string, idx value.Index) error {
	sc := &scope{wf: c.ip.wf, d: c.ip.d, base: "", ctxLen: 0}
	if proc == trace.WorkflowProc {
		if _, ok := sc.wf.Output(port); ok {
			return c.visitWorkflowOutput(sc, port, idx)
		}
		if _, ok := sc.wf.Input(port); ok {
			return nil // a workflow input is its own (empty) lineage
		}
		return fmt.Errorf("lineage: workflow has no port %q", port)
	}
	segments := strings.Split(proc, "/")
	for len(segments) > 1 {
		comp := sc.wf.Processor(segments[0])
		if comp == nil || !comp.IsComposite() {
			return fmt.Errorf("lineage: no nested dataflow %q in %q", segments[0], sc.wf.Name)
		}
		sub := sc.d.Sub(comp.Name)
		if sub == nil {
			return fmt.Errorf("lineage: no depths for nested dataflow %q", comp.Name)
		}
		sc = &scope{
			wf:       comp.Sub,
			d:        sub,
			base:     sc.qualifyName(comp.Name),
			ctxLen:   sc.ctxLen + sc.d.IterationDepth(comp.Name),
			parent:   sc,
			compProc: comp,
		}
		segments = segments[1:]
	}
	p := sc.wf.Processor(segments[0])
	if p == nil {
		return fmt.Errorf("lineage: no processor %q in workflow %q", proc, sc.wf.Name)
	}
	if _, _, ok := p.Output(port); ok {
		return c.visitOutput(sc, p, port, idx)
	}
	if _, _, ok := p.Input(port); ok {
		return c.visitInput(sc, p, port, idx)
	}
	return fmt.Errorf("lineage: processor %q has no port %q", proc, port)
}

func (c *compiler) seen(kind, name, port string, idx value.Index) bool {
	key := kind + "\x01" + name + "\x01" + port + "\x01" + idx.String()
	if c.visited[key] {
		return true
	}
	c.visited[key] = true
	return false
}

func (c *compiler) addProbe(proc, port string, idx value.Index) {
	pr := Probe{Proc: proc, Port: port, Index: idx}
	key := pr.String()
	if !c.probeSeen[key] {
		c.probeSeen[key] = true
		c.probes = append(c.probes, pr)
	}
}

// iterPlanFor returns the statically-computed iteration plan of a processor
// within a frame (built once by PROPAGATEDEPTHS).
func (c *compiler) iterPlanFor(sc *scope, p *workflow.Processor) *iter.Plan {
	return sc.d.Plan(p.Name)
}

// visitOutput handles one traversal step through a processor: the index
// projection rule apportions fragments of the output index to each input
// port (Alg. 2, first branch), and every port's fragment is a probe. For a
// nested dataflow, the traversal additionally descends into the
// sub-workflow.
func (c *compiler) visitOutput(sc *scope, p *workflow.Processor, port string, idx value.Index) error {
	if c.seen("out", sc.qualifyName(p.Name), port, idx) {
		return nil
	}
	qualified := sc.qualifyName(p.Name)

	if p.IsComposite() {
		sub := sc.d.Sub(p.Name)
		if sub == nil {
			return fmt.Errorf("lineage: no depths for nested dataflow %q", qualified)
		}
		subScope := &scope{
			wf:              p.Sub,
			d:               sub,
			base:            qualified,
			ctxLen:          sc.ctxLen + sc.d.IterationDepth(p.Name),
			parent:          sc,
			compProc:        p,
			coveredByParent: true,
		}
		if err := c.visitWorkflowOutput(subScope, port, idx); err != nil {
			return err
		}
	}

	// Black-box continuation: invert the iteration intensionally. Positions
	// of the local output index beyond the iteration depth m(P) address
	// structure inside the processor's declared output and are dropped —
	// the graceful granularity degradation of §2.3.
	plan := c.iterPlanFor(sc, p)
	ctx := idx.Truncate(sc.ctxLen)
	local := idx.Slice(sc.ctxLen, len(idx))
	for i, in := range p.Inputs {
		frag, _ := plan.Project(local, i)
		full := ctx.Concat(frag)
		c.addProbe(qualified, in.Name, full)
		if err := c.visitInput(sc, p, in.Name, full); err != nil {
			return err
		}
	}
	return nil
}

// visitInput follows the (unique) arc into an input port upstream (Alg. 2,
// second branch). Unconnected ports and workflow inputs terminate the path;
// reaching the enclosing sub-workflow's own input also terminates, because
// the parent-level black-box continuation already covers everything
// upstream of the composite at equal or coarser granularity.
func (c *compiler) visitInput(sc *scope, p *workflow.Processor, port string, idx value.Index) error {
	if c.seen("in", sc.qualifyName(p.Name), port, idx) {
		return nil
	}
	arc, ok := c.ip.arcs[frameArc{sc.wf, workflow.PortID{Proc: p.Name, Port: port}}]
	if !ok {
		return nil // default value: a source
	}
	if arc.From.Proc == workflow.WorkflowPseudoProc {
		return c.reachedFrameInput(sc, arc.From.Port, idx)
	}
	src := sc.wf.Processor(arc.From.Proc)
	if src == nil {
		return fmt.Errorf("lineage: arc references unknown processor %q", arc.From.Proc)
	}
	return c.visitOutput(sc, src, arc.From.Port, idx)
}

// reachedFrameInput handles a traversal path arriving at the current frame's
// own input port. At the root this is a source. In a sub-workflow frame
// entered by descent it is also terminal (the parent black-box continuation
// subsumes the upstream exploration). In a frame the query started in, the
// traversal exits through the boundary: the activation fragment of the
// context is apportioned to the composite's input by the index projection
// rule and the residual (finer-than-boundary) part carries across, exactly
// as the engine's boundary xfer events record extensionally.
func (c *compiler) reachedFrameInput(sc *scope, port string, idx value.Index) error {
	if sc.parent == nil || sc.coveredByParent {
		return nil
	}
	comp := sc.compProc
	_, i, ok := comp.Input(port)
	if !ok {
		return fmt.Errorf("lineage: composite %q has no input %q", comp.Name, port)
	}
	plan := c.iterPlanFor(sc.parent, comp)
	q := idx.Slice(sc.parent.ctxLen, sc.ctxLen)
	r := idx.Slice(sc.ctxLen, len(idx))
	frag, _ := plan.Project(q, i)
	full := idx.Truncate(sc.parent.ctxLen).Concat(frag).Concat(r)
	return c.visitInput(sc.parent, comp, port, full)
}

// visitWorkflowOutput follows the arc feeding a workflow-level (or
// sub-workflow-level) output port.
func (c *compiler) visitWorkflowOutput(sc *scope, port string, idx value.Index) error {
	if c.seen("wfout", sc.base, port, idx) {
		return nil
	}
	arc, ok := c.ip.arcs[frameArc{sc.wf, workflow.PortID{Proc: workflow.WorkflowPseudoProc, Port: port}}]
	if !ok {
		return nil // unconnected output (rejected by the engine, legal in a spec)
	}
	if arc.From.Proc == workflow.WorkflowPseudoProc {
		// Input wired straight to output: the path ends at this frame's own
		// input port.
		return c.reachedFrameInput(sc, arc.From.Port, idx)
	}
	src := sc.wf.Processor(arc.From.Proc)
	if src == nil {
		return fmt.Errorf("lineage: arc references unknown processor %q", arc.From.Proc)
	}
	return c.visitOutput(sc, src, arc.From.Port, idx)
}
