package lineage

import (
	"context"
	"fmt"
	"maps"
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
// Plans are cached per query shape (binding port, |q|, focus): the index
// projection rule is positional (Prop. 1), so one compilation over the
// identity index [0,1,…,|q|-1] serves every index of that length, and a
// query instantiates the cached template by reading the positions off its
// own index (see plancache.go). A single plan is executed once per run for
// multi-run queries (§3.4), which is what makes INDEXPROJ's multi-run cost
// proportional to t2 only (Fig. 4). The cache key also pins the store's
// topology generation, so an evaluator whose store was reopened under a
// different shard ring never reuses plans cached against the old layout.
//
// An IndexProj is safe for concurrent use: the plan cache (the private
// read-mostly map by default, an injected SharedPlanCache in server
// deployments) is concurrency-safe, and the store probes go through
// store.LineageQuerier, whose implementations are required to be
// concurrency-safe.
type IndexProj struct {
	q  store.LineageQuerier
	wf *workflow.Workflow
	d  *workflow.Depths

	cache   PlanCache
	scope   string // cache-key namespace ("" outside multi-tenant servers)
	topoGen string // store topology generation pinned into every cache key
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
// The plans an IndexProj caches are templates: compiled on the identity
// index, each probe's Index lists the positions of the query index q it
// reads, and shapes says how to resolve them against q. Plans returned by
// Compile, and plans built by hand, are concrete (shapes is nil); Execute
// and ExecuteMultiRun refuse a template.
type CompiledPlan struct {
	Probes []Probe

	shapes []probeShape // templates only, one per probe
	focus  Focus        // templates only: the focus set compiled for
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
	return &IndexProj{
		q:       q,
		wf:      wf,
		d:       d,
		cache:   newMapPlanCache(),
		topoGen: topologyGen(q),
	}, nil
}

// UsePlanCache routes this evaluator's compilations through a shared plan
// cache under the given scope (the tenant namespace in provd). Keys carry
// the scope, the workflow name and the store topology generation, so
// evaluators of different tenants — or of the same tenant over a reopened
// store with a different shard ring — can share one cache without ever
// observing each other's plans. Call before the first query; swapping the
// cache concurrently with queries is not supported.
func (ip *IndexProj) UsePlanCache(cache PlanCache, scope string) {
	if cache == nil {
		cache = newMapPlanCache()
	}
	ip.cache = cache
	ip.scope = scope
}

// Lineage evaluates lin(⟨proc:port[idx]⟩, focus) within one run. It executes
// the cached template directly, resolving each probe against idx as it goes:
// a cache hit builds no plan.
func (ip *IndexProj) Lineage(runID, proc, port string, idx value.Index, focus Focus) (*Result, error) {
	total := obs.Start(ipQueryNs)
	tmpl, err := ip.template(proc, port, idx, focus)
	if err != nil {
		total.End()
		return nil, err
	}
	result := NewResult()
	probes, err := ip.executeInto(result, tmpl, idx, runID)
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
// graph is traversed once (one cached template per query shape), and only
// the probes are re-executed per run (§3.4).
func (ip *IndexProj) LineageMultiRun(runIDs []string, proc, port string, idx value.Index, focus Focus) (*Result, error) {
	total := obs.Start(ipQueryNs)
	tmpl, err := ip.template(proc, port, idx, focus)
	if err != nil {
		total.End()
		return nil, err
	}
	runIDs = dedupRuns(runIDs)
	if _, _, err := validateRuns(ip.q.HasRun, runIDs, false); err != nil {
		total.End()
		return nil, err
	}
	plan := tmpl.instantiate(idx)
	result := NewResult()
	for _, runID := range runIDs {
		if _, err := ip.executeInto(result, plan, nil, runID); err != nil {
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
	if _, err := ip.executeInto(result, plan, nil, runID); err != nil {
		return nil, err
	}
	return result, nil
}

// executeInto runs plan's probes against one run, resolving them against q
// when plan is a template, and returns how many probes it ran.
func (ip *IndexProj) executeInto(result *Result, plan *CompiledPlan, q value.Index, runID string) (int, error) {
	sp := obs.Start(ipProbeNs)
	defer sp.End()
	n := 0
	for i, pr := range plan.Probes {
		idx, ok := plan.resolve(i, q)
		if !ok {
			continue
		}
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

// CacheSize returns the number of compiled plans in this evaluator's private
// cache. For evaluators routed through a shared cache it reports the shared
// cache's total size when that cache is a *SharedPlanCache, 0 otherwise.
func (ip *IndexProj) CacheSize() int {
	switch c := ip.cache.(type) {
	case *mapPlanCache:
		return c.len()
	case *SharedPlanCache:
		return c.Len()
	default:
		return 0
	}
}

// TopologyGen returns the store topology generation pinned into this
// evaluator's cache keys.
func (ip *IndexProj) TopologyGen() string { return ip.topoGen }

// Compile traverses the workflow specification graph and produces the probe
// plan for a query binding and focus set, instantiated from the template
// cached for the query's shape (compiled on a miss). The plan shares no
// storage with idx. The cache's read path never serializes concurrent
// queries sharing a template. A cache miss compiles outside any lock (two
// racing compilations of the same key both produce correct, equal
// templates; the first insert wins).
func (ip *IndexProj) Compile(proc, port string, idx value.Index, focus Focus) (*CompiledPlan, error) {
	tmpl, err := ip.template(proc, port, idx, focus)
	if err != nil {
		return nil, err
	}
	return tmpl.instantiate(idx.Clone()), nil
}

// template returns the template cached for the query's shape, compiling and
// caching it on a miss. A cached template whose focus set is not the
// query's (a fingerprint collision) is never served: the query's own
// template is compiled and returned uncached.
func (ip *IndexProj) template(proc, port string, idx value.Index, focus Focus) (*CompiledPlan, error) {
	key := planKey(ip.scope, ip.wf.Name, ip.topoGen, proc, port, len(idx), focus)
	cached, ok := ip.cache.Get(key)
	if ok && sameFocus(cached.focus, focus) {
		ipCacheHits.Add(1)
		return cached, nil
	}
	ipCacheMiss.Add(1)

	sp := obs.Start(ipPlanNs)
	defer sp.End()
	tmpl, err := ip.compileTemplate(proc, port, len(idx), focus)
	switch {
	case err != nil:
		return nil, err
	case ok:
		return tmpl, nil // the key's template is another focus set's
	}
	if won := ip.cache.Add(key, tmpl); sameFocus(won.focus, focus) {
		return won, nil
	}
	return tmpl, nil
}

// compileTemplate runs the compiler once on the identity index of length n.
// The compiler only truncates, slices, concatenates and projects the index,
// so every probe index it emits is the list of positions of q it reads, and
// its dedup maps see distinct components: two template probes can still
// resolve equal for a concrete q (q=[3,3]), which resolve sorts out.
func (ip *IndexProj) compileTemplate(proc, port string, n int, focus Focus) (*CompiledPlan, error) {
	identity := make(value.Index, n)
	for i := range identity {
		identity[i] = i
	}
	c := &compiler{
		ip:        ip,
		focus:     focus,
		probeSeen: make(map[string]bool),
		visited:   make(map[string]bool),
	}
	if err := c.start(proc, port, identity); err != nil {
		return nil, err
	}
	tmpl := &CompiledPlan{Probes: c.probes, shapes: make([]probeShape, len(c.probes)), focus: maps.Clone(focus)}
	last := make(map[probeGroup]int)
	for i, pr := range c.probes {
		g := probeGroup{pr.Proc, pr.Port, len(pr.Index)}
		twin, ok := last[g]
		if !ok {
			twin = -1
		}
		tmpl.shapes[i] = newProbeShape(pr.Index, twin)
		last[g] = i
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
	focus     Focus
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

// anyFocusInside reports whether the focus set names a processor inside the
// composite with the given qualified name.
func (c *compiler) anyFocusInside(qualified string) bool {
	prefix := qualified + "/"
	for name := range c.focus {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// iterPlanFor returns the statically-computed iteration plan of a processor
// within a frame (built once by PROPAGATEDEPTHS).
func (c *compiler) iterPlanFor(sc *scope, p *workflow.Processor) *iter.Plan {
	return sc.d.Plan(p.Name)
}

// visitOutput handles one traversal step through a processor: the index
// projection rule apportions fragments of the output index to each input
// port (Alg. 2, first branch). For a nested dataflow containing focus
// processors, the traversal additionally descends into the sub-workflow.
func (c *compiler) visitOutput(sc *scope, p *workflow.Processor, port string, idx value.Index) error {
	if c.seen("out", sc.qualifyName(p.Name), port, idx) {
		return nil
	}
	qualified := sc.qualifyName(p.Name)

	if p.IsComposite() && c.anyFocusInside(qualified) {
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
		if c.focus[qualified] {
			c.addProbe(qualified, in.Name, full)
		}
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
	arc, ok := sc.wf.IncomingArc(workflow.PortID{Proc: p.Name, Port: port})
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
	arc, ok := sc.wf.IncomingArc(workflow.PortID{Proc: workflow.WorkflowPseudoProc, Port: port})
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
