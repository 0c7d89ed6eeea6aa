package lineage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// TestTemplateMatchesConcreteCompile is the property behind the template
// table: for random workflows (nested and zipped ones included), bindings,
// focus sets and indices of every length 0…m+1, the focus's probes of the
// template compiled on the identity index, instantiated for q, are exactly
// the probes — same set, same count, same order — that a focused
// compilation traversing the specification with q itself produces. Indices
// draw their components from a small range, so repeated components (q=[3,3])
// that make distinct template probes resolve equal are common.
func TestTemplateMatchesConcreteCompile(t *testing.T) {
	trials := diffTrials(40)
	rng := rand.New(rand.NewSource(20261017))
	// Queries on which template probes resolved equal, and on which a probe
	// read non-contiguous positions of q: both paths must be exercised.
	collapsed, gathered := 0, 0
	for trial := 0; trial < trials; trial++ {
		w := templateWorkflow(rng, trial)
		ip, err := NewIndexProj(nil, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bindings, procs := queryBindings(w)
		const m = maxDepth + 2 // deeper than any port's index: composites add iteration levels
		for probe := 0; probe < 12; probe++ {
			b := bindings[rng.Intn(len(bindings))]
			focus := randomFocus(rng, procs)
			for n := 0; n <= m+1; n++ {
				for k := 0; k < 3; k++ {
					q := make(value.Index, n)
					for i := range q {
						q[i] = rng.Intn(3)
						if k == 0 {
							q[i] = q[0] // every component equal
						}
					}
					want, err := focusedProbes(ip, b[0], b[1], q, focus)
					if err != nil {
						t.Fatalf("trial %d: compile %s:%s%v: %v", trial, b[0], b[1], q, err)
					}
					got, err := ip.Compile(b[0], b[1], q, focus)
					if err != nil {
						t.Fatalf("trial %d: template %s:%s%v: %v", trial, b[0], b[1], q, err)
					}
					if !reflect.DeepEqual(got.Probes, want) {
						t.Fatalf("trial %d: %s:%s%v focus %v:\ntemplate %v\nconcrete %v\nworkflow: %s",
							trial, b[0], b[1], q, focus, got.Probes, want, mustJSON(w))
					}
					tmpl, sel, _ := ip.focused(b[0], b[1], q, focus)
					if len(sel) > len(want) {
						collapsed++
					}
					for _, i := range sel {
						if !tmpl.shapes[i].contiguous {
							gathered++
							break
						}
					}
				}
			}
		}
	}
	if collapsed == 0 || gathered == 0 {
		t.Errorf("dedup exercised %d times, gather %d times: both paths must be tested", collapsed, gathered)
	}
}

// TestFocusIsAFilter: the focused compilation of (binding, n, F) is the
// template of (binding, n) filtered to F's processors, probe for probe and
// in order, on the identity index of every length 0…L_b+1. Foci mix nested
// processors (comp/inner), composites, unknown names and false entries.
func TestFocusIsAFilter(t *testing.T) {
	trials := diffTrials(40)
	rng := rand.New(rand.NewSource(20261019))
	nested := 0 // foci that selected a probe inside a composite
	for trial := 0; trial < trials; trial++ {
		w := templateWorkflow(rng, trial)
		ip, err := NewIndexProj(nil, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bindings, procs := queryBindings(w)
		for _, b := range bindings {
			l, ok := ip.bound(b[0], b[1])
			if !ok {
				t.Fatalf("trial %d: no bound for %s:%s", trial, b[0], b[1])
			}
			for n := 0; n <= l+1; n++ {
				identity := make(value.Index, n)
				for i := range identity {
					identity[i] = i
				}
				tmpl, err := ip.template(b[0], b[1], n)
				if err != nil {
					t.Fatalf("trial %d: %s:%s n=%d: %v", trial, b[0], b[1], n, err)
				}
				for k := 0; k < 4; k++ {
					focus := randomFocus(rng, procs)
					want, err := focusedProbes(ip, b[0], b[1], identity, focus)
					if err != nil {
						t.Fatal(err)
					}
					got := []Probe{}
					for _, i := range tmpl.selected(focus) {
						got = append(got, tmpl.Probes[i])
						if strings.Contains(tmpl.Probes[i].Proc, "/") {
							nested++
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d: %s:%s n=%d focus %v:\nfiltered %v\nfocused  %v\nworkflow: %s",
							trial, b[0], b[1], n, focus, got, want, mustJSON(w))
					}
				}
			}
		}
	}
	if nested == 0 {
		t.Error("no focus selected a probe inside a composite")
	}
}

// TestTemplateBound proves the table's bound: every probe of a binding's
// template reads positions below L_b, and for n in L_b+1…L_b+3 the
// compilation on the identity index of length n is the L_b template, probe
// for probe.
func TestTemplateBound(t *testing.T) {
	trials := diffTrials(40)
	rng := rand.New(rand.NewSource(20261020))
	for trial := 0; trial < trials; trial++ {
		w := templateWorkflow(rng, trial)
		ip, err := NewIndexProj(nil, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bindings, _ := queryBindings(w)
		for _, b := range bindings {
			l, _ := ip.bound(b[0], b[1])
			at, err := ip.compileTemplate(b[0], b[1], l)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range at.Probes {
				for _, pos := range pr.Index {
					if pos >= l {
						t.Fatalf("trial %d: %s:%s probe %v reads position %d >= L_b = %d\nworkflow: %s",
							trial, b[0], b[1], pr, pos, l, mustJSON(w))
					}
				}
			}
			for n := l + 1; n <= l+3; n++ {
				longer, err := ip.compileTemplate(b[0], b[1], n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(longer, at) {
					t.Fatalf("trial %d: %s:%s n=%d template %v, want the L_b=%d template %v\nworkflow: %s",
						trial, b[0], b[1], n, longer.Probes, l, at.Probes, mustJSON(w))
				}
			}
		}
	}
}

// TestTemplateTableBounded: no query can grow an evaluator's table past
// Σ_b (L_b+1) templates. 10 000 queries with |q| ≤ 1000, random foci and a
// share of unknown bindings (which fail and store nothing) are answered.
func TestTemplateTableBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(20261021))
	w := nestedPairWorkflow(rng, "bounded")
	ip, err := NewIndexProj(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	bindings, procs := queryBindings(w)
	limit := 0
	for _, b := range bindings {
		l, _ := ip.bound(b[0], b[1])
		limit += l + 1
	}
	unknown := [][2]string{{"nope", "y"}, {"comp/nope", "y"}, {"comp", "nope"}, {trace.WorkflowProc, "nope"}, {"comp/", "o"}}
	for i := 0; i < 10000; i++ {
		b := bindings[rng.Intn(len(bindings))]
		bad := i%10 == 0
		if bad {
			b = unknown[rng.Intn(len(unknown))]
		}
		q := make(value.Index, rng.Intn(1001))
		for k := range q {
			q[k] = rng.Intn(4)
		}
		if _, err := ip.Compile(b[0], b[1], q, randomFocus(rng, procs)); (err != nil) != bad {
			t.Fatalf("%s:%s%v: err = %v", b[0], b[1], q, err)
		}
	}
	if got := ip.CacheSize(); got > limit {
		t.Errorf("table holds %d templates, want <= Σ(L_b+1) = %d", got, limit)
	}
}

// templateWorkflow draws the trial's workflow: random (with composites),
// diamond, zip or nested cross-product.
func templateWorkflow(rng *rand.Rand, trial int) *workflow.Workflow {
	switch trial % 5 {
	case 2:
		return diamondWorkflow(rng, fmt.Sprintf("td%d", trial))
	case 3:
		return zipWorkflow(rng, fmt.Sprintf("tz%d", trial))
	case 4:
		return nestedPairWorkflow(rng, fmt.Sprintf("tn%d", trial))
	default:
		return buildRandomWorkflow(rng, fmt.Sprintf("tw%d", trial), 3+rng.Intn(8), true)
	}
}

// queryBindings lists every query binding of w — each processor port,
// nested ones included, and the workflow's own ports — and every processor
// by qualified name.
func queryBindings(w *workflow.Workflow) (bindings [][2]string, procs []string) {
	bindings, procs = specBindings(w, "")
	for _, p := range append(append([]workflow.Port{}, w.Inputs...), w.Outputs...) {
		bindings = append(bindings, [2]string{trace.WorkflowProc, p.Name})
	}
	return bindings, procs
}

// randomFocus draws a focus over procs (qualified names, composites
// included), sometimes with an unknown name and sometimes with a name that
// maps to false.
func randomFocus(rng *rand.Rand, procs []string) Focus {
	focus := NewFocus()
	for _, p := range procs {
		if rng.Intn(3) == 0 {
			focus[p] = true
		}
	}
	if rng.Intn(3) == 0 {
		focus["no-such-processor"] = true
	}
	if rng.Intn(3) == 0 {
		focus[procs[rng.Intn(len(procs))]] = false
	}
	return focus
}

// focusedProbes is the focused compilation the template table replaced: the
// traversal of Alg. 2 on q that emits probes only at focus processors and
// descends only into composites holding one. It is kept here, apart from
// the compiler, as the oracle the filter is checked against.
func focusedProbes(ip *IndexProj, proc, port string, q value.Index, focus Focus) ([]Probe, error) {
	c := &focusedCompiler{focus: focus, probeSeen: map[string]bool{}, visited: map[string]bool{}, probes: []Probe{}}
	sc := &scope{wf: ip.wf, d: ip.d}
	if proc == trace.WorkflowProc {
		if _, ok := sc.wf.Output(port); ok {
			return c.probes, c.visitWorkflowOutput(sc, port, q)
		}
		if _, ok := sc.wf.Input(port); ok {
			return c.probes, nil
		}
		return nil, fmt.Errorf("no port %q", port)
	}
	segments := strings.Split(proc, "/")
	for ; len(segments) > 1; segments = segments[1:] {
		comp := sc.wf.Processor(segments[0])
		if comp == nil || !comp.IsComposite() {
			return nil, fmt.Errorf("no nested dataflow %q", segments[0])
		}
		sc = &scope{wf: comp.Sub, d: sc.d.Sub(comp.Name), base: sc.qualifyName(comp.Name),
			ctxLen: sc.ctxLen + sc.d.IterationDepth(comp.Name), parent: sc, compProc: comp}
	}
	p := sc.wf.Processor(segments[0])
	if p == nil {
		return nil, fmt.Errorf("no processor %q", proc)
	}
	if _, _, ok := p.Output(port); ok {
		return c.probes, c.visitOutput(sc, p, port, q)
	}
	if _, _, ok := p.Input(port); ok {
		return c.probes, c.visitInput(sc, p, port, q)
	}
	return nil, fmt.Errorf("processor %q has no port %q", proc, port)
}

type focusedCompiler struct {
	focus              Focus
	probes             []Probe
	probeSeen, visited map[string]bool
}

func (c *focusedCompiler) seen(kind, name, port string, idx value.Index) bool {
	key := kind + "\x01" + name + "\x01" + port + "\x01" + idx.String()
	defer func() { c.visited[key] = true }()
	return c.visited[key]
}

func (c *focusedCompiler) visitOutput(sc *scope, p *workflow.Processor, port string, idx value.Index) error {
	qualified := sc.qualifyName(p.Name)
	if c.seen("out", qualified, port, idx) {
		return nil
	}
	inside := false
	for name := range c.focus {
		inside = inside || strings.HasPrefix(name, qualified+"/")
	}
	if p.IsComposite() && inside {
		sub := &scope{wf: p.Sub, d: sc.d.Sub(p.Name), base: qualified,
			ctxLen: sc.ctxLen + sc.d.IterationDepth(p.Name), parent: sc, compProc: p, coveredByParent: true}
		if err := c.visitWorkflowOutput(sub, port, idx); err != nil {
			return err
		}
	}
	plan := sc.d.Plan(p.Name)
	ctx, local := idx.Truncate(sc.ctxLen), idx.Slice(sc.ctxLen, len(idx))
	for i, in := range p.Inputs {
		frag, _ := plan.Project(local, i)
		full := ctx.Concat(frag)
		if pr := (Probe{Proc: qualified, Port: in.Name, Index: full}); c.focus[qualified] && !c.probeSeen[pr.String()] {
			c.probeSeen[pr.String()] = true
			c.probes = append(c.probes, pr)
		}
		if err := c.visitInput(sc, p, in.Name, full); err != nil {
			return err
		}
	}
	return nil
}

func (c *focusedCompiler) visitInput(sc *scope, p *workflow.Processor, port string, idx value.Index) error {
	if c.seen("in", sc.qualifyName(p.Name), port, idx) {
		return nil
	}
	arc, ok := sc.wf.IncomingArc(workflow.PortID{Proc: p.Name, Port: port})
	switch {
	case !ok:
		return nil
	case arc.From.Proc == workflow.WorkflowPseudoProc:
		return c.reachedFrameInput(sc, arc.From.Port, idx)
	}
	return c.visitOutput(sc, sc.wf.Processor(arc.From.Proc), arc.From.Port, idx)
}

func (c *focusedCompiler) reachedFrameInput(sc *scope, port string, idx value.Index) error {
	if sc.parent == nil || sc.coveredByParent {
		return nil
	}
	_, i, _ := sc.compProc.Input(port)
	frag, _ := sc.parent.d.Plan(sc.compProc.Name).Project(idx.Slice(sc.parent.ctxLen, sc.ctxLen), i)
	full := idx.Truncate(sc.parent.ctxLen).Concat(frag).Concat(idx.Slice(sc.ctxLen, len(idx)))
	return c.visitInput(sc.parent, sc.compProc, port, full)
}

func (c *focusedCompiler) visitWorkflowOutput(sc *scope, port string, idx value.Index) error {
	if c.seen("wfout", sc.base, port, idx) {
		return nil
	}
	arc, ok := sc.wf.IncomingArc(workflow.PortID{Proc: workflow.WorkflowPseudoProc, Port: port})
	switch {
	case !ok:
		return nil
	case arc.From.Proc == workflow.WorkflowPseudoProc:
		return c.reachedFrameInput(sc, arc.From.Port, idx)
	}
	return c.visitOutput(sc, sc.wf.Processor(arc.From.Proc), arc.From.Port, idx)
}

// specBindings lists every processor port of w and its sub-workflows as a
// query binding, and every processor as a focus candidate, by qualified name.
func specBindings(w *workflow.Workflow, base string) (bindings [][2]string, procs []string) {
	for _, p := range w.Processors {
		name := base + p.Name
		procs = append(procs, name)
		for _, port := range append(append([]workflow.Port{}, p.Inputs...), p.Outputs...) {
			bindings = append(bindings, [2]string{name, port.Name})
		}
		if p.IsComposite() {
			b, ps := specBindings(p.Sub, name+"/")
			bindings, procs = append(bindings, b...), append(procs, ps...)
		}
	}
	return bindings, procs
}

// diamondWorkflow feeds one chain's output into both ports of a cross
// product: the chain's probes are reached once per port, at different
// positions of q, and resolve equal whenever those components are equal.
func diamondWorkflow(rng *rand.Rand, name string) *workflow.Workflow {
	w := workflow.New(name)
	w.AddInput("in", 1+rng.Intn(2))
	w.AddOutput("out", 2)
	prev := ""
	prevPort := "in"
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		p := fmt.Sprintf("c%02d", i)
		w.AddProcessor(p, "g_up", []workflow.Port{workflow.In("x0", 0)}, []workflow.Port{workflow.Out("y", 0)})
		w.Connect(prev, prevPort, p, "x0")
		prev, prevPort = p, "y"
	}
	w.AddProcessor("pair", "g_pair",
		[]workflow.Port{workflow.In("l", 0), workflow.In("r", 0)},
		[]workflow.Port{workflow.Out("y", 0)})
	w.Connect(prev, prevPort, "pair", "l")
	w.Connect(prev, prevPort, "pair", "r")
	w.Connect("pair", "y", "", "out")
	return w
}

// nestedPairWorkflow iterates a composite over a deep input; inside it a
// cross product pairs both sub-workflow inputs. A query inside the frame
// projects its right operand from past the left one, so that probe reads
// non-contiguous positions of q (context, then the right fragment).
func nestedPairWorkflow(rng *rand.Rand, name string) *workflow.Workflow {
	sub := workflow.New(name + "sub")
	sub.AddInput("a", 1).AddInput("b", 1)
	sub.AddOutput("o", 2)
	sub.AddProcessor("pair", "g_pair",
		[]workflow.Port{workflow.In("l", 0), workflow.In("r", 0)},
		[]workflow.Port{workflow.Out("y", 0)})
	sub.Connect("", "a", "pair", "l")
	sub.Connect("", "b", "pair", "r")
	sub.Connect("pair", "y", "", "o")

	depth := 2 + rng.Intn(2) // the composite iterates depth-1 levels over "a"
	w := workflow.New(name)
	w.AddInput("in", depth).AddInput("side", 1)
	w.AddOutput("out", depth+1)
	w.AddComposite("comp", sub)
	w.Connect("", "in", "comp", "a")
	w.Connect("", "side", "comp", "b")
	w.Connect("comp", "o", "", "out")
	return w
}

// zipWorkflow builds two one-to-one chains over one list, zipped back
// together by a dot-product processor (as in TestZipBranchesEquivalenceRandom).
func zipWorkflow(rng *rand.Rand, name string) *workflow.Workflow {
	w := workflow.New(name)
	w.AddInput("in", 1)
	w.AddOutput("out", 1)
	chain := func(branch string) (string, string) {
		prev, prevPort := "", "in"
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			p := fmt.Sprintf("%s%02d", branch, i)
			w.AddProcessor(p, "g_up", []workflow.Port{workflow.In("x0", 0)}, []workflow.Port{workflow.Out("y", 0)})
			w.Connect(prev, prevPort, p, "x0")
			prev, prevPort = p, "y"
		}
		return prev, prevPort
	}
	ap, app := chain("a")
	bp, bpp := chain("b")
	zip := w.AddProcessor("zip", "g_pair",
		[]workflow.Port{workflow.In("l", 0), workflow.In("r", 0)},
		[]workflow.Port{workflow.Out("y", 0)})
	zip.Dot = true
	w.Connect(ap, app, "zip", "l")
	w.Connect(bp, bpp, "zip", "r")
	w.Connect("zip", "y", "", "out")
	return w
}
