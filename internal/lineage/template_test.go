package lineage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/workflow"
)

// TestTemplateMatchesConcreteCompile is the property behind the shape-keyed
// plan cache: for random workflows (nested and zipped ones included),
// bindings, focus sets and indices of every length 0…m+1, the template
// compiled on the identity index and instantiated for q runs exactly the
// probes — same set, same count, same order — that the compiler produces
// when it traverses the specification with q itself. Indices draw their
// components from a small range, so repeated components (q=[3,3]) that make
// distinct template probes resolve equal are common.
func TestTemplateMatchesConcreteCompile(t *testing.T) {
	trials := diffTrials(40)
	rng := rand.New(rand.NewSource(20261017))
	// Queries on which template probes resolved equal, and on which a probe
	// read non-contiguous positions of q: both paths must be exercised.
	collapsed, gathered := 0, 0
	for trial := 0; trial < trials; trial++ {
		var w *workflow.Workflow
		switch trial % 5 {
		case 2:
			w = diamondWorkflow(rng, fmt.Sprintf("td%d", trial))
		case 3:
			w = zipWorkflow(rng, fmt.Sprintf("tz%d", trial))
		case 4:
			w = nestedPairWorkflow(rng, fmt.Sprintf("tn%d", trial))
		default:
			w = buildRandomWorkflow(rng, fmt.Sprintf("tw%d", trial), 3+rng.Intn(8), true)
		}
		ip, err := NewIndexProj(nil, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bindings, procs := specBindings(w, "")
		for _, out := range w.Outputs {
			bindings = append(bindings, [2]string{trace.WorkflowProc, out.Name})
		}
		const m = maxDepth + 2 // deeper than any port's index: composites add iteration levels
		for probe := 0; probe < 12; probe++ {
			b := bindings[rng.Intn(len(bindings))]
			focus := NewFocus()
			for _, p := range procs {
				if rng.Intn(3) == 0 {
					focus[p] = true
				}
			}
			for n := 0; n <= m+1; n++ {
				for k := 0; k < 3; k++ {
					q := make(value.Index, n)
					for i := range q {
						q[i] = rng.Intn(3)
						if k == 0 {
							q[i] = q[0] // every component equal
						}
					}
					want, err := concreteProbes(ip, b[0], b[1], q, focus)
					if err != nil {
						t.Fatalf("trial %d: compile %s:%s%v: %v", trial, b[0], b[1], q, err)
					}
					got, err := ip.Compile(b[0], b[1], q, focus)
					if err != nil {
						t.Fatalf("trial %d: template %s:%s%v: %v", trial, b[0], b[1], q, err)
					}
					if !reflect.DeepEqual(got.Probes, want) {
						t.Fatalf("trial %d: %s:%s%v focus %v:\ntemplate %v\nconcrete %v\nworkflow: %s",
							trial, b[0], b[1], q, focus.Names(), got.Probes, want, mustJSON(w))
					}
					tmpl, _ := ip.template(b[0], b[1], q, focus)
					if len(tmpl.Probes) > len(want) {
						collapsed++
					}
					for _, sh := range tmpl.shapes {
						if !sh.contiguous {
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

// concreteProbes runs the compiler directly on q, bypassing the cache.
func concreteProbes(ip *IndexProj, proc, port string, q value.Index, focus Focus) ([]Probe, error) {
	c := &compiler{ip: ip, focus: focus, probeSeen: map[string]bool{}, visited: map[string]bool{}}
	if err := c.start(proc, port, q); err != nil {
		return nil, err
	}
	if c.probes == nil {
		return []Probe{}, nil
	}
	return c.probes, nil
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
