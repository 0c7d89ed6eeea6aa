// Package iter implements the implicit iteration semantics of the Taverna
// dataflow model as formalized in §3.2 of the paper: the generalized cross
// product ⊗ over (value, depth-mismatch) pairs (Def. 2), the recursive
// evaluation function eval_l (Def. 3), and the enumeration of processor
// activations whose indices obey the index projection property (Prop. 1:
// the output index q is the concatenation p1···pn of the per-input indices,
// with |pi| = max(δs(Xi), 0)).
//
// Plan.Enumerate/Assemble is the implementation the execution engine uses;
// the package tests cross-check it against EvalDef3, a literal transcription
// of Def. 2 + Def. 3 kept in def3_test.go.
//
// Beyond the flat cross product, the package implements the full combinator
// model of footnote 7: the dot ("zip") product and arbitrary expressions
// combining cross and dot (see Node). All plans — flat or tree-shaped —
// share one implementation over materialized iteration spaces.
package iter

import (
	"fmt"

	"repro/internal/value"
)

// Strategy selects how a flat plan combines its iterated inputs.
type Strategy uint8

const (
	// Cross combines iterated inputs with the generalized cross product of
	// Def. 2 (the Taverna default).
	Cross Strategy = iota
	// Dot combines iterated inputs pairwise ("zip", footnote 7). All
	// iterated inputs must expose matching index spaces.
	Dot
)

func (s Strategy) String() string {
	switch s {
	case Cross:
		return "cross"
	case Dot:
		return "dot"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Activation is one elementary execution of a processor within an implicit
// iteration: the per-input element indices p_i, the element values passed to
// the black box, and the output index q at which this activation's results
// are placed within the wrapped output collections.
type Activation struct {
	InputIndices []value.Index
	Args         []value.Value
	OutputIndex  value.Index
}

// Plan captures the statically-determined iteration behaviour of one
// processor: the signed depth mismatches δs(Xi) of its input ports in
// declaration order, and the combinator expression over them.
type Plan struct {
	deltas  []int // signed δs per input
	eff     []int // max(δs, 0) per input
	offsets []int // per-input fragment offset within q
	total   int   // iteration depth m(P) = |q|
	tree    *Node
}

// NewPlan builds a flat iteration plan: one cross (or dot) combinator over
// all inputs in declaration order.
func NewPlan(deltas []int, strat Strategy) *Plan {
	kids := make([]*Node, len(deltas))
	for i := range deltas {
		kids[i] = LeafNode(i)
	}
	root := &Node{Dot: strat == Dot, Kids: kids}
	p, err := NewPlanTree(deltas, root)
	if err != nil {
		// Flat trees over n inputs are always well-formed.
		panic(err)
	}
	return p
}

// NewPlanTree builds a plan from an explicit combinator expression. The
// tree's leaves must cover every input position exactly once. For a plan
// over zero inputs the tree is ignored.
func NewPlanTree(deltas []int, tree *Node) (*Plan, error) {
	if len(deltas) > 0 {
		if err := validateTree(tree, len(deltas)); err != nil {
			return nil, err
		}
	}
	p := &Plan{
		deltas:  append([]int(nil), deltas...),
		eff:     make([]int, len(deltas)),
		offsets: make([]int, len(deltas)),
		tree:    tree,
	}
	for i, d := range deltas {
		if d > 0 {
			p.eff[i] = d
		}
	}
	p.total = treeDepth(tree, p.eff)
	treeOffsets(tree, p.eff, 0, p.offsets)
	return p, nil
}

// Deltas returns the signed per-input mismatches.
func (p *Plan) Deltas() []int { return p.deltas }

// IterationDepth returns m(P), the number of wrapper levels (and the length
// of every activation's output index q).
func (p *Plan) IterationDepth() int { return p.total }

// Offsets returns, per input port, the offset of that port's fragment
// within an output index q.
func (p *Plan) Offsets() []int { return p.offsets }

// Tree returns the plan's combinator expression.
func (p *Plan) Tree() *Node { return p.tree }

// Project implements the index projection rule (Def. 4, generalized per
// DESIGN.md §3): it carves the fragment of an output index q belonging to
// input port i — the slice q[o_i : o_i+δ_i], where the offsets o_i are
// determined statically by the combinator tree (advancing through cross
// nodes, shared under dot nodes). Fragments extending past the end of a
// (deliberately short, i.e. coarse) q are truncated; inputs with
// non-positive mismatch yield the empty index.
//
// The second return value reports whether the fragment is exact, i.e. q was
// long enough to cover the whole fragment; callers use this to signal
// granularity loss.
func (p *Plan) Project(q value.Index, i int) (value.Index, bool) {
	d := p.eff[i]
	if d == 0 {
		return value.Index{}, true
	}
	frag := q.Slice(p.offsets[i], p.offsets[i]+d)
	return frag, len(frag) == d
}

// wrapNegative promotes inputs with negative mismatch by nesting them in
// singletons (§3.2), leaving other inputs untouched.
func (p *Plan) wrapNegative(inputs []value.Value) []value.Value {
	out := make([]value.Value, len(inputs))
	for i, v := range inputs {
		if p.deltas[i] < 0 {
			out[i] = value.Wrap(v, -p.deltas[i])
		} else {
			out[i] = v
		}
	}
	return out
}

// Enumerate lists the activations of a processor invocation on the given
// input values (one per input port, in declaration order), in lexicographic
// output-index order. It returns an error if an input value is too shallow
// to support its mismatch, or if a dot combinator's operands expose
// mismatched index spaces.
func (p *Plan) Enumerate(inputs []value.Value) ([]Activation, error) {
	space, wrapped, err := p.space(inputs)
	if err != nil {
		return nil, err
	}
	var acts []Activation
	var walk func(s *ispace, path value.Index) error
	walk = func(s *ispace, path value.Index) error {
		if s.isLeaf {
			act := Activation{
				InputIndices: make([]value.Index, len(p.deltas)),
				Args:         make([]value.Value, len(p.deltas)),
				OutputIndex:  path.Clone(),
			}
			for i := range p.deltas {
				frag := s.assign[i]
				if frag == nil {
					frag = value.Index{}
				}
				act.InputIndices[i] = frag
				arg, err := wrapped[i].At(frag)
				if err != nil {
					return fmt.Errorf("iter: input %d: %w", i, err)
				}
				act.Args[i] = arg
			}
			acts = append(acts, act)
			return nil
		}
		for j, k := range s.kids {
			if err := walk(k, append(path, j)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(space, nil); err != nil {
		return nil, err
	}
	return acts, nil
}

// space materializes the iteration space for concrete inputs, returning it
// alongside the negative-mismatch-wrapped input values.
func (p *Plan) space(inputs []value.Value) (*ispace, []value.Value, error) {
	if len(inputs) != len(p.deltas) {
		return nil, nil, fmt.Errorf("iter: %d inputs for plan over %d ports", len(inputs), len(p.deltas))
	}
	wrapped := p.wrapNegative(inputs)
	if len(p.deltas) == 0 {
		return &ispace{isLeaf: true}, wrapped, nil
	}
	space, err := p.buildSpace(p.tree, wrapped)
	if err != nil {
		return nil, nil, err
	}
	return space, wrapped, nil
}

// Assemble builds the wrapped output collection for one output port from the
// per-activation results, given in the order produced by Enumerate. The
// nesting structure mirrors the iteration space: m(P) wrapper levels whose
// shape follows the combinator expression over the inputs' index spaces.
func (p *Plan) Assemble(inputs []value.Value, results []value.Value) (value.Value, error) {
	space, _, err := p.space(inputs)
	if err != nil {
		return value.Value{}, err
	}
	next := 0
	var build func(s *ispace) (value.Value, error)
	build = func(s *ispace) (value.Value, error) {
		if s.isLeaf {
			if next >= len(results) {
				return value.Value{}, fmt.Errorf("iter: not enough activation results: have %d", len(results))
			}
			v := results[next]
			next++
			return v, nil
		}
		elems := make([]value.Value, len(s.kids))
		for j, k := range s.kids {
			v, err := build(k)
			if err != nil {
				return value.Value{}, err
			}
			elems[j] = v
		}
		return value.List(elems...), nil
	}
	out, err := build(space)
	if err != nil {
		return value.Value{}, err
	}
	if next != len(results) {
		return value.Value{}, fmt.Errorf("iter: %d unused activation results", len(results)-next)
	}
	return out, nil
}
