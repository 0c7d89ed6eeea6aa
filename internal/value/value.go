// Package value implements the nested-list data model of the Taverna
// dataflow language as described in §2.1 of the paper: a value is either an
// atom of a basic type (string, int, float, bool) or an arbitrarily nested
// list. Elements within a nested value are addressed by index paths
// (see Index). Values are immutable once constructed; all operations return
// new values and never mutate shared state.
//
// A list comes in two representations with identical behaviour. Built lists
// (List, Decode, FromJSON, ...) hold their elements. Payload-backed lists
// hold only the canonical text the provenance store persisted: DecodeStored
// — which only code reading payloads that Encode wrote may call, i.e.
// internal/store — validates the text once and builds nothing. On such a
// list At walks the text to the addressed element and decodes only that,
// Encode/String return the text, and Equal of two of them starts with a
// string compare; every other accessor (Len, Elems, Depth, Handle,
// CheckUniform, AtomCount, Indices, ToJSON, Flatten) forces one full decode,
// memoised on a cell shared by all copies of the Value (see payload.go).
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// kind discriminates the variants of Value.
type kind uint8

const (
	kindList kind = iota
	kindString
	kindInt
	kindFloat
	kindBool
)

// Value is a nested list of atoms. The zero Value is the empty list.
// Values are cheap to copy; list elements are shared and must be treated as
// immutable.
type Value struct {
	k     kind
	b     bool
	s     string // string atom; canonical text of a payload-backed list
	i     int64
	f     float64
	elems []Value
	lazy  *lazyList // non-nil exactly for a payload-backed list
}

// Str returns an atomic string value.
func Str(s string) Value { return Value{k: kindString, s: s} }

// Int returns an atomic integer value.
func Int(i int64) Value { return Value{k: kindInt, i: i} }

// Float returns an atomic floating-point value.
func Float(f float64) Value { return Value{k: kindFloat, f: f} }

// Bool returns an atomic boolean value.
func Bool(b bool) Value { return Value{k: kindBool, b: b} }

// List returns a list value with the given elements. The elements slice is
// retained; callers must not mutate it afterwards.
func List(elems ...Value) Value {
	if elems == nil {
		elems = []Value{}
	}
	return Value{k: kindList, elems: elems}
}

// Strs builds a flat list of string atoms. It is a convenience constructor
// for the common case of service outputs such as lists of identifiers.
func Strs(ss ...string) Value {
	elems := make([]Value, len(ss))
	for i, s := range ss {
		elems[i] = Str(s)
	}
	return List(elems...)
}

// Ints builds a flat list of integer atoms.
func Ints(is ...int64) Value {
	elems := make([]Value, len(is))
	for i, v := range is {
		elems[i] = Int(v)
	}
	return List(elems...)
}

// Handle is an opaque identity token for a list value: two values with
// equal valid handles share the same immutable backing array and are
// therefore structurally equal. Handles are comparable and usable as map
// keys; holding one keeps the backing array alive. They let consumers that
// see the same shared list many times (e.g. the provenance writer, which
// encodes every binding's value) cache per-value derived data without
// re-traversing the list.
type Handle struct {
	first *Value
	n     int
}

// Valid reports whether h identifies a value. Atoms and empty lists have no
// backing array and yield the zero, invalid handle.
func (h Handle) Valid() bool { return h.first != nil }

// Handle returns the identity token of a list's backing array, or the
// invalid handle for atoms and empty lists.
func (v Value) Handle() Handle {
	elems := v.list()
	if len(elems) == 0 {
		return Handle{}
	}
	return Handle{first: &elems[0], n: len(elems)}
}

// IsList reports whether v is a list (as opposed to an atom).
func (v Value) IsList() bool { return v.k == kindList }

// IsAtom reports whether v is an atomic value.
func (v Value) IsAtom() bool { return v.k != kindList }

// Len returns the number of elements of a list, and 0 for an atom.
func (v Value) Len() int { return len(v.list()) }

// Elems returns the elements of a list (nil for an atom). The returned slice
// must not be mutated.
func (v Value) Elems() []Value { return v.list() }

// AtomString returns the string form of an atomic value. For a list it
// returns the empty string; use String for a full rendering.
func (v Value) AtomString() string {
	switch v.k {
	case kindString:
		return v.s
	case kindInt:
		return strconv.FormatInt(v.i, 10)
	case kindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case kindBool:
		return strconv.FormatBool(v.b)
	default:
		return ""
	}
}

// StringVal returns the payload of a string atom and whether v is one.
func (v Value) StringVal() (string, bool) {
	if v.k != kindString {
		return "", false
	}
	return v.s, true
}

// IntVal returns the payload of an integer atom and whether v is one.
func (v Value) IntVal() (int64, bool) { return v.i, v.k == kindInt }

// FloatVal returns the payload of a float atom and whether v is one.
func (v Value) FloatVal() (float64, bool) { return v.f, v.k == kindFloat }

// BoolVal returns the payload of a boolean atom and whether v is one.
func (v Value) BoolVal() (bool, bool) { return v.b, v.k == kindBool }

// Depth returns the nesting depth of v: 0 for atoms, and 1 plus the depth of
// the first element for lists. The model assumes all elements of a list are
// at the same depth (§2.1); an empty list has depth 1. Use CheckUniform to
// validate the uniform-depth assumption.
func (v Value) Depth() int {
	d := 0
	for v.k == kindList {
		d++
		elems := v.list()
		if len(elems) == 0 {
			return d
		}
		v = elems[0]
	}
	return d
}

// CheckUniform verifies the model assumption that all elements of every list
// in v sit at the same depth. It returns a descriptive error naming the
// offending index path if the assumption is violated.
func (v Value) CheckUniform() error {
	_, err := checkUniform(v, nil)
	return err
}

func checkUniform(v Value, at Index) (int, error) {
	if v.k != kindList {
		return 0, nil
	}
	elems := v.list()
	if len(elems) == 0 {
		return 1, nil
	}
	first := -1
	for i, e := range elems {
		d, err := checkUniform(e, append(at, i))
		if err != nil {
			return 0, err
		}
		if first == -1 {
			first = d
		} else if d != first {
			return 0, fmt.Errorf("value: non-uniform depth at %s[%d]: element depth %d, expected %d",
				Index(at), i, d, first)
		}
	}
	return first + 1, nil
}

// At returns the element of v addressed by the index path p. The empty index
// addresses v itself. It returns an error if any index step is out of range
// or descends into an atom.
func (v Value) At(p Index) (Value, error) {
	cur := v
	for step, i := range p {
		if cur.lazy != nil {
			return cur.atPayload(p, step)
		}
		if cur.k != kindList {
			return Value{}, fmt.Errorf("value: index %s descends into atom at step %d", p, step)
		}
		if i < 0 || i >= len(cur.elems) {
			return Value{}, fmt.Errorf("value: index %s out of range at step %d (len %d)", p, step, len(cur.elems))
		}
		cur = cur.elems[i]
	}
	return cur, nil
}

// MustAt is like At but panics on error. It is intended for indices already
// validated by construction (e.g. produced by Indices).
func (v Value) MustAt(p Index) Value {
	r, err := v.At(p)
	if err != nil {
		panic(err)
	}
	return r
}

// Indices enumerates, in lexicographic order, all index paths of exactly the
// given length that are valid in v. Length 0 yields the single empty index.
// Enumerating below an atom yields nothing (the value is too shallow).
func (v Value) Indices(length int) []Index {
	var out []Index
	var walk func(cur Value, prefix Index, remaining int)
	walk = func(cur Value, prefix Index, remaining int) {
		if remaining == 0 {
			p := make(Index, len(prefix))
			copy(p, prefix)
			out = append(out, p)
			return
		}
		if cur.k != kindList {
			return
		}
		for i, e := range cur.list() {
			walk(e, append(prefix, i), remaining-1)
		}
	}
	walk(v, nil, length)
	return out
}

// Wrap nests v inside n singleton lists. Wrap(v, 0) returns v unchanged.
// This implements the treatment of negative depth mismatches in §3.2: a
// value shallower than the declared port depth is promoted by building a
// d-deep singleton.
func Wrap(v Value, n int) Value {
	for ; n > 0; n-- {
		v = List(v)
	}
	return v
}

// Flatten removes one level of nesting from a list of lists, concatenating
// the sublists in order. It returns an error if v is not a list of lists.
func Flatten(v Value) (Value, error) {
	if v.k != kindList {
		return Value{}, fmt.Errorf("value: flatten of atom")
	}
	var out []Value
	for i, e := range v.list() {
		if e.k != kindList {
			return Value{}, fmt.Errorf("value: flatten: element %d is not a list", i)
		}
		out = append(out, e.list()...)
	}
	return List(out...), nil
}

// Equal reports deep structural equality of two values.
func Equal(a, b Value) bool {
	if a.k != b.k {
		return false
	}
	switch a.k {
	case kindList:
		// Equal canonical texts are equal values; unequal ones may still be
		// (-0.0 and 0.0 encode differently), so only "equal" is decided here.
		if a.lazy != nil && b.lazy != nil && a.s == b.s {
			return true
		}
		ae, be := a.list(), b.list()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if !Equal(ae[i], be[i]) {
				return false
			}
		}
		return true
	case kindString:
		return a.s == b.s
	case kindInt:
		return a.i == b.i
	case kindFloat:
		return a.f == b.f
	case kindBool:
		return a.b == b.b
	}
	return false
}

// AtomCount returns the total number of atoms contained in v.
func (v Value) AtomCount() int {
	if v.k != kindList {
		return 1
	}
	n := 0
	for _, e := range v.list() {
		n += e.AtomCount()
	}
	return n
}

// String renders v in the canonical textual encoding (see Encode).
func (v Value) String() string {
	if v.lazy != nil {
		return v.s
	}
	var sb strings.Builder
	encode(&sb, v)
	return sb.String()
}

// FromJSON converts a decoded encoding/json value (the result of
// json.Unmarshal into any) to a Value: JSON arrays become lists, strings,
// booleans and numbers become atoms (numbers become Int when integral,
// Float otherwise). JSON objects and nulls have no counterpart in the model
// and are rejected.
func FromJSON(v any) (Value, error) {
	switch x := v.(type) {
	case string:
		return Str(x), nil
	case bool:
		return Bool(x), nil
	case float64:
		if x == float64(int64(x)) {
			return Int(int64(x)), nil
		}
		return Float(x), nil
	case []any:
		elems := make([]Value, len(x))
		for i, e := range x {
			ev, err := FromJSON(e)
			if err != nil {
				return Value{}, err
			}
			elems[i] = ev
		}
		return List(elems...), nil
	default:
		return Value{}, fmt.Errorf("value: cannot convert %T to a workflow value", v)
	}
}

// ToJSON converts a value to the encoding/json representation (lists become
// []any, atoms their native Go types).
func ToJSON(v Value) any {
	switch v.k {
	case kindList:
		elems := v.list()
		out := make([]any, len(elems))
		for i, e := range elems {
			out[i] = ToJSON(e)
		}
		return out
	case kindString:
		return v.s
	case kindInt:
		return v.i
	case kindFloat:
		return v.f
	case kindBool:
		return v.b
	}
	return nil
}
