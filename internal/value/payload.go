package value

import (
	"fmt"
	"sync"
)

// This file implements payload-backed lists: list values that are only the
// canonical text DecodeStored validated. A lineage answer shows one element
// per binding, so the store hands these out and At finds the element by
// skipping over its siblings in the text instead of building all of them.

// lazyList is the memo cell of a payload-backed list. Copies of the Value
// share it, so whoever first needs the built elements decodes them once for
// all copies and all goroutines.
type lazyList struct {
	once  sync.Once
	elems []Value
}

// payloadList wraps validated canonical list text.
func payloadList(text string) Value {
	return Value{k: kindList, s: text, lazy: new(lazyList)}
}

// list returns the elements of a list (nil for an atom), forcing the one
// full decode of a payload-backed list.
func (v Value) list() []Value {
	l := v.lazy
	if l == nil {
		return v.elems
	}
	l.once.Do(func() {
		p := decoder{src: v.s}
		var built Value
		if err := p.value(&built); err != nil {
			panic("value: validated payload does not decode: " + err.Error())
		}
		l.elems = built.elems
	})
	return l.elems
}

// atPayload continues At from step on, inside the text of a payload-backed
// list. Errors arise in the cases, and with the texts, of the built walk.
func (v Value) atPayload(p Index, step int) (Value, error) {
	text := v.s
	for ; step < len(p); step++ {
		if text[0] != '[' {
			return Value{}, fmt.Errorf("value: index %s descends into atom at step %d", p, step)
		}
		elem, n, ok := elemAt(text, p[step])
		if !ok {
			return Value{}, fmt.Errorf("value: index %s out of range at step %d (len %d)", p, step, n)
		}
		text = elem
	}
	if text[0] == '[' {
		return payloadList(text), nil
	}
	d := decoder{src: text}
	var atom Value
	err := d.value(&atom)
	return atom, err
}

// elemAt returns the text of element i of validated list text, or ok=false
// and the list's length when i is out of range.
func elemAt(list string, i int) (elem string, n int, ok bool) {
	if list[1] == ']' {
		return "", 0, false
	}
	for pos := 1; ; n++ {
		end := skipValue(list, pos)
		if n == i {
			return list[pos:end], 0, true
		}
		if list[end] == ']' {
			return "", n + 1, false
		}
		pos = end + 1
	}
}

// countElems counts the elements of the list whose first element starts at
// src[pos]. Decode sizes slices with it before validating anything, so on
// malformed input it is only a guess, bounded by the separators present.
func countElems(src string, pos int) int {
	for n := 1; ; n++ {
		pos = skipValue(src, pos)
		if pos >= len(src) || src[pos] != ',' {
			return n
		}
		pos++
	}
}

// skipValue returns the offset just past the value starting at src[pos]: past
// a list's matching ']', a string's closing quote, or a literal's last byte.
// It never validates; on text that is not well-formed it still terminates
// inside src.
func skipValue(src string, pos int) int {
	depth := 0
	for pos < len(src) {
		switch src[pos] {
		case '"':
			for pos++; ; pos++ {
				for pos < len(src) && plainByte[src[pos]] {
					pos++
				}
				if pos >= len(src) || src[pos] == '"' {
					break
				}
				if src[pos] == '\\' {
					pos++
				}
			}
			if depth == 0 {
				return min(pos+1, len(src))
			}
		case '[':
			depth++
		case ']':
			if depth == 0 {
				return pos
			}
			if depth--; depth == 0 {
				return pos + 1
			}
		case ',':
			if depth == 0 {
				return pos
			}
		}
		pos++
	}
	return len(src)
}
