package value

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the canonical textual encoding of values used by the
// provenance store (values are persisted as a single encoded column, exactly
// as the paper's relational implementation stores opaque port values).
//
// Grammar:
//
//	value  = list | string | int | float | bool
//	list   = "[" [ value { "," value } ] "]"
//	string = Go-quoted string literal
//	int    = [ "-" ] digits
//	float  = decimal containing "." or exponent (always printed with one)
//	bool   = "true" | "false"
//
// The encoding is canonical: Encode(Decode(s)) == s for every s that Encode
// produced, and Decode(Encode(v)) == v for every value v.

// Encode renders v in the canonical textual encoding.
func Encode(v Value) string { return v.String() }

func encode(sb *strings.Builder, v Value) {
	switch v.k {
	case kindList:
		if v.lazy != nil {
			sb.WriteString(v.s)
			return
		}
		sb.WriteByte('[')
		for i, e := range v.elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			encode(sb, e)
		}
		sb.WriteByte(']')
	case kindString:
		if quoteSafe(v.s) {
			// Fast path: strconv.Quote escapes nothing in a string of
			// printable ASCII without '"' or '\\', so the quoted form is the
			// string itself — skip Quote's per-rune IsPrint scan, which
			// dominates bulk trace ingestion otherwise.
			sb.WriteByte('"')
			sb.WriteString(v.s)
			sb.WriteByte('"')
		} else {
			sb.WriteString(strconv.Quote(v.s))
		}
	case kindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case kindFloat:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		// Guarantee the float is syntactically distinguishable from an int.
		if !strings.ContainsAny(s, ".eE") || strings.HasPrefix(s, "Inf") ||
			strings.HasPrefix(s, "-Inf") || s == "NaN" {
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
		}
		sb.WriteString(s)
	case kindBool:
		sb.WriteString(strconv.FormatBool(v.b))
	}
}

// plainByte marks the bytes strconv.Quote copies unchanged: printable ASCII
// other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// quoteSafe reports whether strconv.Quote(s) == `"` + s + `"`: every byte is
// printable ASCII and needs no escaping.
func quoteSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// Decode parses a textual encoding from outside the program (tail events,
// workflow JSON defaults, literals) into a fully built value. It accepts the
// spellings the grammar allows beyond the canonical one — whitespace around
// elements, `1e3`, `"\u0041"` — so Encode(Decode(s)) is canonical even when
// s is not.
func Decode(s string) (Value, error) {
	p := decoder{src: s}
	return p.whole()
}

// DecodeStored wraps a payload the provenance store persisted, which is
// canonical because Encode wrote it. An atom is decoded; a list is validated
// in one pass that builds nothing — a malformed payload is rejected here,
// never at first use — and comes back payload-backed (see payload.go).
// Whitespace is not canonical and is rejected, because At later walks the
// text as it stands.
func DecodeStored(payload string) (Value, error) {
	if !strings.HasPrefix(payload, "[") {
		return Decode(payload)
	}
	p := decoder{src: payload, dry: true}
	if _, err := p.whole(); err != nil {
		return Value{}, err
	}
	return payloadList(payload), nil
}

// MustDecode is like Decode but panics on error; for use with literals.
func MustDecode(s string) Value {
	v, err := Decode(s)
	if err != nil {
		panic(err)
	}
	return v
}

type decoder struct {
	src string
	pos int
	// dry makes the pass a validation: lists are checked but not built, and
	// no whitespace is skipped.
	dry bool
}

// whole parses the entire input as one value.
func (p *decoder) whole() (Value, error) {
	var v Value
	if err := p.value(&v); err != nil {
		return Value{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Value{}, fmt.Errorf("value: trailing garbage at offset %d in %q", p.pos, p.src)
	}
	return v, nil
}

func (p *decoder) skipSpace() {
	for !p.dry && p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// value parses the value at p.pos into *out. The parse functions fill a slot
// instead of returning a Value so that a list's elements are built in place.
func (p *decoder) value(out *Value) error {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return fmt.Errorf("value: unexpected end of input")
	}
	switch c := p.src[p.pos]; {
	case c == '[':
		return p.list(out)
	case c == '"':
		return p.quoted(out)
	case c == 't' || c == 'f':
		return p.boolean(out)
	case c == '-' || (c >= '0' && c <= '9'):
		return p.number(out)
	default:
		return fmt.Errorf("value: unexpected character %q at offset %d", c, p.pos)
	}
}

func (p *decoder) list(out *Value) error {
	p.pos++ // consume '['
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ']' {
		p.pos++
		*out = List()
		return nil
	}
	var elems []Value
	if !p.dry {
		// Sized from a count of the separators ahead (exact on well-formed
		// input), so a long list is one allocation, not a chain of regrowths.
		elems = make([]Value, 0, countElems(p.src, p.pos))
	}
	for {
		slot := out // a dry pass keeps nothing: every element lands on out
		if !p.dry {
			elems = append(elems, Value{})
			slot = &elems[len(elems)-1]
		}
		if err := p.value(slot); err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.src) {
			return fmt.Errorf("value: unterminated list")
		}
		switch p.src[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			*out = List(elems...)
			return nil
		default:
			return fmt.Errorf("value: expected ',' or ']' at offset %d", p.pos)
		}
	}
}

func (p *decoder) quoted(out *Value) error {
	src, start := p.src, p.pos
	i := start + 1
	for i < len(src) && plainByte[src[i]] {
		i++
	}
	if i < len(src) && src[i] == '"' {
		// Nothing was escaped (the inverse of encode's quoteSafe fast path):
		// the body is the string, and the value shares the input's storage.
		p.pos = i + 1
		if !p.dry {
			*out = Str(src[start+1 : i])
		}
		return nil
	}
	// Find the end of the Go-quoted literal, honouring escapes.
	for i < len(src) {
		switch src[i] {
		case '\\':
			i += 2
		case '"':
			i++
			p.pos = i
			if p.dry {
				if err := checkQuoted(src[start+1 : i-1]); err != nil {
					return fmt.Errorf("value: bad string literal at offset %d: %v", start, err)
				}
				return nil
			}
			s, err := strconv.Unquote(src[start:i])
			if err != nil {
				return fmt.Errorf("value: bad string literal at offset %d: %v", start, err)
			}
			*out = Str(s)
			return nil
		default:
			i++
		}
	}
	return fmt.Errorf("value: unterminated string literal at offset %d", start)
}

// checkQuoted reports whether strconv.Unquote accepts body between double
// quotes, without building the string.
func checkQuoted(body string) error {
	for len(body) > 0 {
		if body[0] == '\n' {
			return strconv.ErrSyntax
		}
		_, _, tail, err := strconv.UnquoteChar(body, '"')
		if err != nil {
			return err
		}
		body = tail
	}
	return nil
}

func (p *decoder) boolean(out *Value) error {
	if strings.HasPrefix(p.src[p.pos:], "true") {
		p.pos += 4
		*out = Bool(true)
		return nil
	}
	if strings.HasPrefix(p.src[p.pos:], "false") {
		p.pos += 5
		*out = Bool(false)
		return nil
	}
	return fmt.Errorf("value: bad literal at offset %d", p.pos)
}

func (p *decoder) number(out *Value) error {
	start := p.pos
	i := p.pos
	if i < len(p.src) && p.src[i] == '-' {
		i++
	}
	isFloat := false
	for i < len(p.src) {
		c := p.src[i]
		switch {
		case c >= '0' && c <= '9':
			i++
		case c == '.' || c == 'e' || c == 'E':
			isFloat = true
			i++
		case c == '+' || c == '-':
			// Sign inside a number is only valid right after an exponent.
			if i > start && (p.src[i-1] == 'e' || p.src[i-1] == 'E') {
				i++
			} else {
				goto done
			}
		default:
			goto done
		}
	}
done:
	lit := p.src[start:i]
	p.pos = i
	if isFloat {
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return fmt.Errorf("value: bad float literal %q: %v", lit, err)
		}
		*out = Float(f)
		return nil
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return fmt.Errorf("value: bad int literal %q: %v", lit, err)
	}
	*out = Int(n)
	return nil
}
