package reldb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Order-preserving key encoding: composite keys are the concatenation of
// per-column encodings, each prefixed with a type tag, such that
// bytes.Compare on encoded keys agrees with column-wise Datum.Compare.
// The encoding is also prefix-friendly: the encoding of (a) is a byte
// prefix of the encoding of (a, b), which is what index prefix scans rely
// on.
//
// Per-column layout:
//
//	NULL:   0x00
//	int:    0x01 . 8 bytes big-endian with the sign bit flipped
//	float:  0x02 . 8 bytes of sign-adjusted IEEE-754 bits
//	string: 0x03 . escaped bytes . 0x00 0x00   (0x00 escapes to 0x00 0xFF)
//	bytes:  0x04 . escaped bytes . 0x00 0x00
//
// Tag values coincide with the ColType constants shifted to leave 0x00 for
// NULL, so cross-type ordering matches Datum.Compare.

// EncodeKey appends the order-preserving encoding of the datums to dst and
// returns the extended slice.
func EncodeKey(dst []byte, ds ...Datum) []byte {
	for _, d := range ds {
		dst = encodeDatum(dst, d)
	}
	return dst
}

func encodeDatum(dst []byte, d Datum) []byte {
	switch d.t {
	case 0:
		return append(dst, 0x00)
	case TInt:
		dst = append(dst, 0x01)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(d.i)^(1<<63))
		return append(dst, buf[:]...)
	case TFloat:
		dst = append(dst, 0x02)
		f := d.f
		if f == 0 {
			f = 0 // normalize -0.0: Datum.Compare treats it as equal to +0.0
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: flip everything
		} else {
			bits ^= 1 << 63 // positive floats: flip the sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	case TString:
		return append(appendEscaped(append(dst, 0x03), d.s), 0x00, 0x00)
	case TBytes:
		return append(appendEscaped(append(dst, 0x04), d.b), 0x00, 0x00)
	}
	panic(fmt.Sprintf("reldb: cannot encode datum of type %v", d.t))
}

// appendEscaped appends src with every 0x00 escaped and no terminator: the
// body of a string or bytes column, and on its own the partial encoding a
// prefix scan starts from.
func appendEscaped[T string | []byte](dst []byte, src T) []byte {
	start := 0 // src[start:] is not yet appended; runs without 0x00 go in one copy
	for i := 0; i < len(src); i++ {
		if src[i] == 0x00 {
			dst = append(append(dst, src[start:i]...), 0x00, 0xFF)
			start = i + 1
		}
	}
	return append(dst, src[start:]...)
}

// DecodeKey decodes n datums from the front of key, returning them and the
// remaining bytes. It is the inverse of EncodeKey and exists for index
// introspection and tests.
func DecodeKey(key []byte, n int) ([]Datum, []byte, error) {
	out := make([]Datum, 0, n)
	for i := 0; i < n; i++ {
		if len(key) == 0 {
			return nil, nil, fmt.Errorf("reldb: truncated key")
		}
		tag := key[0]
		key = key[1:]
		switch tag {
		case 0x00:
			out = append(out, Null)
		case 0x01:
			if len(key) < 8 {
				return nil, nil, fmt.Errorf("reldb: truncated int key")
			}
			u := binary.BigEndian.Uint64(key[:8]) ^ (1 << 63)
			out = append(out, I(int64(u)))
			key = key[8:]
		case 0x02:
			if len(key) < 8 {
				return nil, nil, fmt.Errorf("reldb: truncated float key")
			}
			bits := binary.BigEndian.Uint64(key[:8])
			if bits&(1<<63) != 0 {
				bits ^= 1 << 63
			} else {
				bits = ^bits
			}
			out = append(out, F(math.Float64frombits(bits)))
			key = key[8:]
		case 0x03, 0x04:
			raw, rest, err := decodeEscaped(key)
			if err != nil {
				return nil, nil, err
			}
			if tag == 0x03 {
				out = append(out, S(string(raw)))
			} else {
				out = append(out, B(raw))
			}
			key = rest
		default:
			return nil, nil, fmt.Errorf("reldb: bad key tag 0x%02x", tag)
		}
	}
	return out, key, nil
}

func decodeEscaped(key []byte) (raw, rest []byte, err error) {
	var out []byte
	for i := 0; i < len(key); i++ {
		if key[i] != 0x00 {
			out = append(out, key[i])
			continue
		}
		if i+1 >= len(key) {
			return nil, nil, fmt.Errorf("reldb: truncated escaped key")
		}
		switch key[i+1] {
		case 0x00:
			return out, key[i+2:], nil
		case 0xFF:
			out = append(out, 0x00)
			i++
		default:
			return nil, nil, fmt.Errorf("reldb: bad escape 0x00 0x%02x", key[i+1])
		}
	}
	return nil, nil, fmt.Errorf("reldb: unterminated escaped key")
}

// PrefixSuccessor returns the smallest byte string greater than every string
// having the given prefix, or nil if no such string exists (the prefix is
// all 0xFF). Index prefix scans cover the half-open range
// [prefix, PrefixSuccessor(prefix)).
func PrefixSuccessor(prefix []byte) []byte { return appendPrefixSuccessor(nil, prefix) }

// appendPrefixSuccessor is PrefixSuccessor built into dst[:0]'s storage.
func appendPrefixSuccessor(dst, prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			dst = append(dst[:0], prefix[:i+1]...)
			dst[i]++
			return dst
		}
	}
	return nil
}
