// Package store implements the relational provenance store of the paper
// (§2.3, §4): xform and xfer events are persisted in indexed tables keyed by
// (run, processor, port, index), so that both the naïve traversal and the
// INDEXPROJ algorithm issue only index-backed point and prefix lookups.
// Those lookups are typed range scans of the embedded engine's indexes
// (internal/reldb), and run writers flush typed row batches into the same
// engine; SQL (the sqlike driver behind database/sql) carries the schema
// and the ad-hoc/admin surface.
package store

import (
	"fmt"

	"repro/internal/value"
)

// Index keys: list indices are stored as strings in a fixed-width dotted
// encoding ("000001.000002." for [1,2], "" for []) chosen so that string
// prefix relationships coincide exactly with index prefix relationships.
// This is what lets a single prefix scan (`idx LIKE '<key>%'`) retrieve every
// event at equal or finer granularity than a query index, with no false positives
// (every component is terminated by '.', so "[1]" can never match "[10]").

const idxComponentWidth = 6

// maxIdxComponent is the largest list position representable in a key.
const maxIdxComponent = 999999

// IdxKey renders an index as its stored key.
func IdxKey(p value.Index) (string, error) {
	if len(p) == 0 {
		return "", nil
	}
	buf := make([]byte, len(p)*(idxComponentWidth+1))
	for i, c := range p {
		if c < 0 || c > maxIdxComponent {
			return "", fmt.Errorf("store: index component %d out of range [0, %d]", c, maxIdxComponent)
		}
		at := i * (idxComponentWidth + 1)
		for j := idxComponentWidth - 1; j >= 0; j-- {
			buf[at+j] = byte('0' + c%10)
			c /= 10
		}
		buf[at+idxComponentWidth] = '.'
	}
	return string(buf), nil
}

// MustIdxKey is IdxKey for indices already validated by construction.
func MustIdxKey(p value.Index) string {
	k, err := IdxKey(p)
	if err != nil {
		panic(err)
	}
	return k
}

// ParseIdxKey decodes a stored key back into an index.
func ParseIdxKey(key string) (value.Index, error) {
	if key == "" {
		return value.Index{}, nil
	}
	if len(key)%(idxComponentWidth+1) != 0 {
		return nil, fmt.Errorf("store: malformed index key %q", key)
	}
	n := len(key) / (idxComponentWidth + 1)
	out := make(value.Index, n)
	for i := 0; i < n; i++ {
		seg := key[i*(idxComponentWidth+1) : (i+1)*(idxComponentWidth+1)]
		if seg[idxComponentWidth] != '.' {
			return nil, fmt.Errorf("store: malformed index key %q: missing separator", key)
		}
		v := 0
		for j := 0; j < idxComponentWidth; j++ {
			c := seg[j]
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("store: malformed index key %q: bad digit", key)
			}
			v = v*10 + int(c-'0')
		}
		out[i] = v
	}
	return out, nil
}
