package value

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// storedValue builds values of the shapes a store may hold: mixed-depth
// lists up to depth 5, empty lists, strings that need escaping, and floats
// including -0.0.
func storedValue(rng *rand.Rand, depth int) Value {
	if depth == 0 || rng.Intn(5) == 0 {
		switch rng.Intn(5) {
		case 0:
			return Str(randomString(rng))
		case 1:
			return Str(strings.Repeat("é[,]\"\\\x01", rng.Intn(3)) + "plain")
		case 2:
			return Int(rng.Int63() - rng.Int63())
		case 3:
			return Float([]float64{math.Copysign(0, -1), 0, 1.5, -2e300, 1e-7, 3}[rng.Intn(6)])
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	elems := make([]Value, rng.Intn(4))
	for i := range elems {
		elems[i] = storedValue(rng, depth-1)
	}
	return List(elems...)
}

// checkStoredAgrees asserts that DecodeStored(s), when it accepts s, behaves
// as Decode(s) under every accessor and the given index paths, error-ness
// included; and that it accepts every canonical s.
func checkStoredAgrees(t *testing.T, s string, paths []Index) {
	t.Helper()
	eager, eagerErr := Decode(s)
	stored, err := DecodeStored(s)
	canonical := eagerErr == nil && Encode(eager) == s
	if err != nil {
		if canonical {
			t.Fatalf("DecodeStored rejected canonical %q: %v", s, err)
		}
		return
	}
	if eagerErr != nil {
		t.Fatalf("DecodeStored accepted %q, Decode says %v", s, eagerErr)
	}
	// Paths first: At must not depend on the list having been forced.
	for _, p := range paths {
		want, wantErr := eager.At(p)
		got, gotErr := stored.At(p)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q At(%s): payload-backed err %v, built err %v", s, p, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q At(%s): error %q, want %q", s, p, gotErr, wantErr)
			}
			continue
		}
		if !Equal(got, want) || !Equal(want, got) || Encode(got) != Encode(want) && canonical {
			t.Fatalf("%q At(%s) = %s, want %s", s, p, got, want)
		}
	}
	again, _ := DecodeStored(s)
	if !Equal(stored, again) || !Equal(stored, eager) || !Equal(eager, stored) {
		t.Fatalf("%q: Equal disagrees between representations", s)
	}
	if canonical && (Encode(stored) != s || stored.String() != s) {
		t.Fatalf("%q re-encodes to %q", s, Encode(stored))
	}
	if stored.IsList() != eager.IsList() || stored.IsAtom() != eager.IsAtom() ||
		stored.Len() != eager.Len() || stored.Depth() != eager.Depth() ||
		stored.AtomCount() != eager.AtomCount() || stored.AtomString() != eager.AtomString() ||
		stored.Handle().Valid() != eager.Handle().Valid() ||
		(stored.CheckUniform() == nil) != (eager.CheckUniform() == nil) {
		t.Fatalf("%q: scalar accessors disagree", s)
	}
	if !reflect.DeepEqual(ToJSON(stored), ToJSON(eager)) {
		t.Fatalf("%q: ToJSON disagrees", s)
	}
	for n := 0; n <= 3; n++ {
		if !reflect.DeepEqual(stored.Indices(n), eager.Indices(n)) {
			t.Fatalf("%q: Indices(%d) disagree", s, n)
		}
	}
	for i, e := range stored.Elems() {
		if !Equal(e, eager.Elems()[i]) {
			t.Fatalf("%q: element %d = %s, want %s", s, i, e, eager.Elems()[i])
		}
	}
	gotFlat, gotErr := Flatten(stored)
	wantFlat, wantErr := Flatten(eager)
	if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !Equal(gotFlat, wantFlat) {
		t.Fatalf("%q: Flatten disagrees", s)
	}
	if w := Wrap(stored, 1); !Equal(w, Wrap(eager, 1)) || Encode(w) != Encode(Wrap(eager, 1)) && canonical {
		t.Fatalf("%q: a payload-backed list nested in a built one disagrees", s)
	}
}

// randomPaths mixes valid-looking paths with out-of-range, negative and
// too-deep ones.
func randomPaths(rng *rand.Rand, n int) []Index {
	paths := []Index{EmptyIndex}
	for ; n > 0; n-- {
		p := make(Index, rng.Intn(7))
		for i := range p {
			p[i] = rng.Intn(5) - 1
		}
		paths = append(paths, p)
	}
	return paths
}

func TestStoredAgreesWithDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		checkStoredAgrees(t, Encode(storedValue(rng, rng.Intn(6))), randomPaths(rng, 8))
	}
	// Texts differ, values do not: the string compare may only say "equal".
	neg, _ := DecodeStored("[[-0.0],1]")
	pos, _ := DecodeStored("[[0.0],1]")
	if !Equal(neg, pos) {
		t.Error("[-0.0] and [0.0] compare unequal when payload-backed")
	}
}

func FuzzStoredValue(f *testing.F) {
	for _, s := range []string{
		`[]`, `[[]]`, `[[],[]]`, `["a","b"]`, `[["x,y]","\"\\"],[1,-2,3.5,true]]`, `[-0.0,0.0]`,
		`"atom"`, `7`, `[1, 2]`, `[1e3]`, `["A"]`, `["日本"]`, `[`, `["`, `[1]]`, `[tru]`, `[1,]`,
	} {
		f.Add(s, int8(0), int8(1), int8(-1))
	}
	f.Fuzz(func(t *testing.T, s string, a, b, c int8) {
		checkStoredAgrees(t, s, []Index{{}, {int(a)}, {int(a), int(b)}, {int(c), int(a), int(b)}, {int(b), int(c), 0, 0, 0, 0}})
	})
}

func TestStoredRejectsMalformedAtConstruction(t *testing.T) {
	for _, s := range []string{
		`[`, `[1`, `[[1]`, `[1,`, `[1,]`, `[,1]`, `["open]`, `["a\"]`, `[1]]`, `[1]x`, `[] `,
		`[tru]`, `[falsey]`, `[nope]`, `[1.2.3]`, `[1e]`, `[--1]`, `[99999999999999999999]`, `[1e999]`,
		`["\q"]`, "[\"a\nb\"]", `[1 ,2]`, `[ 1]`, `[NaN.0]`, `[+Inf.0]`,
	} {
		if v, err := DecodeStored(s); err == nil {
			t.Errorf("DecodeStored(%q) accepted as %s", s, v)
		}
	}
}

func TestDecodeNormalizesOutsideSpellings(t *testing.T) {
	for in, want := range map[string]string{
		`[1, 2]`: `[1,2]`, `1e3`: `1000.0`, `"A"`: `"A"`, "[ [\t] ,\n[ \"a\" ] ]": `[[],["a"]]`,
		`["\x41é"]`: `["Aé"]`, `[2e0,-0]`: `[2.0,0]`,
	} {
		if got := Encode(MustDecode(in)); got != want {
			t.Errorf("Encode(Decode(%q)) = %q, want %q", in, got, want)
		}
	}
}

// One payload-backed value shared by many goroutines is decoded once: every
// reader, through its own copy, ends up on the same backing array.
func TestStoredSharedForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		want := List(storedValue(rng, 3), storedValue(rng, 2), Str("tail"))
		shared, err := DecodeStored(Encode(want))
		if err != nil {
			t.Fatal(err)
		}
		const readers = 8
		handles := make([]Handle, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int, v Value) {
				defer wg.Done()
				switch g % 4 {
				case 0:
					_ = v.Len()
				case 1:
					_ = v.Depth()
				case 2:
					_ = ToJSON(v)
				default:
					if el, err := v.At(Ix(2)); err != nil || !Equal(el, Str("tail")) {
						t.Errorf("At(2) = %s, %v", el, err)
					}
				}
				if !Equal(v, want) {
					t.Errorf("reader %d sees %s, want %s", g, v, want)
				}
				handles[g] = v.Handle()
			}(g, shared)
		}
		wg.Wait()
		for g, h := range handles {
			if h != handles[0] || !h.Valid() {
				t.Fatalf("reader %d forced its own decode", g)
			}
		}
	}
}

func TestStoredAllocations(t *testing.T) {
	payload := Encode(List(Strs("alpha", "beta", "gamma"), Ints(1, 2, 3)))
	var v, el Value
	path := Ix(0, 2)
	if n := testing.AllocsPerRun(100, func() { v, _ = DecodeStored(payload) }); n != 1 {
		t.Errorf("DecodeStored of a list: %v allocations, want 1 (the memo cell)", n)
	}
	if n := testing.AllocsPerRun(100, func() { el, _ = v.At(path) }); n != 0 {
		t.Errorf("At of an atom: %v allocations, want 0", n)
	}
	if s, _ := el.StringVal(); s != "gamma" {
		t.Errorf("At(0,2) = %s", el)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Encode(v) }); n != 0 {
		t.Errorf("Encode: %v allocations, want 0", n)
	}
	_ = v.Len() // forces the decode; later accessors only read the memo
	if n := testing.AllocsPerRun(100, func() { _ = v.Len() + v.Depth() }); n != 0 {
		t.Errorf("accessors of a forced list: %v allocations, want 0", n)
	}
}
