package lexer

import (
	"math/rand"
	"reflect"
	"testing"

	"atgis/internal/at"
)

func collect(q at.State, input string) ([]Token, at.State) {
	var toks []Token
	end := ScanJSON(q, []byte(input), 0, func(t Token) { toks = append(toks, t) })
	return toks, end
}

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestScanJSONStructural(t *testing.T) {
	toks, end := collect(JSONDefault, `{"a": [1, 2], "b": "x"}`)
	want := []Kind{
		KindObjOpen, KindStrBegin, KindStrEnd, KindColon, KindArrOpen,
		KindComma, KindArrClose, KindComma, KindStrBegin, KindStrEnd,
		KindColon, KindStrBegin, KindStrEnd, KindObjClose,
	}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf("kinds = %v, want %v", kinds(toks), want)
	}
	if end != JSONDefault {
		t.Errorf("end state = %d, want Default", end)
	}
	// Offsets are absolute.
	if toks[0].Off != 0 || toks[len(toks)-1].Off != 22 {
		t.Errorf("offsets = %d..%d", toks[0].Off, toks[len(toks)-1].Off)
	}
}

func TestScanJSONStringsHideStructure(t *testing.T) {
	toks, end := collect(JSONDefault, `{"k": "a{b}[c],:"}`)
	// Braces inside the string must not be tokenised.
	want := []Kind{
		KindObjOpen, KindStrBegin, KindStrEnd, KindColon,
		KindStrBegin, KindStrEnd, KindObjClose,
	}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf("kinds = %v, want %v", kinds(toks), want)
	}
	if end != JSONDefault {
		t.Errorf("end = %d", end)
	}
}

func TestScanJSONEscapes(t *testing.T) {
	// \" inside a string must not close it; \\ must not escape the
	// closing quote.
	toks, _ := collect(JSONDefault, `"a\"b"`)
	want := []Kind{KindStrBegin, KindStrEnd}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf(`"a\"b": kinds = %v, want %v`, kinds(toks), want)
	}
	if toks[1].Off != 5 {
		t.Errorf("closing quote offset = %d, want 5", toks[1].Off)
	}
	toks, _ = collect(JSONDefault, `"a\\"`)
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf(`"a\\": kinds = %v`, kinds(toks))
	}
	if toks[1].Off != 4 {
		t.Errorf("closing quote offset = %d, want 4", toks[1].Off)
	}
	// Unterminated escape leaves the lexer mid-escape.
	if _, end := collect(JSONDefault, `"a\`); end != JSONInEscape {
		t.Errorf("end = %d, want InEscape", end)
	}
}

func TestScanJSONFromInString(t *testing.T) {
	// Starting mid-string: everything is content until the quote.
	toks, end := collect(JSONInString, `x{y"}`)
	want := []Kind{KindStrEnd, KindObjClose}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf("kinds = %v, want %v", kinds(toks), want)
	}
	if end != JSONDefault {
		t.Errorf("end = %d", end)
	}
	// Starting mid-escape: first byte is consumed.
	toks, _ = collect(JSONInEscape, `"tail"`)
	// The escaped quote is content; the next quote ends the string.
	want = []Kind{KindStrEnd}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf("escape kinds = %v, want %v", kinds(toks), want)
	}
}

func TestFSTAgreesWithScanJSON(t *testing.T) {
	m := NewJSONFST()
	rng := rand.New(rand.NewSource(21))
	chars := []byte(`{}[]":,\ab1.`)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(80)
		input := make([]byte, n)
		for i := range input {
			input[i] = chars[rng.Intn(len(chars))]
		}
		for _, start := range JSONStartStates() {
			var want []Token
			wantEnd := ScanJSON(start, input, 0, func(t Token) { want = append(want, t) })
			frag := at.RunFragment(m, input, []at.State{start}, 0)
			gotEnd, got, err := frag.Lookup(start)
			if err != nil {
				t.Fatal(err)
			}
			if gotEnd != wantEnd || !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("start %d input %q: FST (%d, %v) != Scan (%d, %v)",
					start, input, gotEnd, got, wantEnd, want)
			}
		}
	}
}

// Split-invariance: lexing blocks speculatively and selecting variants by
// the true chain of states reproduces the sequential token stream.
func TestSpeculativeLexSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	doc := []byte(`{"features": [{"type": "Feature", "properties": {"note": "a \"quoted\" brace {"}, "geometry": {"type": "Point", "coordinates": [1.5, -2.5]}}]}`)
	var want []Token
	ScanJSON(JSONDefault, doc, 0, func(t Token) { want = append(want, t) })

	for trial := 0; trial < 50; trial++ {
		var got []Token
		state := JSONDefault
		for pos := 0; pos < len(doc); {
			size := rng.Intn(20) + 1
			if pos+size > len(doc) {
				size = len(doc) - pos
			}
			variants := LexJSONSpeculative(doc[pos:pos+size], int64(pos))
			v, ok := VariantFor(variants, state)
			if !ok {
				t.Fatalf("state %d not speculated", state)
			}
			got = append(got, v.Tokens...)
			state = v.End
			pos += size
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: token streams differ (%d vs %d tokens)",
				trial, len(got), len(want))
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindObjOpen; k <= KindStrEnd; k++ {
		if k.String() == "?" {
			t.Errorf("Kind %d has no name", k)
		}
	}
	if Kind(0).String() != "?" {
		t.Error("zero Kind should be unknown")
	}
}
