package lexer

import (
	"strings"
	"testing"
)

// summaryCorpus is hostile to a lexer summary: escaped quotes and
// backslash runs of either parity that every cut falls into, strings that
// open a block, a lone trailing backslash, CRLF, a string that never
// closes.
var summaryCorpus = []string{
	``, `"`, `\`, `a`, `""`, `\\`, `\"`, `"\`, `"\\`, `"\\\`, `"\\\"`, `"\\\\"`,
	`{"k":"v"}`, `{"k\"":"v\\","w":"\\\"x"}`, `"a\\\\\\\\\\"]`, `"a\\\\\\\\\"]`,
	"{\r\n\"a\" :\r\n\"b\\\r\n\"\r\n}", `{"open":"never closed [1,2] {`, `]}"tail`,
	`\\\\\\\\`, `""""""""`, `"\"\"\"\"`, `""x\"`,
	`{"type":"Feature","properties":{"note":"]}[{ \"type\": \"Feature\" \\"},"geometry":{"type":"Point","coordinates":[1.5,-2]}}`,
}

// checkSummary holds SummarizeJSON over doc[from:to) to the two runs that
// emit tokens, for every start state.
func checkSummary(t *testing.T, s *Speculator, doc []byte, from, to int) {
	t.Helper()
	block := doc[from:to]
	variants := s.Lex(block, int64(from))
	covered := 0
	for _, v := range variants {
		covered += len(v.Starts)
	}
	if covered != len(JSONStartStates()) {
		t.Fatalf("%q[%d:%d]: Lex covers %d start states", doc, from, to, covered)
	}
	for _, q := range JSONStartStates() {
		got := SummarizeJSON(q, block)
		var toks []Token
		if want := ScanJSON(q, block, int64(from), func(tk Token) { toks = append(toks, tk) }); got != want {
			t.Fatalf("%q[%d:%d] from state %d: summary ends in %d, ScanJSON in %d", doc, from, to, q, got, want)
		}
		v, ok := VariantFor(variants, q)
		if !ok || v.End != got {
			t.Fatalf("%q[%d:%d] from state %d: summary ends in %d, Lex's variant (found %v) in %d", doc, from, to, q, got, ok, v.End)
		}
		// The variant a state shares is that state's own run.
		if len(toks) != len(v.Tokens) {
			t.Fatalf("%q[%d:%d] from state %d: variant has %d tokens, the state's run %d", doc, from, to, q, len(v.Tokens), len(toks))
		}
		for i := range toks {
			if toks[i] != v.Tokens[i] {
				t.Fatalf("%q[%d:%d] from state %d: token %d is %v, the state's run has %v", doc, from, to, q, i, v.Tokens[i], toks[i])
			}
		}
	}
}

// TestSummarizeJSONDifferential: the tokenless summary is ScanJSON's
// finishing state and the End of Speculator.Lex's variant, for every start
// state and every block [from, to) of a hostile corpus — empty and one-byte
// blocks, blocks whose first byte is a quote or a backslash — and it
// composes across every cut.
func TestSummarizeJSONDifferential(t *testing.T) {
	s := new(Speculator)
	for _, c := range summaryCorpus {
		doc := []byte(c)
		for from := 0; from <= len(doc); from++ {
			for to := from; to <= len(doc); to++ {
				checkSummary(t, s, doc, from, to)
			}
		}
		for _, q := range JSONStartStates() {
			whole := SummarizeJSON(q, doc)
			for cut := 0; cut <= len(doc); cut++ {
				if got := SummarizeJSON(SummarizeJSON(q, doc[:cut]), doc[cut:]); got != whole {
					t.Fatalf("%q from state %d: cut at %d composes to %d, the whole is %d", c, q, cut, got, whole)
				}
			}
		}
	}
}

// TestSummarizeJSONStrides composes the summary over a real document at
// fixed strides against the states ScanJSON passes through.
func TestSummarizeJSONStrides(t *testing.T) {
	doc := []byte(strings.Repeat(string(allocInput())+"\r\n", 40))
	for _, stride := range []int{1, 7, 13, 1000, 1 << 20} {
		q, ref := JSONDefault, JSONDefault
		for off := 0; off < len(doc); off += stride {
			end := min(off+stride, len(doc))
			q = SummarizeJSON(q, doc[off:end])
			ref = ScanJSON(ref, doc[off:end], int64(off), func(Token) {})
			if q != ref {
				t.Fatalf("stride %d: state %d at offset %d, ScanJSON is in %d", stride, q, end, ref)
			}
		}
		if q != JSONDefault {
			t.Fatalf("stride %d: the document ends in state %d", stride, q)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { SummarizeJSON(JSONDefault, doc) }); allocs != 0 {
		t.Errorf("SummarizeJSON allocates %.1f per run, want 0", allocs)
	}
}

// TestLexFirstByteRule: the in-escape start shares the in-string variant
// exactly when the block's first byte lets it.
func TestLexFirstByteRule(t *testing.T) {
	for block, want := range map[string]int{
		``: 3, `"x"`: 3, `\"x"`: 3, `\\`: 3, `x"y"`: 2, `[1, 2]`: 2, ` `: 2, "\n\"": 2,
	} {
		variants := LexJSONSpeculative([]byte(block), 0)
		if len(variants) != want {
			t.Errorf("%q: %d variants, want %d", block, len(variants), want)
		}
		if v, _ := VariantFor(variants, JSONInEscape); (len(v.Starts) == 2) != (want == 2) {
			t.Errorf("%q: the in-escape start is covered by %v", block, v.Starts)
		}
	}
}

// FuzzLexSummary: any bytes cut anywhere summarise as they scan.
func FuzzLexSummary(f *testing.F) {
	for i, c := range summaryCorpus {
		f.Add([]byte(c), uint16(i))
	}
	s := new(Speculator)
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		k := int(cut) % (len(data) + 1)
		checkSummary(t, s, data, 0, k)
		checkSummary(t, s, data, k, len(data))
		for _, q := range JSONStartStates() {
			if got, whole := SummarizeJSON(SummarizeJSON(q, data[:k]), data[k:]), SummarizeJSON(q, data); got != whole {
				t.Fatalf("from state %d: cut at %d composes to %d, the whole is %d", q, k, got, whole)
			}
		}
	})
}
