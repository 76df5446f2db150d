// Package lexer provides the byte-level finite-state transducers that
// form the first stage of every AT-GIS pipeline (paper §4.4(1)).
//
// The JSON lexer extracts the structural skeleton of a block: braces,
// brackets, commas, colons and string boundaries. It has three states —
// Default, InString and InEscape — so fully-associative execution only
// speculates over three starting states, and speculative runs converge at
// the first unescaped quote (paper §3.3: format structure bounds the
// start-state set).
//
// The engine does not speculate over them at all: the state at a block
// start is a function of the quotes and backslashes before it, which
// SummarizeJSON reads an order of magnitude faster than any run that emits
// tokens, so the FAT splitter composes it cut by cut and each block is
// extracted once, from its true state (atgis.fatDriver). Speculator is the
// reference model of the three-way speculation and the oracle the summary
// is tested against.
//
// Primitive values (numbers, literals) are not tokenised; downstream
// extraction reads them from the raw input between structural tokens,
// which keeps the lexer's transition table minimal and is exactly the
// separation AT-GIS uses between structural parsing and the point-parser
// SLT.
package lexer

import (
	"bytes"
	"sync"

	"atgis/internal/at"
)

// JSON lexer states.
const (
	JSONDefault at.State = iota
	JSONInString
	JSONInEscape
	jsonNumStates
)

// Kind classifies a structural token.
type Kind uint8

// Structural token kinds.
const (
	KindObjOpen Kind = iota + 1
	KindObjClose
	KindArrOpen
	KindArrClose
	KindComma
	KindColon
	KindStrBegin // offset of the quote opening a string
	KindStrEnd   // offset of the quote closing a string
)

func (k Kind) String() string {
	switch k {
	case KindObjOpen:
		return "{"
	case KindObjClose:
		return "}"
	case KindArrOpen:
		return "["
	case KindArrClose:
		return "]"
	case KindComma:
		return ","
	case KindColon:
		return ":"
	case KindStrBegin:
		return `"…`
	case KindStrEnd:
		return `…"`
	default:
		return "?"
	}
}

// Token is one structural symbol with its absolute input offset.
type Token struct {
	Kind Kind
	Off  int64
}

// JSONStartStates returns the full speculative start-state set.
func JSONStartStates() []at.State {
	return []at.State{JSONDefault, JSONInString, JSONInEscape}
}

// jsonStructural maps a byte to its structural token kind in the
// default state (0 = not structural), letting the default-state loop
// classify with one table load per byte.
var jsonStructural = [256]Kind{
	'{': KindObjOpen, '}': KindObjClose,
	'[': KindArrOpen, ']': KindArrClose,
	',': KindComma, ':': KindColon,
	'"': KindStrBegin,
}

// ScanJSON lexes block starting in state q, emitting structural tokens
// with offsets relative to baseOff. It returns the finishing state. This
// is the hand-specialised ("compiled", in the paper's g++ sense) form of
// the table-driven FST below; both implementations are kept and
// cross-checked by tests.
//
// The default state classifies bytes through a 256-entry table; the
// in-string state skips payload bytes with bytes.IndexByte (memchr), so
// long string runs cost a vectorised scan instead of a byte-at-a-time
// state machine.
//
//atgis:hotpath
func ScanJSON(q at.State, block []byte, baseOff int64, emit func(Token)) at.State {
	n := len(block)
	i := 0
	for i < n {
		switch q {
		case JSONDefault:
			for i < n {
				k := jsonStructural[block[i]]
				if k == 0 {
					i++
					continue
				}
				emit(Token{k, baseOff + int64(i)})
				i++
				if k == KindStrBegin {
					q = JSONInString
					break
				}
			}
		case JSONInString:
			quote, end := scanJSONString(block, i)
			if end == JSONDefault {
				emit(Token{KindStrEnd, baseOff + int64(quote)})
			}
			q, i = end, quote+1
		case JSONInEscape:
			q = JSONInString
			i++
		}
	}
	return q
}

// ScanJSONResume is ScanJSON for consumers that parse some values
// themselves (the GeoJSON machine's fused coordinate scanner): emit
// returns the absolute offset at which lexing resumes, and any value not
// past the token just emitted means "the next byte". The consumer may
// only skip whole JSON values, so the lexer resumes in the default state;
// an offset at or past the block end stops the scan.
//
//atgis:hotpath
func ScanJSONResume(q at.State, block []byte, baseOff int64, emit func(Token) int64) at.State {
	n := len(block)
	i := 0
	for i < n {
		switch q {
		case JSONDefault:
			for i < n {
				k := jsonStructural[block[i]]
				if k == 0 {
					i++
					continue
				}
				resume := emit(Token{k, baseOff + int64(i)}) - baseOff
				i++
				if resume > int64(i) {
					i = n
					if resume < int64(n) {
						i = int(resume)
					}
					continue
				}
				if k == KindStrBegin {
					q = JSONInString
					break
				}
			}
		case JSONInString:
			quote, end := scanJSONString(block, i)
			if end == JSONDefault {
				emit(Token{KindStrEnd, baseOff + int64(quote)})
			}
			q, i = end, quote+1
		case JSONInEscape:
			q = JSONInString
			i++
		}
	}
	return q
}

// scanJSONString consumes string payload from block[i:], the lexer being
// inside a string at i. It returns the index of the closing quote and
// JSONDefault, or len(block)-1 and the in-string or in-escape state the
// block ends in when the string does not close.
func scanJSONString(block []byte, i int) (int, at.State) {
	n := len(block)
	for i < n {
		j := bytes.IndexByte(block[i:], '"')
		if j < 0 {
			// No closing quote in this block: consume the tail,
			// tracking escape parity for the finishing state.
			for s := i; ; {
				e := bytes.IndexByte(block[s:], '\\')
				if e < 0 {
					break
				}
				if s+e == n-1 {
					// A trailing backslash leaves the block in the
					// escape state.
					return n - 1, JSONInEscape
				}
				s += e + 2
			}
			break
		}
		// Walk the escapes in [i, i+j) without re-finding the quote (a
		// re-scan per escape is quadratic on escape-dense strings). Each
		// escape consumes two bytes; one may consume the candidate quote
		// itself.
		quote := i + j
		escaped := false
		for s := i; ; {
			e := bytes.IndexByte(block[s:quote], '\\')
			if e < 0 {
				break
			}
			if s+e+1 == quote {
				escaped = true
				break
			}
			s += e + 2
		}
		if !escaped {
			return quote, JSONDefault
		}
		i = quote + 1 // the quote was \" payload; keep scanning
	}
	return n - 1, JSONInString
}

// SummarizeJSON is ScanJSON without the tokens: the state a lexer started
// in q finishes block in. Only quotes and backslashes move the lexer
// between states, and between two backslashes every quote is a real one,
// so the summary walks from backslash to backslash (bytes.IndexByte),
// flips between default and in-string on the parity of the quotes in
// between (bytes.Count), and at each backslash knows whether it sits in a
// string, where it escapes the next byte, or outside one, where it is a
// byte like any other — no byte is classified and nothing is emitted.
// Summaries compose like the scans they stand for: the result over one
// block is the start state of the next.
//
//atgis:hotpath
func SummarizeJSON(q at.State, block []byte) at.State {
	n := len(block)
	i := 0
	if q == JSONInEscape && n > 0 {
		q, i = JSONInString, 1
	}
	for i < n {
		// A stretch short enough to still be in cache for the second look.
		seg := block[i:min(i+summaryStretch, n)]
		esc := bytes.IndexByte(seg, '\\')
		if esc >= 0 {
			seg = seg[:esc]
		}
		if bytes.Count(seg, jsonQuote)&1 == 1 {
			q = JSONInString - q // default <-> in-string
		}
		i += len(seg)
		if esc < 0 {
			continue
		}
		if q == JSONDefault {
			i++
			continue
		}
		if i+1 == n {
			return JSONInEscape
		}
		i += 2
	}
	return q
}

const summaryStretch = 16 << 10

var jsonQuote = []byte{'"'}

// JSONEscapeAsString reports whether a lexer started in the in-escape state
// does over block exactly what one started in the in-string state does.
// The escaped byte is string payload either way unless it is a quote, which
// only the in-string run takes for the closing one, or a backslash, which
// only the in-string run takes for the start of an escape; an empty block
// leaves each run in its own state.
func JSONEscapeAsString(block []byte) bool {
	return len(block) > 0 && block[0] != '"' && block[0] != '\\'
}

// NewJSONFST builds the table-driven FST equivalent of ScanJSON, used by
// the at-framework tests and as the reference model.
func NewJSONFST() *at.FST[Token] {
	m := &at.FST[Token]{NumStates: int(jsonNumStates), Start: JSONDefault}
	m.Delta = make([][256]at.State, jsonNumStates)
	for b := 0; b < 256; b++ {
		m.Delta[JSONDefault][b] = JSONDefault
		m.Delta[JSONInString][b] = JSONInString
		m.Delta[JSONInEscape][b] = JSONInString
	}
	m.Delta[JSONDefault]['"'] = JSONInString
	m.Delta[JSONInString]['"'] = JSONDefault
	m.Delta[JSONInString]['\\'] = JSONInEscape
	m.Emit = func(q at.State, b byte, off int64) (Token, bool) {
		switch q {
		case JSONDefault:
			switch b {
			case '{':
				return Token{KindObjOpen, off}, true
			case '}':
				return Token{KindObjClose, off}, true
			case '[':
				return Token{KindArrOpen, off}, true
			case ']':
				return Token{KindArrClose, off}, true
			case ',':
				return Token{KindComma, off}, true
			case ':':
				return Token{KindColon, off}, true
			case '"':
				return Token{KindStrBegin, off}, true
			}
		case JSONInString:
			if b == '"' {
				return Token{KindStrEnd, off}, true
			}
		}
		return Token{}, false
	}
	return m
}

// JSONVariant is the result of lexing one block from one or more
// speculated starting states whose runs are the same run (the paper's
// convergence property, §3.1, lets converged runs share one tape).
type JSONVariant struct {
	// Starts lists every speculated start state covered by this variant.
	Starts []at.State
	// End is the finishing state.
	End at.State
	// Tokens is the shared structural token stream.
	Tokens []Token
}

// Speculator lexes blocks from every starting state while reusing its
// token and variant buffers across calls, so steady-state speculative
// lexing allocates nothing. The returned variants (and their token
// slices) are valid until the next Lex call; callers that need them
// longer must copy.
type Speculator struct {
	toks     [3][]Token
	starts   [3][]at.State
	variants []JSONVariant
}

// Lex lexes block from the full start-state set. The default-state run
// shares nothing with the other two — its first quote opens a string where
// theirs closes one, and with no quote at all it ends in another state —
// and the in-escape run is the in-string run unless the block's first byte
// tells them apart (JSONEscapeAsString), so most blocks cost two scans and
// give two variants.
func (s *Speculator) Lex(block []byte, baseOff int64) []JSONVariant {
	s.variants = s.variants[:0]
	for si, start := range JSONStartStates() {
		if start == JSONInEscape && JSONEscapeAsString(block) {
			v := &s.variants[len(s.variants)-1]
			v.Starts = append(v.Starts, start)
			break
		}
		toks := s.toks[si][:0]
		end := ScanJSON(start, block, baseOff, func(t Token) { toks = append(toks, t) })
		s.toks[si] = toks
		s.starts[si] = append(s.starts[si][:0], start)
		s.variants = append(s.variants, JSONVariant{Starts: s.starts[si], End: end, Tokens: toks})
	}
	return s.variants
}

var speculatorPool = sync.Pool{New: func() any { return new(Speculator) }}

// AcquireSpeculator returns a pooled Speculator; pair with
// ReleaseSpeculator once the variants of the last Lex are consumed.
func AcquireSpeculator() *Speculator { return speculatorPool.Get().(*Speculator) }

// ReleaseSpeculator recycles s and the buffers backing its variants.
func ReleaseSpeculator(s *Speculator) { speculatorPool.Put(s) }

// LexJSONSpeculative lexes a block from every starting state,
// deduplicating runs that converge to identical token streams. The
// result remains valid indefinitely; hot paths should prefer a pooled
// Speculator, which reuses buffers between blocks.
func LexJSONSpeculative(block []byte, baseOff int64) []JSONVariant {
	return new(Speculator).Lex(block, baseOff)
}

// VariantFor returns the variant valid when the block's true starting
// state is q, or false if q was not speculated.
func VariantFor(variants []JSONVariant, q at.State) (JSONVariant, bool) {
	for _, v := range variants {
		for _, s := range v.Starts {
			if s == q {
				return v, true
			}
		}
	}
	return JSONVariant{}, false
}
