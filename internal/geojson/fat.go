package geojson

import (
	"bytes"
	"fmt"

	"atgis/internal/at"
	"atgis/internal/lexer"
)

// Fully-associative execution (paper §3.2–3.3): a block may start
// anywhere, so two things about its first byte are unknown — the lexer
// state and the pushdown stack. Only the stack is speculated over. The
// lexer state is a function of the quotes and backslashes before the
// block, which lexer.SummarizeJSON reads far faster than anything that
// extracts, so a caller that walks the blocks in order composes it and has
// each block run once, from its true state (ProcessBlockFATFrom); a caller
// that cannot gets one run per distinct start state (ProcessBlockFAT) and
// the fold picks. Either way a run is the machine scanning the block's
// bytes itself, exactly as PAT blocks and the sequential parser do: fused
// coordinate scan, reject before build, no token tape.

// BlockVariant is the result of fully-associative extraction over one
// block under one family of lexer start states.
type BlockVariant struct {
	// LexEnd is the lexer finishing state.
	LexEnd at.State
	// state is the detached machine payload at block end: lexer start
	// states, deferred spec tape, buffered features and open local
	// frames. It is pooled; the fold releases it after merging.
	state *specState
}

// LexStarts lists the lexer start states covered by this variant.
func (v BlockVariant) LexStarts() []at.State { return v.state.lexStarts }

// BlockResult is the fully-associative fragment of one input block: the
// composite of the lexer FST fragment and the downstream extraction
// fragments, predicated on the lexer starting state exactly as §3.2
// prescribes for transducer composition. It holds what the block's
// features and deferred events take, never anything per token.
type BlockResult struct {
	Start, End int64
	Variants   []BlockVariant
}

// ProcessBlockFAT extracts one block for a caller that does not know the
// lexer state at its start: one speculative run per distinct start state.
// The in-escape run is the in-string run unless the block's first byte
// tells them apart (lexer.JSONEscapeAsString), so that is two runs for
// nearly every block. The extraction machine is pooled and reused across
// runs and blocks; only the per-variant payload that must travel to the
// ordered merge is detached into pooled state objects.
func ProcessBlockFAT(input []byte, start, end int64, cfg *Config) BlockResult {
	m := acquireSpecMachine(input, cfg)
	out := BlockResult{Start: start, End: end}
	if lexer.JSONEscapeAsString(input[start:end]) {
		out.Variants = append(make([]BlockVariant, 0, 2),
			m.specRun(start, end, lexer.JSONDefault),
			m.specRun(start, end, lexer.JSONInString, lexer.JSONInEscape))
	} else {
		out.Variants = append(make([]BlockVariant, 0, 3),
			m.specRun(start, end, lexer.JSONDefault),
			m.specRun(start, end, lexer.JSONInString),
			m.specRun(start, end, lexer.JSONInEscape))
	}
	releaseSpecMachine(m)
	return out
}

// ProcessBlockFATFrom extracts one block whose lexer start state q the
// caller knows — it summarised the bytes before it — in a single run.
func ProcessBlockFATFrom(input []byte, start, end int64, q at.State, cfg *Config) BlockResult {
	m := acquireSpecMachine(input, cfg)
	v := m.specRun(start, end, q)
	releaseSpecMachine(m)
	return BlockResult{Start: start, End: end, Variants: append(make([]BlockVariant, 0, 1), v)}
}

// specRun is one speculative run over input[start:end): the lexer starts
// in starts[0], the pushdown stack under the block is unknown. The other
// starts are states whose run this one also is.
func (m *Machine) specRun(start, end int64, starts ...at.State) BlockVariant {
	m.resetSpecRun(start)
	if starts[0] != lexer.JSONDefault {
		// Starting mid-string: content before the first StrEnd token is
		// string payload, never a primitive gap.
		m.strOpen = -2 // sentinel: open string with unknown begin
	}
	lexEnd := m.scan(starts[0], start, end)
	return BlockVariant{LexEnd: lexEnd, state: m.detachState(starts)}
}

// Release returns every variant's detached state to the pool. Fold.Add
// releases merged blocks automatically; only callers consuming raw
// BlockResults (tests, custom folds) need to call it, and must not touch
// the variants afterwards.
func (br BlockResult) Release() {
	for i := range br.Variants {
		releaseSpecState(br.Variants[i].state)
		br.Variants[i].state = nil
	}
}

// variantFor selects the block variant valid for lexer start state q.
func variantFor(br BlockResult, q at.State) (BlockVariant, bool) {
	for _, v := range br.Variants {
		for _, s := range v.state.lexStarts {
			if s == q {
				return v, true
			}
		}
	}
	return BlockVariant{}, false
}

// Fold merges FAT block results in input order. Merging replays each
// block's deferred spec tape into the accumulated resolved machine
// (resolving the paper's start-state-predicated outputs), validates the
// block's speculatively anchored features against the now-known context,
// and grafts the block's open local frames so boundary-spanning features
// continue seamlessly.
type Fold struct {
	input []byte
	m     *Machine
	lex   at.State
	sink  func(FeatureOut)

	// Reprocessed counts blocks that were re-parsed with full context
	// (paper §3.5's fallback): those whose speculation was invalidated and
	// the one a structural error stopped.
	Reprocessed int
	err         error
	shadow      []shadowFrame // validate's stack, reused across blocks
}

// NewFold starts an empty fold over the shared input buffer.
func NewFold(input []byte, cfg *Config, sink func(FeatureOut)) *Fold {
	return &Fold{
		input: input,
		m:     NewResolvedMachine(input, cfg, sink),
		lex:   lexer.JSONDefault,
		sink:  sink,
	}
}

// Err returns the first error encountered by the fold.
func (fd *Fold) Err() error {
	if fd.err != nil {
		return fd.err
	}
	return fd.m.Err()
}

// Add merges the next block result (blocks must arrive in input order)
// and recycles the block's detached variant states.
func (fd *Fold) Add(br BlockResult) {
	defer br.Release()
	if fd.Err() != nil {
		return
	}
	v, ok := variantFor(br, fd.lex)
	if !ok {
		fd.err = fmt.Errorf("geojson: lexer state %d not speculated for block at %d", fd.lex, br.Start)
		return
	}
	st := v.state
	if st.err != nil || !fd.validate(v) {
		// The run stopped at a structural error, which cut its tape and its
		// features short, or its speculation is invalidated (e.g. a real
		// "type":"Feature" object inside free-form metadata). Reprocess the
		// block with known context: the sequential parser's features, and
		// its error where it reports it.
		fd.Reprocessed++
		fd.reprocess(br.Start, br.End)
		return
	}
	// Replay the spec tape, emitting validated features at their skip
	// markers. An error ends the output where the sequential parser ends it.
	for _, ev := range st.spec {
		if ev.FeatIdx >= 0 {
			fd.sink(st.features[ev.FeatIdx])
			fd.m.gapStart = ev.EndOff
			continue
		}
		if fd.m.OnToken(ev.Tok); fd.m.err != nil {
			return
		}
	}
	// Graft the block's open resolved frames (anchored feature still
	// open at block end) on top of the replayed context.
	for _, f := range st.frames {
		if f.resolved {
			fd.m.frames = append(fd.m.frames, f)
		}
	}
	if st.tokenCount > 0 {
		fd.m.gapStart = st.gapStart
		if st.strOpen != -2 {
			fd.m.strOpen = st.strOpen
		}
	}
	fd.lex = v.LexEnd
}

// validate replays the block's spec tape through a lightweight structural
// shadow of the accumulated machine and checks that every anchored
// feature (skip marker and still-open graft) sits in a features array.
//
// The shadow stack is the machine's frames [0, base), read in place,
// under the frames the tape pushed (fd.shadow). A machine frame is copied
// onto fd.shadow (lift) only when the tape changes its key or expectKey,
// so a block costs its own tape, not the depth of the stack it lands on.
func (fd *Fold) validate(v BlockVariant) bool {
	base := len(fd.m.frames)
	fd.shadow = fd.shadow[:0]
	rootResolved := fd.m.resolved
	// view returns the top frame without its key, false on an empty stack.
	view := func() (shadowFrame, bool) {
		if n := len(fd.shadow); n > 0 {
			return fd.shadow[n-1], true
		}
		if base == 0 {
			return shadowFrame{}, false
		}
		f := &fd.m.frames[base-1]
		return shadowFrame{isArr: f.isArr, sem: f.sem, resolved: f.resolved, expectKey: f.expectKey}, true
	}
	// lift returns the top frame, writable; the stack must not be empty.
	lift := func() *shadowFrame {
		if len(fd.shadow) == 0 {
			base--
			f := &fd.m.frames[base]
			fd.shadow = append(fd.shadow, shadowFrame{f.isArr, f.sem, f.resolved, f.expectKey, fd.m.key(f)})
		}
		return &fd.shadow[len(fd.shadow)-1]
	}
	inFeatures := func() bool {
		t, ok := view()
		return ok && t.resolved && t.sem == semFeatures
	}
	var strBegin int64 = -1
	for _, ev := range v.state.spec {
		if ev.FeatIdx >= 0 {
			if !inFeatures() {
				return false
			}
			continue
		}
		switch ev.Tok.Kind {
		case lexer.KindObjOpen, lexer.KindArrOpen:
			isArr := ev.Tok.Kind == lexer.KindArrOpen
			var s sem
			resolved := false
			if t, ok := view(); !ok {
				if rootResolved {
					resolved = true
					if isArr {
						s = semFeatures
					} else {
						s = semRootObj
					}
				}
			} else if t.resolved {
				resolved = true
				lt := lift()
				s = classifySem(lt.sem, lt.key, isArr)
				lt.key = nil
			}
			fd.shadow = append(fd.shadow, shadowFrame{isArr: isArr, sem: s, resolved: resolved, expectKey: !isArr})
		case lexer.KindObjClose, lexer.KindArrClose:
			if len(fd.shadow) > 0 {
				fd.shadow = fd.shadow[:len(fd.shadow)-1]
			} else if base > 0 {
				base--
			}
		case lexer.KindComma:
			if t, ok := view(); ok && !t.isArr {
				lift().expectKey = true
			}
		case lexer.KindColon:
			if t, ok := view(); ok && !t.isArr {
				lift().expectKey = false
			}
		case lexer.KindStrBegin:
			strBegin = ev.Tok.Off
		case lexer.KindStrEnd:
			if t, ok := view(); ok && !t.isArr && t.expectKey && strBegin >= 0 {
				lt := lift()
				lt.key = fd.input[strBegin+1 : ev.Tok.Off]
				if bytes.IndexByte(lt.key, '\\') >= 0 {
					// Decode escapes exactly as Machine.key does, or the
					// shadow classifies escaped keywords differently and
					// forces a spurious sequential reprocess.
					lt.key = []byte(unescape(lt.key))
				}
			}
			strBegin = -1
		}
	}
	// A still-open anchored feature at block end must also sit in a
	// features array.
	for i := range v.state.frames {
		if f := &v.state.frames[i]; f.resolved {
			if f.sem == semFeature && !inFeatures() {
				return false
			}
			break
		}
	}
	return true
}

// shadowFrame is the structural-only view of a frame used during
// validation.
type shadowFrame struct {
	isArr     bool
	sem       sem
	resolved  bool
	expectKey bool
	key       []byte // raw span into the shared input
}

// reprocess re-parses a block sequentially with full context after a
// failed validation.
func (fd *Fold) reprocess(start, end int64) {
	fd.lex = fd.m.scan(fd.lex, start, end)
}

// Finish validates the final state after all blocks were folded.
func (fd *Fold) Finish() error {
	if fd.err != nil {
		return fd.err
	}
	return fd.m.endErr()
}
