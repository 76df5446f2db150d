package geojson

import (
	"bytes"
	"fmt"

	"atgis/internal/at"
	"atgis/internal/lexer"
)

// BlockVariant is the result of fully-associative extraction over one
// block under one family of speculated lexer start states.
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

// Features returns the features extracted under this variant's
// speculation (valid until the block is released).
func (v BlockVariant) Features() []FeatureOut { return v.state.features }

// BlockResult is the fully-associative fragment of one input block: the
// composite of the lexer FST fragment and the downstream extraction
// fragments, predicated on the lexer starting state exactly as §3.2
// prescribes for transducer composition.
type BlockResult struct {
	Start, End int64
	Variants   []BlockVariant
}

// ProcessBlockFAT runs the full fully-associative pipeline over one block
// of input: speculative lexing from every start state, then extraction
// per surviving lexer variant. Lexer token buffers and the extraction
// machine are pooled and reused across blocks; only the per-variant
// payload that must travel to the ordered merge (spec tape, buffered
// features, open frames) is detached into pooled state objects.
func ProcessBlockFAT(input []byte, start, end int64, cfg *Config) BlockResult {
	spec := lexer.AcquireSpeculator()
	lexVariants := spec.Lex(input[start:end], start)
	out := BlockResult{Start: start, End: end, Variants: make([]BlockVariant, 0, len(lexVariants))}
	m := acquireSpecMachine(input, cfg)
	for _, lv := range lexVariants {
		m.resetSpecRun(start)
		if lv.Starts[0] != lexer.JSONDefault {
			// Starting mid-string: content before the first StrEnd token
			// is string payload, never a primitive gap.
			m.strOpen = -2 // sentinel: open string with unknown begin
		}
		for _, tok := range lv.Tokens {
			m.OnToken(tok)
		}
		out.Variants = append(out.Variants, BlockVariant{
			LexEnd: lv.End,
			state:  m.detachState(lv.Starts),
		})
	}
	releaseSpecMachine(m)
	lexer.ReleaseSpeculator(spec)
	return out
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
	cfg   *Config
	m     *Machine
	lex   at.State
	sink  func(FeatureOut)

	// Reprocessed counts blocks whose speculation was invalidated and
	// that were re-parsed with full context (paper §3.5's fallback).
	Reprocessed int
	err         error
}

// NewFold starts an empty fold over the shared input buffer.
func NewFold(input []byte, cfg *Config, sink func(FeatureOut)) *Fold {
	return &Fold{
		input: input,
		cfg:   cfg,
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
	if fd.err != nil {
		return
	}
	v, ok := variantFor(br, fd.lex)
	if !ok {
		fd.err = fmt.Errorf("geojson: lexer state %d not speculated for block at %d", fd.lex, br.Start)
		return
	}
	if !fd.validate(v) {
		// Speculation invalidated (e.g. a "type":"Feature" string inside
		// free-form metadata): reprocess the block with known context.
		fd.Reprocessed++
		fd.reprocess(br)
		return
	}
	// Replay the spec tape, emitting validated features at their skip
	// markers.
	st := v.state
	for _, ev := range st.spec {
		if ev.FeatIdx >= 0 {
			fd.sink(st.features[ev.FeatIdx])
			fd.m.gapStart = ev.EndOff
			continue
		}
		fd.m.OnToken(ev.Tok)
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
func (fd *Fold) validate(v BlockVariant) bool {
	shadow := make([]shadowFrame, 0, len(fd.m.frames)+8)
	for _, f := range fd.m.frames {
		shadow = append(shadow, shadowFrame{f.isArr, f.sem, f.resolved, f.expectKey, fd.m.key(&f)})
	}
	rootResolved := fd.m.resolved
	top := func() *shadowFrame {
		if len(shadow) == 0 {
			return nil
		}
		return &shadow[len(shadow)-1]
	}
	inFeatures := func() bool {
		t := top()
		return t != nil && t.resolved && t.sem == semFeatures
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
			t := top()
			if t == nil {
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
				s = classifySem(t.sem, t.key, isArr)
				t.key = nil
			}
			shadow = append(shadow, shadowFrame{isArr: isArr, sem: s, resolved: resolved, expectKey: !isArr})
		case lexer.KindObjClose, lexer.KindArrClose:
			if len(shadow) > 0 {
				shadow = shadow[:len(shadow)-1]
			}
		case lexer.KindComma:
			if t := top(); t != nil && !t.isArr {
				t.expectKey = true
			}
		case lexer.KindColon:
			if t := top(); t != nil && !t.isArr {
				t.expectKey = false
			}
		case lexer.KindStrBegin:
			strBegin = ev.Tok.Off
		case lexer.KindStrEnd:
			if t := top(); t != nil && !t.isArr && t.expectKey && strBegin >= 0 {
				t.key = fd.input[strBegin+1 : ev.Tok.Off]
				if bytes.IndexByte(t.key, '\\') >= 0 {
					// Decode escapes exactly as Machine.key does, or the
					// shadow classifies escaped keywords differently and
					// forces a spurious sequential reprocess.
					t.key = []byte(unescape(t.key))
				}
			}
			strBegin = -1
		}
	}
	// A still-open anchored feature at block end must also sit in a
	// features array.
	for _, f := range v.state.frames {
		if f.resolved {
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
func (fd *Fold) reprocess(br BlockResult) {
	fd.lex = fd.m.scan(fd.lex, br.Start, br.End)
}

// Finish validates the final state after all blocks were folded.
func (fd *Fold) Finish() error {
	if err := fd.Err(); err != nil {
		return err
	}
	if len(fd.m.frames) != 0 {
		return fmt.Errorf("geojson: %d unclosed containers at end of input", len(fd.m.frames))
	}
	return nil
}
