package at

// The generic SLT, AGT and PFT families of paper §3.3 as executable
// definitions for the property tests beside them. The engine runs none
// of them: its stateless transducers are geojson.Config.Rejects and
// Config.Value, its aggregation and periodically flushing transducers
// query.ApplyBox and the ordered fold into query.Result (see at.go).

// SLT is a stateless transducer (paper §3.3): the state set is a
// singleton, so each input symbol maps independently to zero or more
// output symbols. It has the expressive power of map and filter and is
// trivially associative. The point parser and per-shape set operations
// are SLTs.
type SLT[I, O any] func(in I, emit func(O))

// MapSLT lifts a pure function into an SLT.
func MapSLT[I, O any](f func(I) O) SLT[I, O] {
	return func(in I, emit func(O)) { emit(f(in)) }
}

// FilterSLT lifts a predicate into an SLT that passes matching symbols
// through.
func FilterSLT[I any](pred func(I) bool) SLT[I, I] {
	return func(in I, emit func(I)) {
		if pred(in) {
			emit(in)
		}
	}
}

// AGT is an aggregation transducer (paper §3.3): it reduces the input
// stream into internal state S and produces no intermediate output. When
// Combine is associative a fragment needs only one in-order copy of the
// state, making the AT form free.
type AGT[I, S any] struct {
	// Identity is the initial (and merge-neutral) state.
	Identity func() S
	// Transform converts an input symbol into state (the paper's t).
	Transform func(I) S
	// Combine merges two states (the paper's a); must be associative
	// with Identity() as the neutral element.
	Combine func(S, S) S
}

// AGTRun is the running fragment of an AGT over one block.
type AGTRun[I, S any] struct {
	agt   *AGT[I, S]
	state S
}

// NewRun starts an empty fragment.
func (a *AGT[I, S]) NewRun() *AGTRun[I, S] {
	return &AGTRun[I, S]{agt: a, state: a.Identity()}
}

// Process folds one symbol into the fragment.
func (r *AGTRun[I, S]) Process(in I) {
	r.state = r.agt.Combine(r.state, r.agt.Transform(in))
}

// State returns the fragment's aggregate.
func (r *AGTRun[I, S]) State() S { return r.state }

// MergeAGT merges two adjacent fragments.
func MergeAGT[I, S any](a *AGT[I, S], left, right S) S { return a.Combine(left, right) }

// PFT is a periodically flushing transducer (paper §3.3, Fig. 4): a
// hybrid of stateless and aggregation transducers that aggregates runs of
// processing symbols delimited by flushing symbols — e.g. the points of
// one geometry delimited by geometry-boundary markers.
//
// Combine must be associative with Init() neutral; Finish converts the
// completed per-run aggregate into an output symbol.
type PFT[I, S, O any] struct {
	// Init returns the neutral aggregation state.
	Init func() S
	// Step folds a processing symbol into the state.
	Step func(S, I) S
	// Combine merges two partial states of the same run (associative).
	Combine func(S, S) S
	// Finish emits the output for a completed run.
	Finish func(S) O
}

// PFTFragment is the associative fragment of a PFT over one block: the
// speculative state aggregates symbols before the first flush (the run
// that may have started in an earlier block), the main state aggregates
// symbols since the last flush, and Tape holds outputs of runs fully
// contained in the block.
type PFTFragment[S, O any] struct {
	// Spec aggregates processing symbols seen before the first flushing
	// symbol of the block.
	Spec S
	// Main aggregates processing symbols seen since the last flushing
	// symbol. When Seen is false Main is unused (Spec carries
	// everything).
	Main S
	// Seen records whether at least one flushing symbol occurred.
	Seen bool
	// Tape holds the outputs of runs completed inside the block.
	Tape []O
}

// PFTRun executes a PFT over one block.
type PFTRun[I, S, O any] struct {
	pft  *PFT[I, S, O]
	frag PFTFragment[S, O]
}

// NewRun starts an empty fragment.
func (p *PFT[I, S, O]) NewRun() *PFTRun[I, S, O] {
	return &PFTRun[I, S, O]{pft: p, frag: PFTFragment[S, O]{Spec: p.Init(), Main: p.Init()}}
}

// Process folds a processing symbol.
func (r *PFTRun[I, S, O]) Process(in I) {
	if r.frag.Seen {
		r.frag.Main = r.pft.Step(r.frag.Main, in)
	} else {
		r.frag.Spec = r.pft.Step(r.frag.Spec, in)
	}
}

// Flush handles a flushing symbol: the current run completes. The first
// flush of a block terminates the speculative run, whose output is not
// known until merge; later flushes emit to the tape.
func (r *PFTRun[I, S, O]) Flush() {
	if !r.frag.Seen {
		r.frag.Seen = true
		return
	}
	r.frag.Tape = append(r.frag.Tape, r.pft.Finish(r.frag.Main))
	r.frag.Main = r.pft.Init()
}

// Fragment returns the completed fragment.
func (r *PFTRun[I, S, O]) Fragment() PFTFragment[S, O] { return r.frag }

// MergePFT merges adjacent fragments (paper Fig. 4): the main state at
// the end of a joins the speculative state at the start of b; if b saw a
// flush, that boundary run completes and its output splices between the
// two tapes.
func MergePFT[I, S, O any](p *PFT[I, S, O], a, b PFTFragment[S, O]) PFTFragment[S, O] {
	switch {
	case !a.Seen && !b.Seen:
		return PFTFragment[S, O]{
			Spec: p.Combine(a.Spec, b.Spec),
			Main: p.Init(),
		}
	case !a.Seen && b.Seen:
		return PFTFragment[S, O]{
			Spec: p.Combine(a.Spec, b.Spec),
			Main: b.Main,
			Seen: true,
			Tape: b.Tape,
		}
	case a.Seen && !b.Seen:
		return PFTFragment[S, O]{
			Spec: a.Spec,
			Main: p.Combine(a.Main, b.Spec),
			Seen: true,
			Tape: a.Tape,
		}
	default:
		boundary := p.Finish(p.Combine(a.Main, b.Spec))
		tape := make([]O, 0, len(a.Tape)+1+len(b.Tape))
		tape = append(tape, a.Tape...)
		tape = append(tape, boundary)
		tape = append(tape, b.Tape...)
		return PFTFragment[S, O]{
			Spec: a.Spec,
			Main: b.Main,
			Seen: true,
			Tape: tape,
		}
	}
}

// FinalizePFT closes the overall merged fragment at end of input: the
// speculative run (which began at the start of the data) and the trailing
// main run both complete. emitLeading/emitTrailing control whether those
// boundary runs produce outputs; pipelines whose data begins and ends at
// flush boundaries disable them.
func FinalizePFT[I, S, O any](p *PFT[I, S, O], f PFTFragment[S, O], emitLeading, emitTrailing bool) []O {
	if !f.Seen {
		// Entire input was a single run.
		if emitLeading || emitTrailing {
			return []O{p.Finish(f.Spec)}
		}
		return nil
	}
	var out []O
	if emitLeading {
		out = append(out, p.Finish(f.Spec))
	}
	out = append(out, f.Tape...)
	if emitTrailing {
		out = append(out, p.Finish(f.Main))
	}
	return out
}
