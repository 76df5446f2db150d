// Package at implements associative transducers (ATs), the computational
// model at the heart of AT-GIS (paper §3).
//
// A transducer T = (Q, q0, Σ, Γ, δ) is inherently sequential: processing
// symbol s maps an execution pair (state, tape) to a new pair. An
// associative transducer replaces execution pairs with *fragments*: a
// mapping from every speculated starting state to the corresponding
// finishing state, together with output tapes predicated on the starting
// state. Fragments for adjacent input blocks merge with an associative
// operator ⊗ (relation composition plus predicated tape concatenation),
// so blocks can be processed out of order, in parallel, and merged in any
// grouping.
//
// This package holds the fragment model of the finite-state family: FST,
// FSTFragment, RunFragment, MergeFST and the sequential oracle
// RunSequential. The lexers' tests use it as their reference
// (lexer.NewJSONFST), and at_test.go runs the paper's §3.1 example on it.
// The engine runs each AT family of §3.3 as concrete machinery instead:
//
//   - finite-state (lexing): lexer.ScanJSON/ScanJSONResume over a block,
//     and lexer.SummarizeJSON, which composes the lexer state at FAT block
//     starts without emitting tokens;
//   - pushdown (parsing): the geojson Machine per block, whose speculated
//     stack effects geojson.Fold validates in input order;
//   - stateless (map/filter): geojson.Config.Rejects and Config.Value on
//     the worker;
//   - aggregation and periodically flushing (reduce, per-geometry
//     aggregates): query.ApplyBox per feature and the ordered fold into
//     query.Result.
package at

import "fmt"

// State identifies a transducer state. Lexer-grade machines in AT-GIS
// have small state counts, so a byte suffices; the paper exploits exactly
// this to pre-compute transition tables.
type State = uint8

// FST is a table-driven deterministic finite-state transducer over bytes.
// Emit is consulted after each transition; a nil Emit gives a pure
// automaton.
type FST[T any] struct {
	// NumStates is the size of the state space Q.
	NumStates int
	// Start is q0.
	Start State
	// Delta maps (state, input byte) to the next state. len(Delta) must
	// equal NumStates.
	Delta [][256]State
	// Emit, if non-nil, returns output symbols for the transition taken
	// from state q on byte b at input offset off. ok=false emits nothing.
	Emit func(q State, b byte, off int64) (out T, ok bool)
}

// Step runs one sequential transition, appending any output to tape.
func (m *FST[T]) Step(q State, b byte, off int64, tape []T) (State, []T) {
	if m.Emit != nil {
		if out, ok := m.Emit(q, b, off); ok {
			tape = append(tape, out)
		}
	}
	return m.Delta[q][b], tape
}

// FSTFragment is the associative form of an FST execution over one input
// block: for each speculated starting state, the finishing state and the
// start-state-predicated output tape. The deterministic state map is the
// paper's N×N binary relation matrix stored densely (each row has exactly
// one set bit, so a vector of finishing states is the same information).
type FSTFragment[T any] struct {
	// Starts lists the speculated starting states, ascending.
	Starts []State
	// Ends[i] is the finishing state when execution began in Starts[i].
	Ends []State
	// Tapes[i] is the output tape under Starts[i]. After convergence
	// several entries may share a backing slice; treat tapes as
	// immutable.
	Tapes [][]T
}

// RunFragment executes the FST over block for every starting state in
// starts (ascending, deduplicated by the caller) and returns the
// fragment. baseOff is the byte offset of block[0] in the overall input,
// threaded through to Emit so tokens carry absolute offsets.
//
// Convergence (paper §3.1) is exploited: once two speculated runs are in
// the same state they will remain identical, so the runs are deduplicated
// on the fly and their tapes shared.
func RunFragment[T any](m *FST[T], block []byte, starts []State, baseOff int64) FSTFragment[T] {
	n := len(starts)
	frag := FSTFragment[T]{
		Starts: append([]State(nil), starts...),
		Ends:   append([]State(nil), starts...),
		Tapes:  make([][]T, n),
	}
	// alias[i] = index of the run i has converged with, or -1.
	alias := make([]int, n)
	for i := range alias {
		alias[i] = -1
	}
	for pos, b := range block {
		off := baseOff + int64(pos)
		for i := 0; i < n; i++ {
			if alias[i] >= 0 {
				continue
			}
			frag.Ends[i], frag.Tapes[i] = m.Step(frag.Ends[i], b, off, frag.Tapes[i])
		}
		// Detect convergence between live runs.
		for i := 0; i < n; i++ {
			if alias[i] >= 0 {
				continue
			}
			for j := 0; j < i; j++ {
				if alias[j] >= 0 {
					continue
				}
				if frag.Ends[i] == frag.Ends[j] && sameTail(frag.Tapes[i], frag.Tapes[j]) {
					alias[i] = j
					break
				}
			}
		}
	}
	for i, a := range alias {
		if a >= 0 {
			frag.Ends[i] = frag.Ends[a]
			frag.Tapes[i] = frag.Tapes[a]
		}
	}
	return frag
}

// sameTail reports whether two tapes are equal in length — converged runs
// that emitted different prefixes must not be aliased. Runs that reached
// the same state having emitted the same number of symbols from the same
// input are identical from here on, and (for the deterministic machines
// used in AT-GIS) emitted identical symbols. Length equality is the cheap
// sufficient check used during convergence detection; runs with differing
// histories stay separate.
func sameTail[T any](a, b []T) bool { return len(a) == len(b) }

// Lookup returns the finishing state and tape for starting state q.
func (f FSTFragment[T]) Lookup(q State) (State, []T, error) {
	for i, s := range f.Starts {
		if s == q {
			return f.Ends[i], f.Tapes[i], nil
		}
	}
	return 0, nil, fmt.Errorf("at: starting state %d not speculated (have %v)", q, f.Starts)
}

// MergeFST composes two adjacent fragments: for each starting state of a,
// the finishing state of a selects the matching run of b, and the tapes
// concatenate. Relation composition and concatenation are associative, so
// MergeFST is associative (verified by property tests).
//
// Every finishing state of a must have been speculated by b; the pipeline
// guarantees this by speculating over a closed state set.
func MergeFST[T any](a, b FSTFragment[T]) (FSTFragment[T], error) {
	out := FSTFragment[T]{
		Starts: append([]State(nil), a.Starts...),
		Ends:   make([]State, len(a.Starts)),
		Tapes:  make([][]T, len(a.Starts)),
	}
	for i := range a.Starts {
		end, tape, err := b.Lookup(a.Ends[i])
		if err != nil {
			return FSTFragment[T]{}, err
		}
		out.Ends[i] = end
		out.Tapes[i] = concatTapes(a.Tapes[i], tape)
	}
	return out, nil
}

// concatTapes concatenates without mutating either operand (fragments may
// share tape storage after convergence).
func concatTapes[T any](a, b []T) []T {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// RunSequential executes the FST sequentially from its start state: the
// oracle that fragment execution must reproduce.
func RunSequential[T any](m *FST[T], input []byte) (State, []T) {
	q := m.Start
	var tape []T
	for pos, b := range input {
		q, tape = m.Step(q, b, int64(pos), tape)
	}
	return q, tape
}
