package at

import "fmt"

// The pushdown family of paper §3.3 as an executable definition for the
// property tests in stack_pft_test.go. The engine's pushdown transducer is
// the geojson Machine, whose speculated stack effects geojson.Fold
// validates in input order (see at.go).

// StackSym is a pushdown stack symbol. AT-GIS parsers use a small stack
// alphabet (JSON: object/array frames; XML: element frames).
type StackSym = uint8

// StackEffect is the associative representation of a deterministic
// pushdown transducer's action on the stack over one input block (paper
// §3.3): the block first pops Pops (in order) from whatever stack the
// previous blocks left, then leaves Pushes (bottom to top) pushed.
//
// Effects compose associatively: the pops of the right block consume the
// pushes of the left block top-down, and a symbol mismatch is a parse
// error. This is the classic parallel-Dyck-language construction that
// lets pushdown parsing run block-parallel with bounded speculation.
type StackEffect struct {
	// Pops lists the stack symbols the block expects to pop from the
	// enclosing context, in pop order (first pop first).
	Pops []StackSym
	// Pushes lists the symbols left on the stack after the block,
	// bottom to top.
	Pushes []StackSym
}

// Push records that the block pushed s.
func (e *StackEffect) Push(s StackSym) { e.Pushes = append(e.Pushes, s) }

// Pop records that the block popped a symbol, returning the symbol and
// whether it came from a local push (known) or from the enclosing context
// (deferred: expect must then be validated at merge time).
func (e *StackEffect) Pop(expect StackSym) (local bool, sym StackSym) {
	if n := len(e.Pushes); n > 0 {
		sym = e.Pushes[n-1]
		e.Pushes = e.Pushes[:n-1]
		return true, sym
	}
	e.Pops = append(e.Pops, expect)
	return false, expect
}

// Depth returns the net stack growth of the block.
func (e StackEffect) Depth() int { return len(e.Pushes) - len(e.Pops) }

// Compose merges the effect of block a followed by block b. The result is
// associative in the usual Dyck sense; mismatched symbols surface the
// parse error the sequential parser would have reported at the same
// input position.
func Compose(a, b StackEffect) (StackEffect, error) {
	k := min(len(a.Pushes), len(b.Pops))
	for i := 0; i < k; i++ {
		got := a.Pushes[len(a.Pushes)-1-i]
		want := b.Pops[i]
		if got != want {
			return StackEffect{}, fmt.Errorf(
				"at: stack mismatch composing blocks: pushed %d, popped %d", got, want)
		}
	}
	out := StackEffect{}
	out.Pops = append(append([]StackSym(nil), a.Pops...), b.Pops[k:]...)
	out.Pushes = append(append([]StackSym(nil), a.Pushes[:len(a.Pushes)-k]...), b.Pushes...)
	return out, nil
}

// EmptyEffect is the identity of Compose.
func EmptyEffect() StackEffect { return StackEffect{} }

// Balanced reports whether the effect is the identity: nothing popped
// from outside and nothing left pushed. A whole well-formed document has
// a balanced effect.
func (e StackEffect) Balanced() bool { return len(e.Pops) == 0 && len(e.Pushes) == 0 }
