// Package hot exercises the hotalloc analyzer: a //atgis:hotpath
// function may contain allocating constructs — the escape diff
// (atgis-lint -hotalloc) judges those against the budget — but a
// directive that marks no function declaration is a dead marker.
package hot

import "fmt"

//atgis:hotpath
func allocates(b []byte, n int) string {
	s := fmt.Sprintf("tok-%d", n)
	scratch := make([]byte, n)
	_ = scratch
	return s + string(b)
}

// want `not attached to a function declaration`
//
//atgis:hotpath
var dangling = 1

// unmarked functions are not the analyzer's business either.
func unmarked(n int) string {
	return fmt.Sprint(n)
}
