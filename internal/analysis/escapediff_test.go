package analysis

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestMatchEscapes drives the -gcflags=-m parser with canned compiler
// output: only escape diagnostics falling inside a marked function's
// file and line range count, keys are line-number-free, and duplicates
// collapse.
func TestMatchEscapes(t *testing.T) {
	dir := filepath.FromSlash("/mod")
	marked := []markedFunc{
		{pkg: "atgis/internal/foo", file: filepath.FromSlash("/mod/internal/foo/foo.go"),
			name: "Scan", from: 10, to: 20},
		{pkg: "atgis/internal/foo", file: filepath.FromSlash("/mod/internal/foo/foo.go"),
			name: "Machine.step", from: 30, to: 40},
	}
	out := `# atgis/internal/foo
internal/foo/foo.go:12:5: b escapes to heap
internal/foo/foo.go:12:5: b escapes to heap
internal/foo/foo.go:15:9: moved to heap: tmp
internal/foo/foo.go:35:3: make(map[string]int) escapes to heap
internal/foo/foo.go:25:5: between escapes to heap
internal/foo/other.go:12:5: samefile-range-other-file escapes to heap
internal/foo/foo.go:12:5: can inline whatever
`
	got := MatchEscapes(dir, out, marked)
	want := []string{
		"atgis/internal/foo/foo.go:Machine.step: make(map[string]int) escapes to heap",
		"atgis/internal/foo/foo.go:Scan: b escapes to heap",
		"atgis/internal/foo/foo.go:Scan: moved to heap: tmp",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchEscapes:\n got %v\nwant %v", got, want)
	}
}

func TestParseBudget(t *testing.T) {
	b := ParseBudget("# comment\n\npkg/a.go:F: x escapes to heap\n  pkg/b.go:G: y escapes to heap  \n")
	if len(b) != 2 || !b["pkg/a.go:F: x escapes to heap"] || !b["pkg/b.go:G: y escapes to heap"] {
		t.Fatalf("ParseBudget: %v", b)
	}
}

// TestFindMarkedFuncs checks the directive scanner against the real
// tree: the hot loops marked in this repo must all be found, with
// receiver-qualified names for methods.
func TestFindMarkedFuncs(t *testing.T) {
	marked, err := findMarkedFuncs("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]bool{}
	for _, m := range marked {
		byName[m.pkg+":"+m.name] = true
	}
	for _, want := range []string{
		"atgis/internal/lexer:ScanJSON",
		"atgis/internal/lexer:ScanXML",
		"atgis/internal/numparse:Prefix",
		"atgis/internal/geojson:Machine.OnToken",
		"atgis/internal/wkt:parser.feature",
		"atgis/internal/osmxml:Elements.parse",
	} {
		if !byName[want] {
			t.Errorf("marked function %s not found (have %v)", want, byName)
		}
	}
}
