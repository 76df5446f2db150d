package analysis

// The analysistest-style fixture runner: each analyzer has a
// self-contained fixture package under testdata/<analyzer>/ whose
// `// want "regex"` comments state the diagnostics expected on their
// line. The runner loads the fixture with LoadDir (stdlib imports
// resolved from the toolchain's export data), applies the analyzer
// through the same RunAnalyzers path atgis-lint uses — so suppression
// handling is exercised too — and fails on any unmatched diagnostic or
// unmet expectation.

import (
	"path/filepath"
	"regexp"
	"testing"
)

var (
	wantRe    = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"` + "|`([^`]*)`")
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadExpectations parses every `// want "re"` (or backquoted) comment
// in the fixture. An expectation applies to the line its comment sits
// on; several patterns in one comment expect several diagnostics.
func loadExpectations(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, a := range args {
					pat := a[1]
					if a[2] != "" {
						pat = a[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					exps = append(exps, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return exps
}

// runFixture applies one analyzer to its fixture and matches
// diagnostics against the want comments.
func runFixture(t *testing.T, analyzer string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", analyzer))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
	}
	var as []*Analyzer
	for _, a := range All() {
		if a.Name == analyzer {
			as = append(as, a)
		}
	}
	if len(as) == 0 {
		t.Fatalf("no analyzer %q", analyzer)
	}
	diags, err := RunAnalyzers(pkg, as)
	if err != nil {
		t.Fatal(err)
	}
	exps := loadExpectations(t, pkg)
	for _, d := range diags {
		matched := false
		for _, e := range exps {
			if !e.hit && e.file == d.Pos.Filename && e.line == d.Pos.Line &&
				e.re.MatchString(d.Analyzer+": "+d.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range exps {
		if !e.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", e.file, e.line, e.re)
		}
	}
}

func TestGuardedGoFixture(t *testing.T)     { runFixture(t, "guardedgo") }
func TestPairedReleaseFixture(t *testing.T) { runFixture(t, "pairedrelease") }
func TestCtxFlowFixture(t *testing.T)       { runFixture(t, "ctxflow") }
func TestMmapAliasFixture(t *testing.T)     { runFixture(t, "mmapalias") }
func TestHotAllocFixture(t *testing.T)      { runFixture(t, "hotalloc") }

// TestHotAllocDanglingDirective: a //atgis:hotpath on a non-function
// declaration is a dead marker and must be reported. (Its diagnostic
// lands on the directive's own line, where no want comment can ride,
// so it gets a direct assertion instead of the fixture runner.)
func TestHotAllocDanglingDirective(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "hotalloc_dangling"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !regexp.MustCompile(`not attached to a function declaration`).MatchString(diags[0].Message) {
		t.Fatalf("want exactly one dangling-directive diagnostic, got %v", diags)
	}
}

// TestAllowMissingReason: a suppression without the mandatory reason is
// itself reported, and does not silence the diagnostic it rides above.
func TestAllowMissingReason(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "allow_missing_reason"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{CtxFlow})
	if err != nil {
		t.Fatal(err)
	}
	var gotMalformed, gotCtxflow bool
	for _, d := range diags {
		switch d.Analyzer {
		case "atgis-allow":
			gotMalformed = true
		case "ctxflow":
			gotCtxflow = true
		}
	}
	if !gotMalformed || !gotCtxflow {
		t.Fatalf("want a malformed-suppression diagnostic AND the unsuppressed ctxflow one, got %v", diags)
	}
}
