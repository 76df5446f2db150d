package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// This file is the hot-path allocation gate (`atgis-lint -hotalloc`):
// it runs the compiler's escape analysis (-gcflags=-m) over the
// module, keeps the "escapes to heap" / "moved to heap" diagnostics
// that fall inside //atgis:hotpath function bodies, and diffs them
// against the committed budget file (internal/analysis/hotalloc.budget).
// A new heap escape in a marked lexer/numparse/geojson/wkt/osmxml loop
// fails the build before it silently erodes the Fig9a throughput the
// engine's parallelism wins rest on.
//
// Budget keys are line-number-free — "pkg/file.go:Func: message" —
// so unrelated edits shifting lines don't churn the budget; only a
// genuinely new escape (or a removed one, reported as stale) changes
// it. The go command replays cached compiler diagnostics, so repeat
// runs are cheap and still produce the full -m stream.

// DefaultBudgetFile is the committed escape budget, relative to the
// module root.
const DefaultBudgetFile = "internal/analysis/hotalloc.budget"

// EscapeReport is the outcome of one escape-budget comparison.
type EscapeReport struct {
	// Current holds every in-budget-scope escape key observed now.
	Current []string
	// New are observed keys missing from the budget (failures).
	New []string
	// Stale are budgeted keys no longer observed (the budget should be
	// regenerated with -hotalloc-update; not a failure).
	Stale []string
	// Marked counts //atgis:hotpath functions found; a zero count is
	// an error upstream (the directive set was deleted or mistyped).
	Marked int
}

// markedFunc is one //atgis:hotpath function's source extent.
type markedFunc struct {
	pkg  string // import path
	file string // absolute path
	name string // Func or Type.Method
	from int    // first line
	to   int    // last line
}

// findMarkedFuncs parses the module's packages (syntax only) and
// returns every //atgis:hotpath function.
func findMarkedFuncs(dir string, patterns ...string) ([]markedFunc, error) {
	listed, err := goList(dir, append([]string{"-e",
		"-json=ImportPath,Dir,GoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var marked []markedFunc
	for _, p := range listed {
		for _, gf := range p.GoFiles {
			path := filepath.Join(p.Dir, gf)
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", path, err)
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !hasHotPathDirective(fd.Doc) {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = recvTypeName(fd.Recv.List[0].Type) + "." + name
				}
				marked = append(marked, markedFunc{
					pkg:  p.ImportPath,
					file: path,
					name: name,
					from: fset.Position(fd.Pos()).Line,
					to:   fset.Position(fd.End()).Line,
				})
			}
		}
	}
	return marked, nil
}

// recvTypeName renders a receiver type expression's base name.
func recvTypeName(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// escapeLine matches the compiler diagnostics that mean a heap
// allocation: `path.go:12:34: x escapes to heap` and
// `path.go:12:34: moved to heap: x`.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*(?:escapes to heap|moved to heap).*)$`)

// EscapeDiff builds the packages with -gcflags=-m, keeps heap-escape
// diagnostics inside //atgis:hotpath functions, and compares them to
// DefaultBudgetFile. It runs in the current directory, which must be
// the module root.
func EscapeDiff(patterns ...string) (*EscapeReport, error) {
	marked, err := findMarkedFuncs("", patterns...)
	if err != nil {
		return nil, err
	}
	rep := &EscapeReport{Marked: len(marked)}
	if len(marked) == 0 {
		return rep, nil
	}
	byPkg := map[string][]markedFunc{}
	for _, m := range marked {
		byPkg[m.pkg] = append(byPkg[m.pkg], m)
	}
	var pkgs []string
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	// One `go build` over exactly the marked packages: unscoped
	// -gcflags applies only to the packages named on the command line,
	// and cached compiler diagnostics replay, so this is cheap and
	// deterministic on warm caches.
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}

	rep.Current = MatchEscapes("", out.String(), marked)
	seen := map[string]bool{}
	for _, k := range rep.Current {
		seen[k] = true
	}

	budget, err := ReadBudget(DefaultBudgetFile)
	if err != nil {
		return nil, err
	}
	for _, k := range rep.Current {
		if !budget[k] {
			rep.New = append(rep.New, k)
		}
	}
	for k := range budget {
		if !seen[k] {
			rep.Stale = append(rep.Stale, k)
		}
	}
	sort.Strings(rep.Stale)
	return rep, nil
}

// WriteBudget regenerates the budget file from the report's current
// escape set (the -hotalloc-update path).
func WriteBudget(path string, rep *EscapeReport) error {
	var b strings.Builder
	b.WriteString("# atgis hotalloc escape budget — heap escapes currently accepted inside\n")
	b.WriteString("# //atgis:hotpath functions. Regenerate with: atgis-lint -hotalloc-update ./...\n")
	b.WriteString("# One key per line: pkg/file.go:Func: compiler message (line numbers omitted\n")
	b.WriteString("# so unrelated edits don't churn the file).\n")
	for _, k := range rep.Current {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// ReadBudget loads budget keys; a missing file is an empty budget.
func ReadBudget(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	} else if err != nil {
		return nil, err
	}
	return ParseBudget(string(data)), nil
}

// ParseBudget parses budget file content (comments and blanks skipped).
func ParseBudget(content string) map[string]bool {
	m := map[string]bool{}
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m[line] = true
	}
	return m
}

// MatchEscapes filters raw -gcflags=-m output to the heap-escape keys
// falling inside the given marked functions; tests drive it with
// canned compiler output.
func MatchEscapes(dir string, output string, marked []markedFunc) []string {
	seen := map[string]bool{}
	for _, line := range strings.Split(output, "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ln := atoi(m[2])
		for _, mf := range marked {
			if sameFile(dir, m[1], mf.file) && ln >= mf.from && ln <= mf.to {
				seen[fmt.Sprintf("%s/%s:%s: %s", mf.pkg, filepath.Base(mf.file), mf.name, m[3])] = true
			}
		}
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sameFile compares a (possibly relative) compiler-reported path with
// an absolute source path. Compiler messages from `go build` in dir are
// dir-relative; an exact join-match avoids cross-attributing same-named
// files in different packages. dir itself may be relative or "" (the
// working directory) — it is absolutized first, since the go-list side
// always reports absolute paths.
func sameFile(dir, reported, abs string) bool {
	if filepath.IsAbs(reported) {
		return reported == abs
	}
	if d, err := filepath.Abs(dir); err == nil {
		dir = d
	}
	return filepath.Join(dir, reported) == abs
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
