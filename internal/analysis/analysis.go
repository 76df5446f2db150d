// Package analysis is atgis's project-specific static-analysis suite:
// a small, dependency-free reimplementation of the go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) plus the analyzers that mechanically
// enforce the engine's concurrency, fault-containment and hot-path
// invariants established by PRs 1–6:
//
//   - guardedgo:     every goroutine in pipeline/join/server runs under
//     the Guarded/runShielded fault envelope (PR 6 containment contract)
//   - pairedrelease: admission slots, scheduler registrations, mmaps,
//     gzip writers and pooled scratch are released on all return paths
//   - ctxflow:       request/pass paths thread the caller's context —
//     no context.Background()/TODO(), no dropped ctx parameters
//   - mmapalias:     mmap/block-derived []byte never escapes a pass into
//     long-lived homes (globals, maps, channels) without a copy
//   - hotalloc:      every //atgis:hotpath directive marks a function
//     declaration; the allocation gate itself (the Fig9a throughput
//     contract) is the heap-escape diff run by `atgis-lint -hotalloc`
//
// The suite would normally be built on golang.org/x/tools/go/analysis;
// this module is intentionally dependency-free, so the driver layer
// (loading via `go list -export` + go/types, the fixture runner) is
// reimplemented here on the standard library with the same shape,
// keeping the analyzers portable to x/tools later. The loader reads a
// package's non-test files only: tests legitimately use
// context.Background(), bare goroutines and long-lived stores.
//
// Intentional exceptions are suppressed in source with
//
//	//lint:atgis-allow <analyzer> <reason>
//
// on the flagged line or the line above. The reason is mandatory:
// a suppression without one is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. It mirrors
// golang.org/x/tools/go/analysis.Analyzer minus facts and dependencies,
// which this suite does not need.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:atgis-allow suppressions.
	Name string
	// Doc is the one-paragraph invariant statement shown by
	// `atgis-lint -list`.
	Doc string
	// Run reports the analyzer's findings on one package via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path ("" for ad-hoc fixture
	// packages, which are matched by package name instead).
	Path string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation, already resolved to a file
// position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// AllowDirective is the in-source suppression marker. Its grammar is
//
//	//lint:atgis-allow <analyzer> <reason...>
//
// and it silences diagnostics of <analyzer> reported on the directive's
// line or the line immediately below (so it can ride above a flagged
// statement or trail it).
const AllowDirective = "//lint:atgis-allow"

var allowRe = regexp.MustCompile(`^//lint:atgis-allow\s+([a-zA-Z][\w-]*)\s*(.*)$`)

// suppression is one parsed //lint:atgis-allow comment.
type suppression struct {
	analyzer string
	reason   string
	file     string
	line     int
}

// collectSuppressions parses every //lint:atgis-allow directive in the
// files. Malformed directives (unparseable, or missing the mandatory
// reason) are reported as diagnostics of the pseudo-analyzer
// "atgis-allow" so a reasonless escape hatch cannot pass CI.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (sups []suppression, malformed []Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					malformed = append(malformed, Diagnostic{
						Analyzer: "atgis-allow",
						Pos:      pos,
						Message:  fmt.Sprintf("malformed suppression: want %q (the reason is mandatory)", AllowDirective+" <analyzer> <reason>"),
					})
					continue
				}
				sups = append(sups, suppression{
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
					file:     pos.Filename,
					line:     pos.Line,
				})
			}
		}
	}
	return sups, malformed
}

// suppressed reports whether d is covered by a directive on its own
// line or the line above it.
func suppressed(d Diagnostic, sups []suppression) bool {
	for _, s := range sups {
		if s.analyzer != d.Analyzer || s.file != d.Pos.Filename {
			continue
		}
		if s.line == d.Pos.Line || s.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// RunAnalyzers applies the analyzers to one loaded package and returns
// the surviving (unsuppressed) diagnostics sorted by position. Analyzer
// errors (not diagnostics — driver failures) are returned as err.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Path:      pkg.Path,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sups, kept := collectSuppressions(pkg.Fset, pkg.Files)
	for _, d := range diags {
		if !suppressed(d, sups) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		GuardedGo,
		PairedRelease,
		CtxFlow,
		MmapAlias,
		HotAlloc,
	}
}

// ByName resolves a comma-separated analyzer list; unknown names error.
func ByName(names string) ([]*Analyzer, error) {
	all := All()
	if names == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(Names(), ", "))
		}
	}
	return out, nil
}

// Names lists the suite's analyzer names in stable order.
func Names() []string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return ns
}
