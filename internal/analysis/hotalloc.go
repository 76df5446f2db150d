package analysis

import (
	"go/ast"
	"strings"
)

// HotAllocDirective marks a function as a zero-allocation hot path:
// the lexer scan loops, the SWAR/Eisel–Lemire number parsers, and the
// per-block GeoJSON/WKT/OSM-XML machines whose throughput the Fig9a
// reproduction depends on. The allocation gate is `atgis-lint
// -hotalloc`, which diffs the compiler's escape analysis (-gcflags=-m)
// for marked functions against the committed
// internal/analysis/hotalloc.budget file and fails on any new heap
// escape; an accepted escape is a budget line, not a suppression.
const HotAllocDirective = "//atgis:hotpath"

// HotAlloc checks what the escape diff cannot: that every directive
// marks a function declaration.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "//atgis:hotpath must mark a function declaration; the escape diff " +
		"(atgis-lint -hotalloc) enforces the committed heap-escape budget",
	Run: runHotAlloc,
}

// hasHotPathDirective reports whether a doc comment carries the
// directive (as its own line, the gofmt-preserved directive form).
func hasHotPathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == HotAllocDirective {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		// Directives attached to anything but a function declaration
		// are dead markers the escape diff would silently skip.
		marked := map[*ast.CommentGroup]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && hasHotPathDirective(fd.Doc) {
				marked[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			if hasHotPathDirective(cg) && !marked[cg] {
				pass.Reportf(cg.Pos(), "%s directive is not attached to a function declaration: "+
					"it marks nothing and the escape diff will skip it", HotAllocDirective)
			}
		}
	}
	return nil
}
