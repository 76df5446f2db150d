package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the suite's loading layer: it turns package patterns
// into type-checked syntax without golang.org/x/tools/go/packages,
// which this module does not depend on. The approach is the one the
// go vet unitchecker uses: parse the target package's source, and
// satisfy every import — stdlib and intra-module alike — from compiler
// export data, located via `go list -export`. That keeps loading
// entirely offline (no module downloads) and avoids type-checking the
// transitive closure from source.

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("" for ad-hoc fixture packages).
	Path string
	// Dir is the package's source directory.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds type-checker soft failures. Analysis proceeds
	// regardless: analyzers must tolerate partial type information.
	TypeErrors []error
}

// newInfo allocates the types.Info maps analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a types importer that satisfies imports from gc
// export data files, looked up by import path.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Load loads and type-checks the packages matching the `go list`
// patterns (e.g. "./..."), resolved from the current directory.
// Packages with type errors are still returned — their TypeErrors
// field carries the failures — so a tree that does not type-check
// degrades to partial analysis rather than none.
func Load(patterns ...string) ([]*Package, error) {
	listed, err := goList("", append([]string{"-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listedPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			if t.Error != nil && !strings.Contains(t.Error.Err, "no Go files") {
				return nil, fmt.Errorf("loading %s: %s", t.ImportPath, t.Error.Err)
			}
			continue // directory with no buildable Go files (e.g. a parent of subpackages)
		}
		var asts []*ast.File
		for _, gf := range t.GoFiles {
			f := filepath.Join(t.Dir, gf)
			af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", f, err)
			}
			asts = append(asts, af)
		}
		pkg, err := typeCheckParsed(fset, imp, t.ImportPath, t.Dir, asts)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks a single directory of Go files as an
// ad-hoc package — the fixture loader for the analysistest-style
// runner. Imports are satisfied via `go list -export` from the current
// toolchain's build cache; fixtures should import the standard library
// only, so they stay loadable from any checkout.
func LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	// Pre-parse to discover the import set, then resolve export data
	// for those imports (plus transitive deps) in one go list call.
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	impSet := map[string]bool{}
	for _, af := range asts {
		for _, im := range af.Imports {
			if p, err := strconv.Unquote(im.Path.Value); err == nil && p != "unsafe" {
				impSet[p] = true
			}
		}
	}
	exports := map[string]string{}
	if len(impSet) > 0 {
		var paths []string
		for p := range impSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(dir, append([]string{"-e", "-deps", "-export",
			"-json=ImportPath,Export"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return typeCheckParsed(fset, exportImporter(fset, exports), "", dir, asts)
}

// typeCheckParsed type-checks already-parsed files as one package.
// Type errors are collected, not fatal.
func typeCheckParsed(fset *token.FileSet, imp types.Importer, path, dir string, asts []*ast.File) (*Package, error) {
	if len(asts) == 0 {
		return nil, fmt.Errorf("no files for %s", path)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset, Files: asts, Info: newInfo()}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	name := asts[0].Name.Name
	tpath := path
	if tpath == "" {
		tpath = "fixture/" + name
	}
	// Check returns the (possibly incomplete) package even on error;
	// soft failures are already in pkg.TypeErrors.
	tpkg, _ := conf.Check(tpath, fset, asts, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}
