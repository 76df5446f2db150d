package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestUnreached is the reachability gate: the product is what a binary
// reaches. It links every root with inlining off and -dumpdep, so every
// function the linker keeps is a symbol, and compares the symbols with
// every non-test func declaration outside bench/. A function that no
// product binary reaches must have a line in unreached.allow saying why
// it stays; a line naming a function that is now reached, or gone, fails
// too, so the allowlist only ever shrinks with the code.
//
// Allowlist lines read `<import path>.<[Recv.]Func>  <category>: <reason>`.
// The categories:
//   - bench: reached only from bench/ or cmd/atgis-bench (checked);
//   - example: reached only from an examples/ program (checked);
//   - api: exported library API of the root atgis package;
//   - interface: a method kept to satisfy an interface;
//   - reference: a model a test compares a product path against; the
//     reason starts with that test's name (checked).
func TestUnreached(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	product := []string{"./cmd/atgis", "./cmd/atgis-serve", "./cmd/atgis-gen", "./cmd/atgis-lint"}
	benches := []string{"./cmd/atgis-bench", "bench"}
	mains, err := filepath.Glob(filepath.Join(root, "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	var examples []string
	for _, m := range mains {
		rel, _ := filepath.Rel(root, filepath.Dir(m))
		examples = append(examples, "./"+filepath.ToSlash(rel))
	}
	reached := map[string][]string{} // func key → the roots that link it
	tmp := t.TempDir()
	for _, r := range slices.Concat(product, examples, benches) {
		keys, err := linkedFuncs(root, r, tmp)
		if err != nil {
			t.Fatal(err)
		}
		for k := range keys {
			reached[k] = append(reached[k], r)
		}
	}
	reachedFrom := func(key string, roots []string) bool {
		return slices.ContainsFunc(reached[key], func(r string) bool { return slices.Contains(roots, r) })
	}

	decls, tests, err := moduleFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join(root, "internal", "analysis", "unreached.allow"))
	if err != nil {
		t.Fatal(err)
	}

	var fns, lines int
	for _, key := range slices.Sorted(maps.Keys(decls)) {
		if reachedFrom(key, product) {
			continue
		}
		fns++
		lines += decls[key]
		if _, ok := allow[key]; !ok {
			t.Errorf("%s (%d lines, reached from %v) is reached by no product binary and has no line in unreached.allow: delete it, or allowlist it with a category and a reason", key, decls[key], reached[key])
		}
	}
	perCategory := map[string]int{}
	for _, key := range slices.Sorted(maps.Keys(allow)) {
		a := allow[key]
		perCategory[a.category]++
		switch _, declared := decls[key]; {
		case !declared:
			t.Errorf("unreached.allow:%d: %s is gone: delete the line", a.line, key)
			continue
		case reachedFrom(key, product):
			t.Errorf("unreached.allow:%d: %s is now reached by a product binary: delete the line", a.line, key)
			continue
		}
		switch a.category {
		case "bench":
			if !reachedFrom(key, benches) {
				t.Errorf("unreached.allow:%d: %s is allowlisted bench, but neither bench/ nor cmd/atgis-bench reaches it", a.line, key)
			}
		case "example":
			if !reachedFrom(key, examples) {
				t.Errorf("unreached.allow:%d: %s is allowlisted example, but no examples/ program reaches it", a.line, key)
			}
		case "reference":
			if name, _, _ := strings.Cut(a.reason, " "); !tests[strings.TrimRight(name, ",")] {
				t.Errorf("unreached.allow:%d: %s: a reference reason starts with the name of the test that uses it; %q names none", a.line, key, name)
			}
		case "api", "interface":
		default:
			t.Errorf("unreached.allow:%d: unknown category %q (bench, example, api, interface, reference)", a.line, a.category)
		}
	}
	var cats []string
	for _, c := range slices.Sorted(maps.Keys(perCategory)) {
		cats = append(cats, fmt.Sprintf("%s %d", c, perCategory[c]))
	}
	t.Logf("unreached by the product binaries: %d functions, %d lines", fns, lines)
	t.Logf("allowlist: %d lines (%s)", len(allow), strings.Join(cats, ", "))
}

// linkedFuncs links the main package pkg (a module directory when it
// does not start with "./") with inlining off and returns the keys of
// the module functions the linker kept.
func linkedFuncs(root, pkg, tmp string) (map[string]bool, error) {
	dir, target, mainPath := root, pkg, "atgis/"+strings.TrimPrefix(pkg, "./")
	if !strings.HasPrefix(pkg, "./") {
		dir, target, mainPath = filepath.Join(root, pkg), ".", ""
	}
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep",
		"-o", filepath.Join(tmp, "bin"), target)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
	}
	keys := map[string]bool{}
	for _, edge := range strings.Split(string(out), "\n") {
		for _, sym := range strings.Split(edge, " -> ") {
			for _, k := range symbolKeys(sym, mainPath) {
				keys[k] = true
			}
		}
	}
	return keys, nil
}

// auxSuffixes are the linker's per-function data symbols. They are
// content-addressed, so one may carry the name of a function that is
// not linked: they never count as reaching their function.
var auxSuffixes = map[string]bool{
	"stkobj": true, "arginfo0": true, "arginfo1": true, "argliveinfo": true,
	"args_stackmap": true, "opendefer": true, "wrapinfo": true,
}

// symbolKeys maps a linker symbol of the module to the declaration keys
// it shows reached: `atgis/p.(*T[go.shape…]).M.func1` reaches p.T.M,
// so a value method counts when its pointer wrapper is linked and a
// generic function when any instantiation is. The symbol's closure
// suffix is ambiguous with a method name, so both readings are
// returned; the one that is not a declaration matches nothing.
// mainPath is the import path that `main.` symbols belong to.
func symbolKeys(sym, mainPath string) []string {
	sym = stripBrackets(strings.TrimSpace(sym))
	switch {
	case mainPath != "" && strings.HasPrefix(sym, "main."):
		sym = mainPath + sym[len("main"):]
	case !strings.HasPrefix(sym, "atgis.") && !strings.HasPrefix(sym, "atgis/"):
		return nil
	}
	slash := strings.LastIndex(sym, "/") + 1
	dot := strings.Index(sym[slash:], ".")
	if dot < 0 {
		return nil
	}
	pkg, rest := sym[:slash+dot], sym[slash+dot+1:]
	if strings.HasPrefix(rest, "(*") {
		rest = strings.Replace(rest[2:], ")", "", 1)
	}
	parts := strings.Split(rest, ".")
	if auxSuffixes[parts[len(parts)-1]] {
		return nil
	}
	for i, p := range parts {
		p, _, _ = strings.Cut(p, "·")
		parts[i] = strings.TrimSuffix(p, "-fm")
	}
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, pkg+"."+parts[0]+"."+parts[1])
	}
	return keys
}

// stripBrackets drops every balanced [...] group: the linker names a
// generic instantiation by its shape, `serve[go.shape.struct {…}]`.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// moduleFuncs returns every non-test func declared in the module's
// packages (bench/ is a module of its own and not listed), keyed
// `<import path>.<[Recv.]Name>`, with its line count including its doc
// comment, and the names of the module's test functions. init
// functions are skipped: they run whenever their package is linked.
func moduleFuncs(root string) (map[string]int, map[string]bool, error) {
	pkgs, err := goList(root, "-json=ImportPath,Dir,GoFiles", "./...")
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	decls, tests := map[string]int{}, map[string]bool{}
	for _, p := range pkgs {
		testFiles, err := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		if err != nil {
			return nil, nil, err
		}
		for _, path := range testFiles {
			af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
		}
		for _, gf := range p.GoFiles {
			path := filepath.Join(p.Dir, gf)
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				key := p.ImportPath + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					key = p.ImportPath + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				from := fd.Pos()
				if fd.Doc != nil {
					from = fd.Doc.Pos()
				}
				decls[key] = fset.Position(fd.End()).Line - fset.Position(from).Line + 1
			}
		}
	}
	return decls, tests, nil
}

type allowLine struct {
	line             int
	category, reason string
}

// readAllowlist parses unreached.allow; # starts a comment line.
func readAllowlist(path string) (map[string]allowLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]allowLine{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, rest, _ := strings.Cut(text, " ")
		category, reason, ok := strings.Cut(strings.TrimSpace(rest), ":")
		reason = strings.TrimSpace(reason)
		if !ok || category == "" || reason == "" {
			return nil, fmt.Errorf("%s:%d: want `<func>  <category>: <reason>`, got %q", path, n, text)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, key)
		}
		allow[key] = allowLine{line: n, category: category, reason: reason}
	}
	return allow, sc.Err()
}
