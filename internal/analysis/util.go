package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AST utilities shared by the analyzers. The suite leans on two
// conventions to stay useful on both the real tree and self-contained
// fixtures: packages are matched by import-path suffix with a fallback
// to package name (fixtures have no real import path), and callees are
// matched by their final selector name plus a loose qualifier/receiver
// type hint rather than by fully-qualified object identity (fixtures
// declare local stand-ins like `type Gate struct{}`).

// inspectWithStack walks root in depth-first order, calling f with each
// node and the stack of its ancestors (outermost first, not including
// node itself). Returning false prunes the subtree.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := f(n, stack)
		stack = append(stack, n)
		if !keep {
			// Still pushed; the nil pop balances it.
			return false
		}
		return true
	})
}

// pkgCovered reports whether the pass's package is one of the listed
// engine packages. Real packages match by import-path suffix
// ("internal/pipeline"); fixtures (empty Path) match by package name
// ("pipeline").
func pkgCovered(pass *Pass, suffixes ...string) bool {
	for _, s := range suffixes {
		if pass.Path != "" {
			if pass.Path == s || strings.HasSuffix(pass.Path, "/"+s) {
				return true
			}
			continue
		}
		if pass.Pkg != nil && pass.Pkg.Name() == s[strings.LastIndex(s, "/")+1:] {
			return true
		}
	}
	return false
}

// calleeParts splits a call's function expression into its final name
// and its qualifier expression (nil for plain identifiers). Parens and
// generic instantiations are unwrapped.
func calleeParts(call *ast.CallExpr) (name string, qual ast.Expr) {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name, nil
	case *ast.SelectorExpr:
		return f.Sel.Name, f.X
	}
	return "", nil
}

// typeNameContains reports whether the (dynamic or static) type of e —
// per the pass's type information — has a name containing want, after
// stripping pointers. Missing type info matches permissively: the
// analyzers prefer a rare false positive (suppressible) over silently
// skipping under partial type-checking.
func typeNameContains(pass *Pass, e ast.Expr, want string) bool {
	if want == "" {
		return true
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return true
	}
	t := tv.Type
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if n, ok := t.(*types.Named); ok {
		return strings.Contains(n.Obj().Name(), want)
	}
	return strings.Contains(t.String(), want)
}

// objOf resolves the object an identifier denotes (definition or use).
func objOf(pass *Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Uses[id]
}

// enclosingFunc returns the innermost FuncDecl or FuncLit body on the
// stack, so paired-resource scopes end at the closure boundary.
func enclosingFunc(stack []ast.Node) (body *ast.BlockStmt, node ast.Node) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body, f
		case *ast.FuncLit:
			return f.Body, f
		}
	}
	return nil, nil
}

// funcDecls maps each function/method object defined in the package to
// its declaration, for one-level interprocedural checks.
func funcDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	m := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					m[obj] = fd
				}
			}
		}
	}
	return m
}

// localClosures maps variables bound to function literals
// (`run := func(...) {...}`) to those literals, within root.
func localClosures(pass *Pass, root ast.Node) map[types.Object]*ast.FuncLit {
	m := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(root, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if lit, ok := rhs.(*ast.FuncLit); ok && i < len(st.Lhs) {
					if id, ok := st.Lhs[i].(*ast.Ident); ok {
						if obj := objOf(pass, id); obj != nil {
							m[obj] = lit
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range st.Values {
				if lit, ok := v.(*ast.FuncLit); ok && i < len(st.Names) {
					if obj := objOf(pass, st.Names[i]); obj != nil {
						m[obj] = lit
					}
				}
			}
		}
		return true
	})
	return m
}

// usesObject reports whether any identifier under root denotes obj.
func usesObject(pass *Pass, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && objOf(pass, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// returnsOutsideNestedFuncs collects the ReturnStmts that belong to
// body itself (not to closures nested inside it).
func returnsOutsideNestedFuncs(body *ast.BlockStmt) []*ast.ReturnStmt {
	var rets []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch r := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			rets = append(rets, r)
		}
		return true
	})
	return rets
}

// within reports whether pos falls inside node's source range.
func within(pos token.Pos, node ast.Node) bool {
	return node != nil && node.Pos() <= pos && pos < node.End()
}
