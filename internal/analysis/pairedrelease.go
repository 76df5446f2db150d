package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PairedRelease enforces the engine's paired acquire/release protocols:
// an admission slot (Gate.Acquire / Engine.admit) must be released, a
// scheduler registration (Pool.Register / Engine.register) must be Closed,
// a worker pool started for one run (pipeline.NewPool) must be Closed, an mmap
// (OpenMapped / mmapFile) must be unmapped, a gzip writer must be
// Closed (the trailer is part of the wire format), an NDJSON stream
// writer must be stopped (its interval timer must not outlive the
// handler), and a pooled lexer speculator must go back to its pool.
//
// The check is function-scoped and deliberately conservative about
// ownership: a resource that escapes the acquiring function — returned,
// stored into a field or collection, or passed to another call — is
// assumed to transfer ownership and is not flagged. Within the
// function, a release that is not deferred must not have a return
// statement between the acquire and the release (the classic leak on
// an early error return); error-check returns guarding the acquire's
// own error result are exempt.
var PairedRelease = &Analyzer{
	Name: "pairedrelease",
	Doc: "admission slots, scheduler registrations, run-scoped pools, mmaps, gzip writers, stream writers and pooled " +
		"scratch must be released on every return path (prefer defer)",
	Run: runPairedRelease,
}

// acquireSpec describes one paired-resource protocol.
type acquireSpec struct {
	// call is the acquire's final callee name; recvHint loosely matches
	// the receiver/qualifier type (or package qualifier) name, "" any.
	call     string
	recvHint string
	// result is the index of the acquired resource in the call's
	// results; errResult the index of an accompanying error (-1 none).
	result    int
	errResult int
	// callable marks resources that are themselves release funcs
	// (release = calling the variable). Otherwise releaseMethods are
	// method names on the resource, and releaseFuncs are package-level
	// functions taking the resource as an argument.
	callable       bool
	releaseMethods []string
	releaseFuncs   []string
	what           string
}

var acquireSpecs = []acquireSpec{
	{call: "Acquire", recvHint: "Gate", result: 0, errResult: 1, callable: true,
		what: "admission slot (Gate.Acquire release func)"},
	{call: "admit", recvHint: "Engine", result: 0, errResult: 1, callable: true,
		what: "admission slot (Engine.admit release func)"},
	{call: "Register", recvHint: "Pool", result: 0, errResult: -1,
		releaseMethods: []string{"Close", "Drain"},
		what:           "scheduler pass registration (*PassHandle)"},
	{call: "register", recvHint: "Engine", result: 0, errResult: -1,
		releaseMethods: []string{"Close"},
		what:           "scheduler pass registration (Engine.register handle)"},
	// A pool started for one run (join.RunStream without a handle) must stop
	// its workers when the run ends; an engine's pool is stored in the
	// engine, which transfers ownership.
	{call: "NewPool", result: 0, errResult: -1,
		releaseMethods: []string{"Close"},
		what:           "run-scoped worker pool (pipeline.NewPool)"},
	{call: "OpenMapped", result: 0, errResult: 1,
		releaseMethods: []string{"Close"},
		what:           "mmap'd source"},
	{call: "mmapFile", result: 1, errResult: 2, callable: true,
		what: "mmap release func"},
	{call: "NewWriter", recvHint: "gzip", result: 0, errResult: -1,
		releaseMethods: []string{"Close"},
		what:           "gzip writer (trailer is part of the stream)"},
	{call: "NewWriterLevel", recvHint: "gzip", result: 0, errResult: 1,
		releaseMethods: []string{"Close"},
		what:           "gzip writer (trailer is part of the stream)"},
	{call: "NewWriter", recvHint: "geojson", result: 0, errResult: -1,
		releaseMethods: []string{"Close"},
		what:           "geojson writer (the closing ]} is part of the document)"},
	{call: "NewWriter", recvHint: "wkt", result: 0, errResult: -1,
		releaseMethods: []string{"Flush", "Close"},
		what:           "wkt writer (buffered lines are lost unflushed)"},
	{call: "NewWriter", recvHint: "osmxml", result: 0, errResult: -1,
		releaseMethods: []string{"Close"},
		what:           "osm xml writer (the closing </osm> is part of the document)"},
	{call: "newNDJSONWriter", result: 0, errResult: -1,
		releaseMethods: []string{"stop"},
		what:           "NDJSON stream writer (interval timer must not outlive the handler)"},
	{call: "AcquireSpeculator", result: 0, errResult: -1,
		releaseFuncs: []string{"ReleaseSpeculator"},
		what:         "pooled lexer speculator"},
	{call: "AcquireScratch", result: 0, errResult: -1,
		releaseFuncs: []string{"ReleaseScratch"},
		what:         "pooled refinement kernel scratch"},
	// The sidecar file lifecycle: Load's read handle and Write's temp
	// file must close on every path — a leaked temp handle also means
	// the atomic-rename protocol left litter next to the source.
	{call: "Open", recvHint: "os", result: 0, errResult: 1,
		releaseMethods: []string{"Close"},
		what:           "file handle (os.Open)"},
	{call: "CreateTemp", recvHint: "os", result: 0, errResult: 1,
		releaseMethods: []string{"Close"},
		what:           "temp file handle (os.CreateTemp; close before rename, remove on failure)"},
	// Coordinator worker RPCs: every http.Client.Do response body must
	// reach closeBody (drain + close) or escape to an owner that does —
	// a leaked body pins the worker connection and starves the pool.
	{call: "Do", recvHint: "Client", result: 0, errResult: 1,
		releaseFuncs: []string{"closeBody"},
		what:         "worker RPC response (closeBody drains and closes the body)"},
}

// matchSpec returns the protocol call matches, if any. The qualifier
// hint accepts either the receiver's type name (g.Acquire with g a
// *Gate) or the qualifying package's name (gzip.NewWriter) — package
// qualifiers match exactly, so geojson.NewWriter never trips the gzip
// spec.
func matchSpec(pass *Pass, call *ast.CallExpr) *acquireSpec {
	name, qual := calleeParts(call)
	for i := range acquireSpecs {
		s := &acquireSpecs[i]
		if s.call != name {
			continue
		}
		if s.recvHint != "" {
			if qual == nil {
				continue // hinted specs require a qualified call
			}
			if id, ok := ast.Unparen(qual).(*ast.Ident); ok {
				if obj := objOf(pass, id); obj != nil {
					if pn, isPkg := obj.(*types.PkgName); isPkg {
						if pn.Imported().Name() == s.recvHint {
							return s
						}
						continue
					}
				} else {
					// No type info (broken package): match the literal
					// qualifier text rather than skipping silently.
					if id.Name == s.recvHint {
						return s
					}
					continue
				}
			}
			if !typeNameContains(pass, qual, s.recvHint) {
				continue
			}
		}
		return s
	}
	return nil
}

func runPairedRelease(pass *Pass) error {
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			spec := matchSpec(pass, call)
			if spec == nil {
				return true
			}
			checkAcquire(pass, call, spec, stack)
			return true
		})
	}
	return nil
}

// checkAcquire validates one acquire site against its protocol.
func checkAcquire(pass *Pass, call *ast.CallExpr, spec *acquireSpec, stack []ast.Node) {
	scope, _ := enclosingFunc(stack)
	if scope == nil {
		return // package-level initializer; out of scope
	}
	// How is the result bound? Direct use as an argument, return
	// operand, field value etc. transfers ownership — not flagged.
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	var resIdent, errIdent *ast.Ident
	switch p := parent.(type) {
	case *ast.AssignStmt:
		// Only the canonical `res... := acquire()` shape is tracked;
		// multi-value into odd shapes is left alone.
		if len(p.Rhs) == 1 && p.Rhs[0] == ast.Expr(call) {
			if spec.result < len(p.Lhs) {
				resIdent, _ = p.Lhs[spec.result].(*ast.Ident)
			}
			if spec.errResult >= 0 && spec.errResult < len(p.Lhs) {
				errIdent, _ = p.Lhs[spec.errResult].(*ast.Ident)
			}
		}
	case *ast.ExprStmt:
		// Result dropped on the floor: the resource can never be
		// released.
		pass.Reportf(call.Pos(), "%s acquired and immediately discarded: the result must be "+
			"retained and released", spec.what)
		return
	default:
		return // nested in a larger expression: ownership transfers
	}
	if resIdent == nil {
		return
	}
	if resIdent.Name == "_" {
		pass.Reportf(call.Pos(), "%s acquired into _: it can never be released", spec.what)
		return
	}
	obj := objOf(pass, resIdent)
	if obj == nil {
		return
	}

	rel := findReleases(pass, scope, obj, spec, call)
	if rel.escapes {
		return
	}
	if len(rel.calls) == 0 {
		pass.Reportf(call.Pos(), "%s acquired but never released in this function "+
			"(want %s, ideally deferred)", spec.what, spec.releaseHint())
		return
	}
	if rel.deferred {
		return
	}
	// Releases exist but none is deferred: an early return between the
	// acquire and the first release leaks the resource. Returns inside
	// the acquire's own error check are the idiomatic guard and exempt.
	first := rel.calls[0]
	for _, c := range rel.calls {
		if c < first {
			first = c
		}
	}
	for _, ret := range returnsOutsideNestedFuncs(scope) {
		if ret.Pos() <= call.End() || ret.Pos() >= first {
			continue
		}
		// `return x.Close()` releases within the return itself.
		if releasesWithin(rel.calls, ret) {
			continue
		}
		if errIdent != nil && retInErrCheck(pass, scope, ret, errIdent) {
			continue
		}
		pass.Reportf(ret.Pos(), "return leaks %s acquired at %s: no release on this path "+
			"(release with defer right after the acquire)",
			spec.what, pass.Fset.Position(call.Pos()))
	}
}

func (s *acquireSpec) releaseHint() string {
	switch {
	case s.callable:
		return "a call of the returned release func"
	case len(s.releaseMethods) > 0:
		return "." + s.releaseMethods[0] + "()"
	default:
		return s.releaseFuncs[0] + "(x)"
	}
}

// releasesWithin reports whether any recorded release position falls
// inside node's source range.
func releasesWithin(calls []token.Pos, node ast.Node) bool {
	for _, c := range calls {
		if within(c, node) {
			return true
		}
	}
	return false
}

// releaseInfo summarises how (and whether) a resource is released
// within its acquiring function.
type releaseInfo struct {
	calls    []token.Pos
	deferred bool
	escapes  bool
}

// findReleases scans scope for releases of obj per spec, and for
// ownership-transferring escapes (return, field/index store, composite
// literal, channel send, or use as a non-release call argument).
func findReleases(pass *Pass, scope *ast.BlockStmt, obj types.Object, spec *acquireSpec, acquire *ast.CallExpr) releaseInfo {
	var info releaseInfo
	inspectWithStack(scope, func(n ast.Node, stack []ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			if st == acquire {
				return true
			}
			if isRelease(pass, st, obj, spec) {
				info.calls = append(info.calls, st.Pos())
				if inDefer(stack) {
					info.deferred = true
				}
				return true
			}
			// The resource passed as an argument to some other call
			// transfers ownership.
			for _, arg := range st.Args {
				if identDenotes(pass, arg, obj) {
					info.escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if identDenotes(pass, r, obj) {
					info.escapes = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				// Stored into a field, map/slice element, or another
				// variable: ownership leaves this protocol's view.
				if identDenotes(pass, rhs, obj) {
					info.escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if identDenotes(pass, v, obj) {
					info.escapes = true
				}
			}
		case *ast.SendStmt:
			if identDenotes(pass, st.Value, obj) {
				info.escapes = true
			}
		}
		return true
	})
	return info
}

// identDenotes reports whether e is an identifier for obj.
func identDenotes(pass *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	o := objOf(pass, id)
	return o != nil && o == obj
}

// isRelease reports whether call releases obj under spec.
func isRelease(pass *Pass, call *ast.CallExpr, obj types.Object, spec *acquireSpec) bool {
	fun := ast.Unparen(call.Fun)
	if spec.callable {
		return identDenotes(pass, fun, obj)
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		for _, m := range spec.releaseMethods {
			if sel.Sel.Name == m && identDenotes(pass, sel.X, obj) {
				return true
			}
		}
	}
	if id, ok := fun.(*ast.Ident); ok {
		for _, rf := range spec.releaseFuncs {
			if id.Name == rf {
				for _, arg := range call.Args {
					if identDenotes(pass, arg, obj) {
						return true
					}
				}
			}
		}
	}
	return false
}

// inDefer reports whether the node whose ancestor stack is given runs
// under a defer — directly (`defer x.Close()`) or via a deferred
// closure (`defer func(){ x.Close() }()`).
func inDefer(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// retInErrCheck reports whether ret sits inside an if statement whose
// condition tests the acquire's error result — the idiomatic
// `if err != nil { return ... }` guard, on which the resource was never
// acquired.
func retInErrCheck(pass *Pass, scope *ast.BlockStmt, ret *ast.ReturnStmt, errIdent *ast.Ident) bool {
	errObj := objOf(pass, errIdent)
	if errObj == nil {
		return false
	}
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !within(ret.Pos(), ifst.Body) {
			return true
		}
		if usesObject(pass, ifst.Cond, errObj) {
			found = true
			return false
		}
		return true
	})
	return found
}
