package analysis

import (
	"go/ast"
	"go/types"
)

// Type identification helpers. Analyzers match the project's types by
// (package name, type name) rather than full import path so the same checks
// run unchanged against the real tree and against the mirror packages under
// testdata/src — and keep working if the module is ever renamed.

// namedType returns the *types.Named behind t, unwrapping pointers and
// aliases; nil if t is not (a pointer to) a named type.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgName.typeName.
func isNamed(t types.Type, pkgName, typeName string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// pkgOfCall returns the package a called top-level function belongs to, or
// nil when the callee is not a package-level function (method calls resolve
// to their receiver type's package).
func pkgOfCall(info *types.Info, call *ast.CallExpr) *types.Package {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel]; ok {
			if f, ok := obj.(*types.Func); ok {
				return f.Pkg()
			}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if f, ok := obj.(*types.Func); ok {
				return f.Pkg()
			}
		}
	}
	return nil
}

// exprPath renders a selector/identifier chain ("s.db.mu") as a
// canonical string for structural comparison; ok is false for expressions
// that are not simple chains (calls, indexes, etc. keep their sub-chain
// where possible).
func exprPath(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprPath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		base, ok := exprPath(e.X)
		if !ok {
			return "", false
		}
		return base + "[]", true
	case *ast.StarExpr:
		return exprPath(e.X)
	}
	return "", false
}

// funcScopes yields every function body in the file — declarations and
// function literals — exactly once, outermost first. Each body is visited
// as its own scope: lock tracking and context-parameter visibility are
// per-function concerns.
func funcScopes(f *ast.File, visit func(name string, ft *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Name.Name, n.Type, n.Body)
			}
		case *ast.FuncLit:
			visit("func literal", n.Type, n.Body)
		}
		return true
	})
}
