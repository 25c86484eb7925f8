package analysis

import (
	"go/ast"
	"strings"
)

// CtxFlow enforces context propagation into the durable write path:
// internal/store's WALTicket.Wait blocks until the group-commit fsync lands,
// and waiting on it with context.Background() (or context.TODO()) while the
// caller handed us a context makes the commit wait uncancellable, so an
// abandoned request keeps its goroutine parked on the log. The check fires
// on any such call that passes a fresh Background/TODO context while a
// context.Context parameter is in scope (including captured parameters in
// nested function literals).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "functions that accept a context.Context must thread it into " +
		"internal/store commit waits instead of context.Background()",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Function literals inherit the surrounding context parameter
			// by capture, so the whole declaration is one visibility scope:
			// a ctx param on either the declaration or an enclosing literal
			// covers the calls beneath it.
			if !hasCtxParam(pass, fd.Type) {
				// Literals with their own ctx parameter are still checked.
				checkLitsWithOwnCtx(pass, fd.Body)
				continue
			}
			checkCtxCalls(pass, fd.Body)
		}
	}
}

// hasCtxParam reports whether the function type declares a context.Context
// parameter.
func hasCtxParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		if tv, ok := pass.TypesInfo.Types[fld.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkLitsWithOwnCtx scans for function literals that themselves take a
// context and checks their bodies.
func checkLitsWithOwnCtx(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if hasCtxParam(pass, lit.Type) {
			checkCtxCalls(pass, lit.Body)
			return false
		}
		return true
	})
}

// checkCtxCalls flags cancellation-sensitive calls passing a fresh
// Background/TODO context anywhere under body.
func checkCtxCalls(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !ctxSensitiveCallee(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if name, fresh := freshContextCall(pass, arg); fresh {
				pass.Reportf(arg.Pos(), "context.%s() passed to %s while a context.Context is in scope: pass the caller's ctx so cancellation propagates", name, callName(call))
			}
		}
		return true
	})
}

// ctxSensitiveCallee reports whether the call's target honors context
// cancellation in a way worth enforcing: a Wait method in internal/store
// (the WAL ticket blocking until the group-commit fsync).
func ctxSensitiveCallee(pass *Pass, call *ast.CallExpr) bool {
	pkg := pkgOfCall(pass.TypesInfo, call)
	if pkg == nil || !strings.HasSuffix(pkg.Path(), "internal/store") {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Wait"
}

// freshContextCall reports whether e is a direct context.Background() or
// context.TODO() call.
func freshContextCall(pass *Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	pkg := pkgOfCall(pass.TypesInfo, call)
	if pkg == nil || pkg.Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// callName renders the callee for the diagnostic ("tk.Wait").
func callName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if base, ok := exprPath(sel.X); ok {
			return base + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return "call"
}
