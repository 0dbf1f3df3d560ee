package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/flow"
)

// CtxFlowAnalyzer returns the ctxflow rule: in the serving, query and
// ingest call paths a context.Context is threaded, never rebuilt or stashed.
// Deadline propagation and chaos cancellation both ride on the request
// context; a context.Background() in the middle of a call chain (or a
// context stored in a struct field and read back later) silently detaches
// everything below it from the caller's deadline, which is exactly the bug
// class the fail-operational serving tests cannot see until production.
//
// The rule reports, inside the scoped packages:
//
//   - any context.Background()/context.TODO() construction outside main/init
//     (deliberate detachment — a build that must outlast its request — gets
//     an annotated ignore);
//   - a call that passes a context other than one derived from the caller's
//     own (params, context.With* children, (*http.Request).Context()) while
//     a context is in scope, including inherited closure captures;
//   - a context stored into a struct field, by assignment or composite
//     literal;
//   - interprocedurally, via a bottom-up call-graph summary: a call from a
//     context-bearing function to a same-package callee that takes no
//     context yet constructs its own somewhere below — the callee should
//     grow a ctx parameter instead.
func CtxFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "context.Context must be threaded through call paths, not rebuilt or stored",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(p *Pass) {
	cg := flow.BuildCallGraph(p.Files, p.Info)
	// detached holds functions that construct a Background/TODO context on
	// some path, directly or through same-package callees.
	detached := cg.MayReach(func(_ *flow.FuncInfo, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && isCtxConstructor(p.Info, call)
	})
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := cg.FuncOf(funcObj(p.Info, fd))
			ctxFlowFunc(p, cg, detached, fi, fd.Body, nil)
		}
	}
}

// ctxFlowFunc checks one function body. inherited carries the derived
// context objects of enclosing functions so closures count captures.
func ctxFlowFunc(p *Pass, cg *flow.CallGraph, detached map[*flow.FuncInfo]bool, fi *flow.FuncInfo, body *ast.BlockStmt, inherited map[types.Object]bool) {
	derived := make(map[types.Object]bool, len(inherited))
	for o := range inherited {
		derived[o] = true
	}
	hasOwnCtx := false
	if sig := funcSig(p, fi); sig != nil {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if v := params.At(i); isContextType(v.Type()) {
				derived[v] = true
				hasOwnCtx = true
			}
		}
	}
	ctxInScope := hasOwnCtx || len(inherited) > 0

	// Propagate derivedness through local assignments to a fixpoint:
	// ctx2 := context.WithValue(ctx, k, v); ctx3 := ctx2; ...
	for changed := true; changed; {
		changed = false
		inspectSkippingLits(body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					// Tuple assignment from a call such as context.WithCancel.
					if markTupleDerived(p, derived, n.Lhs, n.Rhs[0]) {
						changed = true
					}
					return
				}
				for i := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if markDerived(p, derived, n.Lhs[i], n.Rhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Values) == 1 && len(n.Names) > 1 {
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					if markTupleDerived(p, derived, lhs, n.Values[0]) {
						changed = true
					}
					return
				}
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					if markDerived(p, derived, name, n.Values[i]) {
						changed = true
					}
				}
			}
		})
	}

	var lits []*ast.FuncLit
	inspectSkippingLitsCollect(body, &lits, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isCtxConstructor(p.Info, n) {
				if !inEntrypoint(p, fi) {
					name := "Background"
					if obj := calleeFunc(p, n); obj != nil {
						name = obj.Name()
					}
					p.Report(n, "constructs context.%s in a %s call path; thread the caller's context through (annotate with a reason if detachment is deliberate)", name, p.Pkg.Name())
				}
				return
			}
			checkCtxArgs(p, derived, ctxInScope, n)
			checkDetachedCallee(p, cg, detached, fi, ctxInScope, n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				obj, ok := p.Info.Uses[sel.Sel].(*types.Var)
				if !ok || !obj.IsField() || !isContextType(obj.Type()) {
					continue
				}
				_ = i
				p.Report(lhs, "stores a context in struct field %s; contexts are per-call values — pass them as arguments", obj.Name())
			}
		case *ast.CompositeLit:
			t := p.TypeOf(n)
			if t == nil {
				return
			}
			if _, ok := t.Underlying().(*types.Struct); !ok {
				return
			}
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if vt := p.TypeOf(v); vt != nil && isContextType(vt) {
					p.Report(v, "stores a context in a struct literal; contexts are per-call values — pass them as arguments")
				}
			}
		}
	})
	for _, lit := range lits {
		child := cg.LitOf(lit)
		ctxFlowFunc(p, cg, detached, child, lit.Body, derived)
	}
}

// checkCtxArgs flags a call that fills a context parameter with something
// not derived from the context already in scope.
func checkCtxArgs(p *Pass, derived map[types.Object]bool, ctxInScope bool, call *ast.CallExpr) {
	if !ctxInScope {
		return
	}
	ft := p.TypeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := types.Unalias(ft).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		if sig.Variadic() && i == params.Len()-1 {
			break
		}
		if !isContextType(params.At(i).Type()) {
			continue
		}
		arg := ast.Unparen(call.Args[i])
		if c, ok := arg.(*ast.CallExpr); ok && isCtxConstructor(p.Info, c) {
			continue // already reported at the construction
		}
		if !ctxDerivedExpr(p, derived, arg) {
			p.Report(arg, "has a context in scope but passes a different one here; thread the caller's context")
		}
	}
}

// checkDetachedCallee flags a call from a context-bearing function to a
// same-package function that accepts no context yet constructs one below.
func checkDetachedCallee(p *Pass, cg *flow.CallGraph, detached map[*flow.FuncInfo]bool, fi *flow.FuncInfo, ctxInScope bool, call *ast.CallExpr) {
	if !ctxInScope || fi == nil {
		return
	}
	rec := fi.CallAt(call)
	if rec == nil || rec.Callee == nil || rec.Callee.Decl == nil || rec.Callee.Obj == nil || !detached[rec.Callee] {
		return
	}
	if sig, ok := rec.Callee.Obj.Type().(*types.Signature); ok {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if isContextType(params.At(i).Type()) {
				return // takes a ctx; checkCtxArgs covers the argument
			}
		}
	}
	p.Report(call, "calls %s, which constructs its own context instead of accepting yours; plumb a ctx parameter through", rec.Callee.Name())
}

// markDerived records lhs as context-derived when rhs is, returning whether
// the set changed.
func markDerived(p *Pass, derived map[types.Object]bool, lhs, rhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	obj := defOrUse(p.Info, id)
	if obj == nil || derived[obj] || !isContextType(obj.Type()) {
		return false
	}
	if !ctxDerivedExpr(p, derived, rhs) {
		return false
	}
	derived[obj] = true
	return true
}

// markTupleDerived handles ctx, cancel := context.WithCancel(parent): every
// context-typed name on the left becomes derived when the call is not a
// fresh construction.
func markTupleDerived(p *Pass, derived map[types.Object]bool, lhs []ast.Expr, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || isCtxConstructor(p.Info, call) {
		return false
	}
	changed := false
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		obj := defOrUse(p.Info, id)
		if obj == nil || derived[obj] || !isContextType(obj.Type()) {
			continue
		}
		derived[obj] = true
		changed = true
	}
	return changed
}

// ctxDerivedExpr reports whether e yields a context derived from the one in
// scope: a derived identifier, any context-returning call that is not a
// fresh Background/TODO (context.With*, (*http.Request).Context(), helper
// methods), or a field read (the store was already flagged; uses of it are
// not re-reported).
func ctxDerivedExpr(p *Pass, derived map[types.Object]bool, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := p.Info.Uses[e]
		return obj != nil && derived[obj]
	case *ast.CallExpr:
		if isCtxConstructor(p.Info, e) {
			return false
		}
		t := p.TypeOf(e)
		return t != nil && typeHasContext(t)
	case *ast.SelectorExpr:
		t := p.TypeOf(e)
		return t != nil && isContextType(t)
	}
	return false
}

// inEntrypoint reports whether fi's outermost declaration is func main in
// package main or an init function — the two places a root context is
// legitimately constructed.
func inEntrypoint(p *Pass, fi *flow.FuncInfo) bool {
	for fi != nil && fi.Decl == nil {
		fi = fi.Parent
	}
	if fi == nil {
		return false
	}
	name := fi.Decl.Name.Name
	return (name == "main" && p.Pkg.Name() == "main") || name == "init"
}

// isCtxConstructor reports a call to context.Background or context.TODO.
func isCtxConstructor(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "context" && (obj.Name() == "Background" || obj.Name() == "TODO")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// typeHasContext reports whether t is a context or a tuple containing one.
func typeHasContext(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isContextType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isContextType(t)
}

// funcSig returns the signature of a declared function or literal.
func funcSig(p *Pass, fi *flow.FuncInfo) *types.Signature {
	if fi == nil {
		return nil
	}
	if fi.Obj != nil {
		if sig, ok := fi.Obj.Type().(*types.Signature); ok {
			return sig
		}
		return nil
	}
	if fi.Lit != nil {
		if sig, ok := types.Unalias(p.TypeOf(fi.Lit)).(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// funcObj resolves a declaration to its checker object.
func funcObj(info *types.Info, fd *ast.FuncDecl) *types.Func {
	obj, _ := info.Defs[fd.Name].(*types.Func)
	return obj
}

// defOrUse resolves an identifier whether it defines or uses an object.
func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// inspectSkippingLits walks n without descending into function literals.
func inspectSkippingLits(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		visit(c)
		return true
	})
}

// inspectSkippingLitsCollect is inspectSkippingLits but records the
// immediate literals it skipped so the caller can recurse with fresh state.
func inspectSkippingLitsCollect(n ast.Node, lits *[]*ast.FuncLit, visit func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if lit, ok := c.(*ast.FuncLit); ok && c != n {
			*lits = append(*lits, lit)
			return false
		}
		visit(c)
		return true
	})
}
