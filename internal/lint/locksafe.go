package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafeAnalyzer flags work performed while a sync.Mutex/RWMutex is held
// that can re-enter or block indefinitely: invoking a user-supplied callback
// (a call through a function-typed variable or field) and channel
// operations. In the harvest path a callback that calls back into the
// guarded object deadlocks, and a channel send under a lock stalls every
// other worker behind the same mutex — both nondeterministic, load-dependent
// failures the resilience layer exists to prevent.
func LockSafeAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "locksafe",
		Doc:  "flag callbacks and channel operations executed while a sync mutex is held",
		Run:  runLockSafe,
	}
}

func runLockSafe(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					p.scanLockRegion(n.Body.List, map[string]bool{})
				}
				return true
			case *ast.FuncLit:
				// Each literal is its own lock domain; scanLockRegion does
				// not descend into nested literals, and Inspect delivers
				// them here.
				p.scanLockRegion(n.Body.List, map[string]bool{})
				return true
			}
			return true
		})
	}
}

// scanLockRegion walks one statement list tracking which mutexes are held.
// Branch bodies get a copy of the held set: a conditional unlock does not
// release the lock on the main path.
func (p *Pass) scanLockRegion(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if recv, op, ok := p.lockOp(s.X); ok {
				switch op {
				case "Lock", "RLock":
					held[recv] = true
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				continue
			}
			if len(held) > 0 {
				p.flagLockHazards(s, held)
			}
		case *ast.DeferStmt:
			// `defer mu.Unlock()` keeps the lock held to function exit; the
			// held set stays as-is. Other defers run after the body, so
			// they are not scanned under the current held set.
			continue
		case *ast.BlockStmt:
			p.scanLockRegion(s.List, copyHeld(held))
		case *ast.IfStmt:
			if len(held) > 0 {
				p.flagLockHazards(s.Cond, held)
			}
			p.scanLockRegion(s.Body.List, copyHeld(held))
			if s.Else != nil {
				p.scanLockRegion([]ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			if len(held) > 0 && s.Cond != nil {
				p.flagLockHazards(s.Cond, held)
			}
			p.scanLockRegion(s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			if len(held) > 0 {
				p.flagLockHazards(s.X, held)
			}
			p.scanLockRegion(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					p.scanLockRegion(cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					p.scanLockRegion(cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			if len(held) > 0 {
				p.Report(s, "select while mutex is held blocks on channel operations under the lock")
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					p.scanLockRegion(cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			p.scanLockRegion([]ast.Stmt{s.Stmt}, held)
		default:
			if len(held) > 0 {
				p.flagLockHazards(s, held)
			}
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// lockOp recognizes mu.Lock()/RLock()/Unlock()/RUnlock() on a sync mutex
// and returns the receiver expression string and operation name.
func (p *Pass) lockOp(e ast.Expr) (recv, op string, ok bool) {
	call, okc := e.(*ast.CallExpr)
	if !okc {
		return "", "", false
	}
	sel, oks := call.Fun.(*ast.SelectorExpr)
	if !oks {
		return "", "", false
	}
	fn, okf := p.Info.Uses[sel.Sel].(*types.Func)
	if !okf || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// flagLockHazards reports channel operations and calls through
// function-typed variables inside n, without descending into nested
// function literals (those execute in their own context).
func (p *Pass) flagLockHazards(n ast.Node, held map[string]bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			p.Report(c, "channel send while mutex is held can block every goroutine contending for the lock")
		case *ast.UnaryExpr:
			if c.Op == token.ARROW {
				p.Report(c, "channel receive while mutex is held can block every goroutine contending for the lock")
			}
		case *ast.CallExpr:
			if obj := funcValueCallee(p, c); obj != nil {
				p.Report(c, "callback %s invoked while mutex is held; release the lock first (re-entrant callbacks deadlock)", obj.Name())
			}
		}
		return true
	})
}

// funcValueCallee returns the variable object when the call goes through a
// function-typed variable, parameter, or struct field — the signature of a
// user-supplied callback — and nil for declared functions, methods,
// builtins, and conversions.
func funcValueCallee(p *Pass, call *ast.CallExpr) *types.Var {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
		return nil
	}
	return v
}
