package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncInfo is one function in a package's call graph: a declared function or
// method, or a function literal.
type FuncInfo struct {
	// Decl is set for declared functions and methods, Lit for literals;
	// exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Obj is the checker's object for declared functions; nil for literals.
	Obj *types.Func
	// Parent is the lexically enclosing function of a literal; nil for
	// declarations.
	Parent *FuncInfo
	// Body is nil for bodiless declarations (assembly, linkname).
	Body *ast.BlockStmt
	// Calls lists every call expression in the body, in source order,
	// excluding those inside nested literals (which own their calls).
	Calls []Call

	graph *Graph
}

// Name returns the declared name, or "func literal".
func (f *FuncInfo) Name() string {
	if f.Decl != nil {
		return f.Decl.Name.Name
	}
	return "func literal"
}

// Pos returns the function's source position.
func (f *FuncInfo) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return f.Lit.Pos()
}

// CFG returns the function's control-flow graph, building it on first use,
// or nil for bodiless declarations.
func (f *FuncInfo) CFG() *Graph {
	if f.Body == nil {
		return nil
	}
	if f.graph == nil {
		f.graph = New(f.Body)
	}
	return f.graph
}

// CallAt returns the recorded call for a site in this function, or nil.
func (f *FuncInfo) CallAt(call *ast.CallExpr) *Call {
	for i := range f.Calls {
		if f.Calls[i].Site == call {
			return &f.Calls[i]
		}
	}
	return nil
}

// Call is one call site inside a function.
type Call struct {
	Site *ast.CallExpr
	// Obj is the statically resolved callee object from any package; nil
	// for dynamic calls (interface methods bind here, function values do
	// not) and for immediately invoked literals.
	Obj *types.Func
	// Callee is the same-package FuncInfo when the call statically targets
	// one (including immediately invoked literals); nil otherwise. Summary
	// propagation only crosses Callee edges — everything else is treated
	// conservatively.
	Callee *FuncInfo
	// Go marks the call of a go statement: the target runs in another
	// goroutine, so summaries must not treat it as executing inline.
	Go bool
}

// CallGraph is the per-package call graph.
type CallGraph struct {
	Funcs []*FuncInfo

	byObj   map[*types.Func]*FuncInfo
	byLit   map[*ast.FuncLit]*FuncInfo
	goCalls map[*ast.CallExpr]bool
	info    *types.Info
}

// BuildCallGraph walks the package's files, registering every declared
// function and literal and resolving static call edges through the checker's
// uses map.
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	cg := &CallGraph{
		byObj:   make(map[*types.Func]*FuncInfo),
		byLit:   make(map[*ast.FuncLit]*FuncInfo),
		goCalls: make(map[*ast.CallExpr]bool),
		info:    info,
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fi := &FuncInfo{Decl: fd, Body: fd.Body}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				fi.Obj = obj
				cg.byObj[obj] = fi
			}
			cg.Funcs = append(cg.Funcs, fi)
		}
	}
	// Walk bodies after every declaration is registered so forward
	// references resolve.
	for _, fi := range cg.Funcs[:len(cg.Funcs):len(cg.Funcs)] {
		cg.walkBody(fi)
	}
	// Immediately invoked literals are visited parent-first, so their
	// FuncInfo does not exist yet when the call is recorded; resolve them
	// in a second pass.
	for _, fi := range cg.Funcs {
		for i := range fi.Calls {
			c := &fi.Calls[i]
			if c.Callee != nil || c.Obj != nil {
				continue
			}
			if lit, ok := ast.Unparen(c.Site.Fun).(*ast.FuncLit); ok {
				c.Callee = cg.byLit[lit]
			}
		}
	}
	return cg
}

func (cg *CallGraph) walkBody(fi *FuncInfo) {
	if fi.Body == nil {
		return
	}
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			child := &FuncInfo{Lit: n, Parent: fi, Body: n.Body}
			cg.Funcs = append(cg.Funcs, child)
			cg.byLit[n] = child
			cg.walkBody(child)
			return false
		case *ast.GoStmt:
			// Visited before its Call child; mark it so addCall tags it.
			cg.goCalls[n.Call] = true
		case *ast.CallExpr:
			cg.addCall(fi, n)
		}
		return true
	})
}

func (cg *CallGraph) addCall(fi *FuncInfo, call *ast.CallExpr) {
	if tv, ok := cg.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	var obj *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ = cg.info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		obj, _ = cg.info.Uses[fun.Sel].(*types.Func)
	}
	c := Call{Site: call, Obj: obj, Go: cg.goCalls[call]}
	if obj != nil {
		c.Callee = cg.byObj[obj]
	}
	fi.Calls = append(fi.Calls, c)
}

// FuncOf returns the FuncInfo for a declared function object, or nil.
func (cg *CallGraph) FuncOf(obj *types.Func) *FuncInfo {
	return cg.byObj[obj]
}

// LitOf returns the FuncInfo for a function literal, or nil.
func (cg *CallGraph) LitOf(lit *ast.FuncLit) *FuncInfo {
	return cg.byLit[lit]
}

// SCCs returns the strongly connected components of the call graph in
// reverse topological order: every component is emitted before any component
// that calls into it, so bottom-up summary computation can walk the slice in
// order.
func (cg *CallGraph) SCCs() [][]*FuncInfo {
	t := &tarjan{
		index:   make(map[*FuncInfo]int),
		lowlink: make(map[*FuncInfo]int),
		onStack: make(map[*FuncInfo]bool),
	}
	for _, f := range cg.Funcs {
		if _, seen := t.index[f]; !seen {
			t.connect(f)
		}
	}
	return t.sccs
}

type tarjan struct {
	next    int
	index   map[*FuncInfo]int
	lowlink map[*FuncInfo]int
	onStack map[*FuncInfo]bool
	stack   []*FuncInfo
	sccs    [][]*FuncInfo
}

func (t *tarjan) connect(f *FuncInfo) {
	t.index[f] = t.next
	t.lowlink[f] = t.next
	t.next++
	t.stack = append(t.stack, f)
	t.onStack[f] = true
	for _, c := range f.Calls {
		w := c.Callee
		if w == nil {
			continue
		}
		if _, seen := t.index[w]; !seen {
			t.connect(w)
			t.lowlink[f] = min(t.lowlink[f], t.lowlink[w])
		} else if t.onStack[w] {
			t.lowlink[f] = min(t.lowlink[f], t.index[w])
		}
	}
	if t.lowlink[f] == t.index[f] {
		var scc []*FuncInfo
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.onStack[w] = false
			scc = append(scc, w)
			if w == f {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}
