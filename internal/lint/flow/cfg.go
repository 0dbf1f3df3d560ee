// Package flow is the control-flow and call-graph substrate for whpcvet's
// interprocedural analyzers. It builds intraprocedural control-flow graphs
// over go/ast function bodies (basic blocks with branch, loop and defer
// edges), resolves a per-package call graph through go/types, and computes
// function summaries bottom-up over strongly connected components so
// analyzers can ask interprocedural questions ("does every path through this
// callee allocate?", "can this goroutine ever return?") without a
// whole-program engine. Dynamic calls — through interfaces or function
// values — resolve to no callee and summaries treat them conservatively, in
// whichever direction avoids a false finding.
//
// The graph invariant analyzers rely on: block Nodes hold only simple
// statements and expressions (assignments, calls, conditions, channel
// operations). Compound statements (if/for/switch/select bodies) are
// decomposed into blocks and edges and never appear as nodes, so a
// node-level predicate never accidentally matches code from a different
// block. Function literal bodies are likewise excluded — they execute
// elsewhere — and get their own FuncInfo in the call graph.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal run of straight-line code.
type Block struct {
	Index int
	// Nodes are the simple statements and expressions executed in order.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is where execution begins.
	Entry *Block
	// Ret is the common exit prologue: every return statement and the
	// fall-off-the-end path route through it, and it holds the call
	// expressions of deferred statements in reverse registration order —
	// the "defer edges". Registration is over-approximated: a defer
	// registered inside a branch still appears here.
	Ret *Block
	// Exit is the single synthetic exit block.
	Exit *Block
	// Blocks lists every block, including unreachable continuations left
	// behind by return/break/continue.
	Blocks []*Block
	// Defers are the defer statements in registration order.
	Defers []*ast.DeferStmt
	// HasGoto records that the body used goto; its edges are approximated
	// as leaving the function, so analyzers may want to bail.
	HasGoto bool
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	g.Entry = g.newBlock()
	g.Ret = g.newBlock()
	g.Exit = g.newBlock()
	b := &builder{g: g, cur: g.Entry}
	b.stmts(body.List)
	edge(b.cur, g.Ret)
	edge(g.Ret, g.Exit)
	for i := len(g.Defers) - 1; i >= 0; i-- {
		g.Ret.Nodes = append(g.Ret.Nodes, g.Defers[i].Call)
	}
	return g
}

func (g *Graph) newBlock() *Block {
	b := &Block{Index: len(g.Blocks)}
	g.Blocks = append(g.Blocks, b)
	return b
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// scope is one enclosing breakable/continuable construct.
type scope struct {
	label string
	brk   *Block
	cont  *Block // nil for switch and select
}

type builder struct {
	g            *Graph
	cur          *Block
	scopes       []scope
	pendingLabel string
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) node(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.node(s)
		edge(b.cur, b.g.Ret)
		b.cur = b.g.newBlock()
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.target(s, false); t != nil {
				edge(b.cur, t)
			}
			b.cur = b.g.newBlock()
		case token.CONTINUE:
			if t := b.target(s, true); t != nil {
				edge(b.cur, t)
			}
			b.cur = b.g.newBlock()
		case token.GOTO:
			b.g.HasGoto = true
			edge(b.cur, b.g.Ret)
			b.cur = b.g.newBlock()
		}
		// fallthrough is wired by the switch builder
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.node(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.node(s.Init)
		}
		if s.Tag != nil {
			b.node(s.Tag)
		}
		b.switchBody(s.Body, label, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.node(s.Init)
		}
		b.node(s.Assign)
		b.switchBody(s.Body, label, false)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	default:
		b.node(s)
	}
}

// target resolves a break or continue to its destination block, honoring an
// optional label.
func (b *builder) target(s *ast.BranchStmt, isContinue bool) *Block {
	want := ""
	if s.Label != nil {
		want = s.Label.Name
	}
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if want != "" && sc.label != want {
			continue
		}
		if isContinue {
			if sc.cont != nil {
				return sc.cont
			}
			continue
		}
		return sc.brk
	}
	return nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.node(s.Init)
	}
	b.node(s.Cond)
	cond := b.cur
	then := b.g.newBlock()
	after := b.g.newBlock()
	edge(cond, then)
	b.cur = then
	b.stmts(s.Body.List)
	edge(b.cur, after)
	if s.Else != nil {
		els := b.g.newBlock()
		edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		edge(b.cur, after)
	} else {
		edge(cond, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.node(s.Init)
	}
	head := b.g.newBlock()
	edge(b.cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	body := b.g.newBlock()
	after := b.g.newBlock()
	edge(head, body)
	if s.Cond != nil {
		// A condition-less `for` can only leave via break or return, so
		// no head→after edge exists and Exit may become unreachable —
		// exactly what goroleak looks for.
		edge(head, after)
	}
	post := head
	if s.Post != nil {
		post = b.g.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		edge(post, head)
	}
	b.scopes = append(b.scopes, scope{label: label, brk: after, cont: post})
	b.cur = body
	b.stmts(s.Body.List)
	edge(b.cur, post)
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.g.newBlock()
	edge(b.cur, head)
	head.Nodes = append(head.Nodes, s.X)
	if s.Key != nil {
		head.Nodes = append(head.Nodes, s.Key)
	}
	if s.Value != nil {
		head.Nodes = append(head.Nodes, s.Value)
	}
	body := b.g.newBlock()
	after := b.g.newBlock()
	edge(head, body)
	edge(head, after)
	b.scopes = append(b.scopes, scope{label: label, brk: after, cont: head})
	b.cur = body
	b.stmts(s.Body.List)
	edge(b.cur, head)
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

// switchBody builds the clause blocks shared by expression and type
// switches. caseExprs controls whether clause expressions become nodes
// (type-switch clauses list types, which have no flow meaning).
func (b *builder) switchBody(body *ast.BlockStmt, label string, caseExprs bool) {
	head := b.cur
	after := b.g.newBlock()
	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.g.newBlock()
		edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(head, after)
	}
	b.scopes = append(b.scopes, scope{label: label, brk: after})
	for i, cc := range clauses {
		b.cur = blocks[i]
		if caseExprs {
			for _, e := range cc.List {
				b.node(e)
			}
		}
		stmts := cc.Body
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts = stmts[:n-1]
				fallsThrough = i+1 < len(clauses)
			}
		}
		b.stmts(stmts)
		if fallsThrough {
			edge(b.cur, blocks[i+1])
		} else {
			edge(b.cur, after)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.g.newBlock()
	b.scopes = append(b.scopes, scope{label: label, brk: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.g.newBlock()
		edge(head, cb)
		b.cur = cb
		if cc.Comm != nil {
			// The communication op (send, receive, receive-assign) is a
			// simple statement; record it so channel-wait predicates see it.
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		edge(b.cur, after)
	}
	// An empty select{} blocks forever: no clause edges, after unreachable.
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

// ExitReachable reports whether any path leads from Entry to Exit.
func (g *Graph) ExitReachable() bool {
	return g.reaches(nil)
}

// AlwaysHits reports whether every Entry→Exit path contains a block node for
// which match returns true. When Exit is unreachable it returns true
// vacuously. match receives block nodes; use NodeContains to test
// subexpressions.
func (g *Graph) AlwaysHits(match func(ast.Node) bool) bool {
	return !g.reaches(match)
}

// reaches reports whether Exit is reachable from Entry through blocks none
// of whose nodes match avoid (avoid may be nil).
func (g *Graph) reaches(avoid func(ast.Node) bool) bool {
	blocked := func(bl *Block) bool {
		if avoid == nil {
			return false
		}
		for _, n := range bl.Nodes {
			if avoid(n) {
				return true
			}
		}
		return false
	}
	seen := make([]bool, len(g.Blocks))
	queue := []*Block{}
	if !blocked(g.Entry) {
		seen[g.Entry.Index] = true
		queue = append(queue, g.Entry)
	}
	for len(queue) > 0 {
		bl := queue[0]
		queue = queue[1:]
		if bl == g.Exit {
			return true
		}
		for _, s := range bl.Succs {
			if !seen[s.Index] && !blocked(s) {
				seen[s.Index] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}

// NodeContains reports whether any subnode of n satisfies test, without
// descending into function literals: their bodies execute elsewhere and have
// their own FuncInfo in the call graph.
func NodeContains(n ast.Node, test func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil || found {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		if test(c) {
			found = true
			return false
		}
		return true
	})
	return found
}
