package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrderAnalyzer flags range loops over maps whose bodies are
// order-sensitive: appending to a slice, writing report output, sending on
// a channel, or accumulating floating-point sums. Go randomizes map
// iteration order per run, so any of these leaks nondeterminism straight
// into an exhibit. The one blessed idiom — collect keys, sort, iterate the
// sorted slice — is recognized: a loop that only appends to slices which
// are sorted later in the same block is clean.
func MapOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "flag order-sensitive bodies (append/output/send/float accumulation) under range-over-map without a subsequent sort",
		Run:  runMapOrder,
	}
}

// outputMethodNames are method names that emit ordered output when called
// in a map-range body: io.Writer-style writes and the report table/chart
// builder row appenders.
var outputMethodNames = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Row":         true,
	"AddRow":      true,
}

func runMapOrder(p *Pass) {
	// Statement lists are visited explicitly so each range-over-map knows
	// its enclosing block — the sort-after exemption needs to inspect the
	// statements that follow the loop.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				p.scanStmtList(n.List)
			case *ast.CaseClause:
				p.scanStmtList(n.Body)
			case *ast.CommClause:
				p.scanStmtList(n.Body)
			}
			return true
		})
	}
}

// scanStmtList checks every range-over-map appearing directly in one
// statement list, remembering the list and position for the sort-after
// exemption.
func (p *Pass) scanStmtList(stmts []ast.Stmt) {
	for i, s := range stmts {
		for {
			if lbl, ok := s.(*ast.LabeledStmt); ok {
				s = lbl.Stmt
				continue
			}
			break
		}
		rng, ok := s.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := p.TypeOf(rng.X)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); isMap {
			p.checkMapRange(rng, stmts, i)
		}
	}
}

// checkMapRange reports the order-sensitive operations in one
// range-over-map body, applying the sort-after exemption.
func (p *Pass) checkMapRange(rng *ast.RangeStmt, block []ast.Stmt, idx int) {
	type hazard struct {
		node ast.Node
		msg  string
		// appendTo is non-nil when the hazard is an append; the object may
		// be absolved by a later sort.
		appendTo types.Object
	}
	var hazards []hazard
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			hazards = append(hazards, hazard{node: n, msg: "channel send inside range over map: receive order is nondeterministic"})
		case *ast.AssignStmt:
			// s = append(s, ...) — order-sensitive unless s is sorted after
			// the loop.
			if obj := appendTarget(p, n); obj != nil {
				hazards = append(hazards, hazard{
					node:     n,
					msg:      "append inside range over map without a subsequent sort: slice order is nondeterministic",
					appendTo: obj,
				})
				return true
			}
			// Floating-point compound accumulation: x += v rounds
			// differently under different summation orders.
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN || n.Tok == token.MUL_ASSIGN) && len(n.Lhs) == 1 {
				if t := p.TypeOf(n.Lhs[0]); t != nil && isFloat(t) {
					hazards = append(hazards, hazard{node: n, msg: "floating-point accumulation inside range over map: rounding depends on iteration order"})
				}
			}
		case *ast.CallExpr:
			if name, ok := orderedOutputCall(p, n); ok {
				hazards = append(hazards, hazard{node: n, msg: "output via " + name + " inside range over map: line order is nondeterministic"})
			}
		}
		return true
	})
	if len(hazards) == 0 {
		return
	}
	// Sort-after exemption: collect the objects sorted by statements after
	// the loop in the enclosing block, then absolve appends to them.
	sorted := make(map[types.Object]bool)
	for i := idx + 1; i < len(block); i++ {
		collectSortedObjects(p, block[i], sorted)
	}
	for _, h := range hazards {
		if h.appendTo != nil && sorted[h.appendTo] {
			continue
		}
		p.Report(h.node, "%s", h.msg)
	}
}

// appendTarget returns the object a statement of the form `x = append(x,
// ...)` (or `x = append(y, ...)`) assigns to, or nil when the statement is
// not an append assignment to an identifier-rooted target.
func appendTarget(p *Pass, n *ast.AssignStmt) types.Object {
	if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return nil
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	return rootObject(p, n.Lhs[0])
}

// rootObject resolves an lvalue like `x`, `x.f`, or `x[i]` to the object of
// its root identifier.
func rootObject(p *Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[v]; obj != nil {
				return obj
			}
			return p.Info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// orderedOutputCall reports whether the call emits ordered output: a
// fmt.Fprint*/Print* call or a Write*/Row-style method.
func orderedOutputCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := p.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return "fmt." + fn.Name(), true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && outputMethodNames[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// collectSortedObjects records objects passed to sort.*/slices.Sort*
// anywhere inside stmt.
func collectSortedObjects(p *Pass, stmt ast.Stmt, out map[types.Object]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if obj := rootObject(p, arg); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
