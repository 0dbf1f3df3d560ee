package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/lint/flow"
)

// ChaosCoverAnalyzer returns the chaoscover rule, a module-level pass that
// keeps the chaos harness honest: every named injection point declared in
// internal/chaos (the Point* string constants) must have at least one
// Fire(...) call site somewhere in the module, be listed in Points(), and
// every Fire call must name its point with a declared constant. A renamed
// point whose call sites kept the old string, an orphaned point left behind
// by a refactor, or a literal-string fire all make seed-replayable chaos
// schedules lie — they claim to exercise a fault path that no longer
// exists — so each fails vet.
//
// Serving code routinely wraps the raw injector (s.fire(point),
// fault(ctx, point), counting decorators), so the pass computes a
// per-package forwarding summary over the call graph: any function that
// passes a string parameter through to a Fire sink is itself treated as a
// fire site for the constants its callers pass. Dynamic call targets are
// conservative: an argument the pass cannot resolve to a constant is
// reported rather than silently trusted.
func ChaosCoverAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "chaoscover",
		Doc:       "declared chaos injection points and Fire call sites must stay in sync",
		RunModule: runChaosCover,
	}
}

// pointDecl is one declared Point* constant.
type pointDecl struct {
	name     string
	value    string
	pkg      *Package
	ident    *ast.Ident
	fired    bool
	inPoints bool
}

func runChaosCover(mp *ModulePass) {
	var points []*pointDecl
	byValue := make(map[string]*pointDecl)
	var chaosPkgs []*Package
	for _, pkg := range mp.Pkgs {
		if !scopeMatch(pkg.Path, "internal/chaos") {
			continue
		}
		chaosPkgs = append(chaosPkgs, pkg)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "Point") {
							continue
						}
						c, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok || c.Val().Kind() != constant.String {
							continue
						}
						pd := &pointDecl{
							name:  name.Name,
							value: constant.StringVal(c.Val()),
							pkg:   pkg,
							ident: name,
						}
						points = append(points, pd)
						byValue[pd.value] = pd
					}
				}
			}
		}
	}
	if len(points) == 0 {
		return
	}

	for _, pkg := range mp.Pkgs {
		scanFireSites(mp, pkg, byValue)
	}

	for _, pd := range points {
		if !pd.fired {
			mp.Report(pd.pkg, pd.ident, "injection point %s (%q) is declared but never fired; wire a Fire call or remove the point", pd.name, pd.value)
		}
	}
	for _, pkg := range chaosPkgs {
		checkPointsList(mp, pkg, points)
	}
}

// scanFireSites walks one package: computes the forwarding summary, then
// classifies the point argument at every sink or forwarder call.
func scanFireSites(mp *ModulePass, pkg *Package, byValue map[string]*pointDecl) {
	cg := flow.BuildCallGraph(pkg.Files, pkg.Info)

	// fwd maps a function to the parameter indices that flow into a Fire
	// sink, computed to a fixpoint so wrappers of wrappers resolve.
	fwd := make(map[*types.Func]map[int]bool)
	pointPositions := func(obj *types.Func) []int {
		if obj == nil {
			return nil
		}
		if isFireSink(obj) {
			return []int{0}
		}
		if idx, ok := fwd[obj]; ok {
			out := make([]int, 0, len(idx))
			for i := 0; i < 64; i++ { // indices are tiny; keep order deterministic
				if idx[i] {
					out = append(out, i)
				}
			}
			return out
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range cg.Funcs {
			if fi.Obj == nil || fi.Body == nil {
				continue
			}
			paramIdx := stringParamIndices(fi.Obj)
			if len(paramIdx) == 0 {
				continue
			}
			for _, call := range fi.Calls {
				for _, pos := range pointPositions(call.Obj) {
					if pos >= len(call.Site.Args) {
						continue
					}
					id, ok := ast.Unparen(call.Site.Args[pos]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pkg.Info.Uses[id]
					if obj == nil {
						continue
					}
					i, isParam := paramIdx[obj]
					if !isParam {
						continue
					}
					if fwd[fi.Obj] == nil {
						fwd[fi.Obj] = make(map[int]bool)
					}
					if !fwd[fi.Obj][i] {
						fwd[fi.Obj][i] = true
						changed = true
					}
				}
			}
		}
	}

	for _, fi := range cg.Funcs {
		for _, call := range fi.Calls {
			for _, pos := range pointPositions(call.Obj) {
				if pos >= len(call.Site.Args) {
					continue
				}
				classifyPointArg(mp, pkg, fi, fwd, call.Site.Args[pos], byValue)
			}
		}
	}
}

// classifyPointArg resolves one argument at a point-accepting position:
// a declared constant marks the point fired; anything the pass cannot
// resolve statically is a finding.
func classifyPointArg(mp *ModulePass, pkg *Package, fi *flow.FuncInfo, fwd map[*types.Func]map[int]bool, arg ast.Expr, byValue map[string]*pointDecl) {
	arg = ast.Unparen(arg)
	switch a := arg.(type) {
	case *ast.BasicLit:
		mp.Report(pkg, arg, "fires injection point by string literal %s; declare and use a chaos.Point* constant so renames fail vet", a.Value)
		return
	case *ast.Ident, *ast.SelectorExpr:
		var id *ast.Ident
		if sel, ok := a.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else {
			id = a.(*ast.Ident)
		}
		switch obj := pkg.Info.Uses[id].(type) {
		case *types.Const:
			if obj.Val().Kind() != constant.String {
				break
			}
			v := constant.StringVal(obj.Val())
			if pd, ok := byValue[v]; ok {
				pd.fired = true
				return
			}
			mp.Report(pkg, arg, "fires constant %q, which is not a declared injection point in internal/chaos", v)
			return
		case *types.Var:
			// A forwarder passing its own tracked parameter on is the
			// mechanism, not a site; its callers are classified instead.
			if fi.Obj != nil {
				if idx, ok := stringParamIndices(fi.Obj)[obj]; ok && fwd[fi.Obj] != nil && fwd[fi.Obj][idx] {
					return
				}
			}
		}
	}
	mp.Report(pkg, arg, "cannot statically resolve the injection point fired here; use a chaos.Point* constant")
}

// checkPointsList cross-references the declared points of one chaos package
// against its Points() registry function, when it has one.
func checkPointsList(mp *ModulePass, pkg *Package, points []*pointDecl) {
	var fn *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Points" && fd.Recv == nil {
				fn = fd
			}
		}
	}
	if fn == nil || fn.Body == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if c, ok := pkg.Info.Uses[id].(*types.Const); ok && c.Val().Kind() == constant.String {
			v := constant.StringVal(c.Val())
			for _, pd := range points {
				if pd.pkg == pkg && pd.value == v {
					pd.inPoints = true
				}
			}
		}
		return true
	})
	for _, pd := range points {
		if pd.pkg == pkg && !pd.inPoints {
			mp.Report(pkg, pd.ident, "injection point %s is missing from Points(); schedules cannot plan a point the registry hides", pd.name)
		}
	}
}

// isFireSink reports whether obj is a Fire(point string) *chaos.Fault
// method or function — concrete or interface.
func isFireSink(obj *types.Func) bool {
	if obj == nil || obj.Name() != "Fire" {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !isStringType(sig.Params().At(0).Type()) {
		return false
	}
	ptr, ok := types.Unalias(sig.Results().At(0).Type()).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Fault" && scopeMatch(named.Obj().Pkg().Path(), "internal/chaos")
}

// stringParamIndices maps a function's string-typed parameter objects to
// their positions.
func stringParamIndices(obj *types.Func) map[types.Object]int {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make(map[types.Object]int)
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isStringType(params.At(i).Type()) {
			out[params.At(i)] = i
		}
	}
	return out
}
