package lint

import (
	"go/ast"
	"go/types"
)

// DeadFuncAnalyzer flags unexported package-level functions that no non-test
// file of their package references: the compiler rejects an unused import or
// local, but not an unused function. Methods (one may satisfy an interface),
// init, main and _ are exempt. A use inside the function's own body does not
// count; a call of a generic function's instantiation, inferred or explicit,
// does, since Uses records the generic declaration there.
func DeadFuncAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "deadfunc",
		Doc:  "flag unexported package-level functions that no non-test file of their package references",
		Run:  runDeadFunc,
	}
}

func runDeadFunc(p *Pass) {
	used := make(map[types.Object]bool)
	for id, obj := range p.Info.Uses {
		if fn, ok := obj.(*types.Func); ok && (fn.Scope() == nil || !fn.Scope().Contains(id.Pos())) {
			used[fn] = true
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.IsExported() {
				continue
			}
			switch name := fd.Name.Name; {
			case name == "init", name == "main", name == "_":
			case !used[p.Info.Defs[fd.Name]]:
				p.Report(fd.Name, "unexported function %s is never referenced; delete it", name)
			}
		}
	}
}
