// Package lint is whpcvet's analysis engine: a stdlib-only static-analysis
// suite that machine-checks the invariants the reproduction's exhibits rest
// on. The paper's artifact promises byte-identical reports for a given seed
// at any worker count; that promise dies quietly the moment analysis code
// reads the wall clock, consults the global math/rand source, lets Go's
// randomized map-iteration order leak into a report, or compares floats for
// raw equality. Each of those hazards is a rule here, implemented on
// go/parser + go/ast + go/types + go/token with no external dependencies.
//
// Findings can be suppressed at a single line with an annotation naming the
// rule and a mandatory reason:
//
//	x := time.Now() //whpcvet:ignore determinism wall clock feeds log line only
//
// or, on the line immediately above the offending one:
//
//	//whpcvet:ignore floatcmp exact IEEE boundary case, not a tolerance check
//	if p == 0.5 { ...
//
// A bare annotation with no reason is itself reported: the acceptance bar
// for the reproduction is that every suppression is auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one diagnostic produced by an analyzer, positioned at the
// offending token so editors and CI logs can jump straight to it.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Rule)
}

// Analyzer is one named rule. Run inspects a type-checked package and
// reports findings through the pass; the driver decides which packages each
// analyzer sees via Scope and Exempt.
type Analyzer struct {
	// Name is the rule identifier used in findings, -rules output and
	// ignore annotations.
	Name string
	// Doc is a one-line description printed by cmd/whpcvet -rules.
	Doc string
	// Scope limits the analyzer to packages whose import path matches one
	// of these patterns (see scopeMatch). Empty means every package.
	Scope []string
	// Exempt removes matching packages even when Scope matches; e.g. the
	// determinism rule exempts internal/resilience, the one package allowed
	// to touch the wall clock.
	Exempt []string
	// Run performs a per-package analysis; nil for module-level rules.
	Run func(*Pass)
	// RunModule performs a whole-module analysis over every loaded package
	// at once — for rules like chaoscover that must cross-reference
	// declarations in one package against uses in another. Scope/Exempt do
	// not gate module rules; they see all packages and filter internally.
	RunModule func(*ModulePass)
}

// AppliesTo reports whether the analyzer should run on the package with the
// given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	for _, pat := range a.Exempt {
		if scopeMatch(pkgPath, pat) {
			return false
		}
	}
	if len(a.Scope) == 0 {
		return true
	}
	for _, pat := range a.Scope {
		if scopeMatch(pkgPath, pat) {
			return true
		}
	}
	return false
}

// scopeMatch reports whether pkgPath matches pattern. A pattern matches the
// identical import path, or a path that ends with "/"+pattern, so
// "internal/report" matches "repro/internal/report" regardless of module
// name. A pattern ending in "/*" matches every package under that directory:
// "cmd/*" covers "repro/cmd/whpcd" and any other command.
func scopeMatch(pkgPath, pattern string) bool {
	if strings.HasSuffix(pattern, "/*") {
		prefix := pattern[:len(pattern)-1] // keep the trailing slash
		return strings.HasPrefix(pkgPath, prefix) || strings.Contains(pkgPath, "/"+prefix)
	}
	return pkgPath == pattern || strings.HasSuffix(pkgPath, "/"+pattern)
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Pkg is the checked package; PkgPath is its import path (also
	// available as Pkg.Path(), duplicated for convenience).
	Pkg     *types.Package
	PkgPath string
	Info    *types.Info

	findings *[]Finding
	rule     string
}

// Report records a finding at the position of n.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	pos := p.Fset.Position(n.Pos())
	*p.findings = append(*p.findings, Finding{
		Rule:    p.rule,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ModulePass hands every loaded package to one module-level analyzer.
type ModulePass struct {
	Pkgs []*Package

	findings *[]Finding
	rule     string
}

// Report records a finding at the position of n, which must belong to pkg.
func (p *ModulePass) Report(pkg *Package, n ast.Node, format string, args ...any) {
	pos := pkg.Fset.Position(n.Pos())
	*p.findings = append(*p.findings, Finding{
		Rule:    p.rule,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full rule registry in display order. The slice is
// freshly allocated; callers may filter it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		MapOrderAnalyzer(),
		FloatCmpAnalyzer(),
		ErrCheckAnalyzer(),
		LockSafeAnalyzer(),
		ExhibitDocAnalyzer(),
		CtxFlowAnalyzer(),
		GoroLeakAnalyzer(),
		HotAllocAnalyzer(),
		ChaosCoverAnalyzer(),
		DeadFuncAnalyzer(),
		StaleIgnoreAnalyzer(),
	}
}

// AnalyzerByName returns the registered analyzer with the given name, or
// nil if no rule has that name.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Vet runs every analyzer over every package it applies to, filters
// suppressed findings via //whpcvet:ignore annotations, and returns the
// surviving findings sorted by position. Malformed annotations are
// themselves reported under the "ignore" pseudo-rule, and — when the
// staleignore rule is among the analyzers — well-formed annotations that no
// longer suppress anything are reported under "staleignore".
//
// Packages are analyzed concurrently, up to GOMAXPROCS at a time. The
// output is deterministic regardless of parallelism: per-package findings
// are produced by a single goroutine in analyzer order, collected per
// package index, and merged with a stable (file, line, col, rule) sort.
func Vet(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var perPkg, module []*Analyzer
	active := make(map[string]bool)
	for _, a := range analyzers {
		active[a.Name] = true
		switch {
		case a.Run != nil:
			perPkg = append(perPkg, a)
		case a.RunModule != nil:
			module = append(module, a)
		}
	}

	results := make([][]Finding, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				pkg := pkgs[i]
				for _, a := range perPkg {
					if !a.AppliesTo(pkg.Path) {
						continue
					}
					pass := &Pass{
						Fset:     pkg.Fset,
						Files:    pkg.Files,
						Pkg:      pkg.Types,
						PkgPath:  pkg.Path,
						Info:     pkg.Info,
						findings: &results[i],
						rule:     a.Name,
					}
					a.Run(pass)
				}
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var findings []Finding
	for _, fs := range results {
		findings = append(findings, fs...)
	}
	for _, a := range module {
		mp := &ModulePass{Pkgs: pkgs, findings: &findings, rule: a.Name}
		a.RunModule(mp)
	}

	findings = suppress(pkgs, findings, active)

	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return findings
}

// ignoreDirective is one parsed //whpcvet:ignore annotation.
type ignoreDirective struct {
	rules  []string
	reason string
	line   int
	file   string
	pos    token.Pos
	// used records that the directive suppressed at least one finding this
	// run; a well-formed directive that stays unused is stale.
	used bool
}

const ignorePrefix = "//whpcvet:ignore"

// parseIgnores extracts every annotation from the packages' comments, keyed
// by file name. Directives are returned by pointer so suppression can mark
// usage for the staleness audit.
func parseIgnores(pkgs []*Package) map[string][]*ignoreDirective {
	out := make(map[string][]*ignoreDirective)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					pos := pkg.Fset.Position(c.Pos())
					d := &ignoreDirective{line: pos.Line, file: pos.Filename, pos: c.Pos()}
					fields := strings.Fields(rest)
					if len(fields) > 0 {
						d.rules = strings.Split(fields[0], ",")
						d.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
					}
					out[pos.Filename] = append(out[pos.Filename], d)
				}
			}
		}
	}
	return out
}

// suppress drops findings covered by a well-formed annotation on the same
// line or the line immediately above. It adds findings for malformed
// annotations (no rule, unknown rule, or missing reason) under the "ignore"
// pseudo-rule, and — when staleignore is active — for well-formed
// annotations that suppressed nothing and whose rules all ran (so a partial
// -rule invocation never misreports a directive as stale). Stale findings
// are not themselves suppressible: a dead annotation is pruned, not excused.
func suppress(pkgs []*Package, findings []Finding, active map[string]bool) []Finding {
	ignores := parseIgnores(pkgs)
	if len(ignores) == 0 {
		return findings
	}
	var extra []Finding
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	// Walk files in sorted order so the findings this adds come out in the
	// same order on every run, independent of Vet's final sort.
	files := make([]string, 0, len(ignores))
	for file := range ignores {
		files = append(files, file)
	}
	sort.Strings(files)
	valid := make(map[string][]*ignoreDirective)
	for _, file := range files {
		for _, d := range ignores[file] {
			switch {
			case len(d.rules) == 0:
				extra = append(extra, Finding{
					Rule: "ignore", File: d.file, Line: d.line, Col: 1,
					Message: "whpcvet:ignore names no rule",
				})
			case d.reason == "":
				extra = append(extra, Finding{
					Rule: "ignore", File: d.file, Line: d.line, Col: 1,
					Message: fmt.Sprintf("whpcvet:ignore %s has no reason; every suppression must say why", strings.Join(d.rules, ",")),
				})
			default:
				bad := false
				for _, r := range d.rules {
					if !known[r] {
						extra = append(extra, Finding{
							Rule: "ignore", File: d.file, Line: d.line, Col: 1,
							Message: fmt.Sprintf("whpcvet:ignore names unknown rule %q", r),
						})
						bad = true
					}
				}
				if !bad {
					valid[file] = append(valid[file], d)
				}
			}
		}
	}
	kept := findings[:0]
	for _, f := range findings {
		if !suppressed(f, valid[f.File]) {
			kept = append(kept, f)
		}
	}
	findings = kept
	if active["staleignore"] {
		for _, file := range files {
			for _, d := range valid[file] {
				if d.used {
					continue
				}
				ran := true
				for _, r := range d.rules {
					if !active[r] {
						ran = false
						break
					}
				}
				if ran {
					extra = append(extra, Finding{
						Rule: "staleignore", File: d.file, Line: d.line, Col: 1,
						Message: fmt.Sprintf("whpcvet:ignore %s suppresses nothing; the finding it silenced is gone — remove the annotation", strings.Join(d.rules, ",")),
					})
				}
			}
		}
	}
	return append(findings, extra...)
}

// suppressed reports whether a directive in ds covers finding f: the
// directive names f's rule and sits on f's line or the line above it.
// Matching directives are marked used for the staleness audit.
func suppressed(f Finding, ds []*ignoreDirective) bool {
	hit := false
	for _, d := range ds {
		if d.line != f.Line && d.line != f.Line-1 {
			continue
		}
		for _, r := range d.rules {
			if r == f.Rule {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}
