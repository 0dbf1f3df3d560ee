package lint

import (
	"strings"
	"testing"
)

// vetFixture type-checks src as a single-file package at pkgPath and runs
// exactly one analyzer over it, returning the surviving findings.
func vetFixture(t *testing.T, rule, pkgPath, src string) []Finding {
	t.Helper()
	pkg, err := LoadSource(pkgPath, map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	a := AnalyzerByName(rule)
	if a == nil {
		t.Fatalf("unknown rule %q", rule)
	}
	return Vet([]*Package{pkg}, []*Analyzer{a})
}

// wantFindings asserts the findings hit exactly the expected lines (in any
// order) for the given rule.
func wantFindings(t *testing.T, got []Finding, rule string, lines ...int) {
	t.Helper()
	want := make(map[int]bool, len(lines))
	for _, l := range lines {
		want[l] = true
	}
	seen := make(map[int]bool)
	for _, f := range got {
		if f.Rule != rule {
			t.Errorf("unexpected rule %q in finding %s", f.Rule, f)
			continue
		}
		if !want[f.Line] {
			t.Errorf("unexpected finding: %s", f)
		}
		seen[f.Line] = true
	}
	for _, l := range lines {
		if !seen[l] {
			t.Errorf("no %s finding on line %d (got %v)", rule, l, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	as := Analyzers()
	if len(as) != 12 {
		t.Fatalf("registry has %d analyzers, want 12", len(as))
	}
	names := make(map[string]bool)
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || (a.Run == nil && a.RunModule == nil) {
			t.Errorf("analyzer %+v incompletely registered", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if AnalyzerByName(a.Name) != nil && AnalyzerByName(a.Name).Name != a.Name {
			t.Errorf("AnalyzerByName(%q) mismatch", a.Name)
		}
	}
	if AnalyzerByName("nosuchrule") != nil {
		t.Error("AnalyzerByName invented a rule")
	}
}

func TestDeterminism(t *testing.T) {
	const src = `package fix

import (
	"math/rand/v2"
	"time"
)

func Bad() time.Time { return time.Now() }

func BadSleep() { time.Sleep(time.Second) }

func BadRand() int { return rand.IntN(10) }

func GoodSeeded(r *rand.Rand) int { return r.IntN(10) }

func GoodCtor() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func Suppressed() time.Time {
	return time.Now() //whpcvet:ignore determinism wall clock feeds a log line only
}
`
	got := vetFixture(t, "determinism", "repro/internal/core", src)
	wantFindings(t, got, "determinism", 8, 10, 12)
}

func TestDeterminismWallClockAllowedInResilience(t *testing.T) {
	const src = `package fix

import (
	"math/rand/v2"
	"time"
)

func WallClockHome() time.Time { return time.Now() }

func StillNoGlobalRand() int { return rand.IntN(10) }
`
	// The wall-clock rule yields inside internal/resilience (WallClock's
	// home) but the global-rand rule does not.
	got := vetFixture(t, "determinism", "repro/internal/resilience", src)
	wantFindings(t, got, "determinism", 10)
}

// TestDeterminismWallClockMethods loads the on-disk clockabuse fixture (it
// needs a second package — the real internal/resilience — so the in-memory
// single-file loader cannot host it) and asserts the analyzer flags method
// calls on a concrete WallClock value while accepting interface-mediated
// reads and bare construction. The testdata directory is invisible to
// ./... patterns, so the self-host test stays clean.
func TestDeterminismWallClockMethods(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/lint/testdata/clockabuse")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	got := Vet(pkgs, []*Analyzer{DeterminismAnalyzer()})
	wantFindings(t, got, "determinism", 16, 22)
}

func TestMapOrder(t *testing.T) {
	const src = `package fix

import (
	"fmt"
	"io"
	"sort"
)

func BadAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BadOutput(m map[string]int, w io.Writer) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func BadFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

func BadSend(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v
	}
}

func GoodSortedAfter(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func GoodIntSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func GoodSliceRange(xs []string, w io.Writer) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}

func Suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //whpcvet:ignore maporder callers sort; kept for the suppression fixture
	}
	return out
}
`
	got := vetFixture(t, "maporder", "repro/internal/report", src)
	wantFindings(t, got, "maporder", 12, 19, 26, 33)
}

func TestMapOrderScope(t *testing.T) {
	const src = `package fix

func Bad(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	// maporder's scope is the whole module: packages outside the old
	// exhibit-path list, like internal/stats, are checked too.
	for _, path := range []string{"repro/internal/stats", "repro/internal/lint", "repro"} {
		pkg, err := LoadSource(path, map[string]string{"fixture.go": src})
		if err != nil {
			t.Fatal(err)
		}
		if got := Vet([]*Package{pkg}, []*Analyzer{MapOrderAnalyzer()}); len(got) != 1 {
			t.Errorf("%s: maporder findings = %v, want the one append", path, got)
		}
	}
}

func TestFloatCmp(t *testing.T) {
	const src = `package fix

func BadEq(a, b float64) bool { return a == b }

func BadNeq(a float64) bool { return a != 0 }

func BadSwitch(x float64) int {
	switch x {
	case 1.0:
		return 1
	}
	return 0
}

func GoodNaNIdiom(x float64) bool { return x != x }

func GoodInt(a, b int) bool { return a == b }

func GoodOrdered(a, b float64) bool { return a < b }

func Suppressed(p float64) bool {
	return p == 0.5 //whpcvet:ignore floatcmp exact median sentinel for the fixture
}
`
	got := vetFixture(t, "floatcmp", "repro/internal/stats", src)
	wantFindings(t, got, "floatcmp", 3, 5, 8)
}

func TestErrCheck(t *testing.T) {
	const src = `package fix

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

func mayFail() error { return errors.New("x") }

func Bad() {
	mayFail()
}

func BadDefer() {
	defer mayFail()
}

func BadGo() {
	go mayFail()
}

func Good(w io.Writer) error {
	_ = mayFail()
	fmt.Fprintf(w, "ok")
	var b strings.Builder
	b.WriteString("ok")
	if err := mayFail(); err != nil {
		return err
	}
	return mayFail()
}

func Suppressed() {
	mayFail() //whpcvet:ignore errcheck fixture demonstrates an acknowledged discard
}
`
	got := vetFixture(t, "errcheck", "repro/internal/anything", src)
	wantFindings(t, got, "errcheck", 13, 17, 21)
}

func TestLockSafe(t *testing.T) {
	const src = `package fix

import "sync"

type G struct {
	mu sync.Mutex
	cb func()
	ch chan int
}

func (g *G) BadCallback() {
	g.mu.Lock()
	g.cb()
	g.mu.Unlock()
}

func (g *G) BadSend() {
	g.mu.Lock()
	g.ch <- 1
	g.mu.Unlock()
}

func (g *G) BadDeferred() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cb()
}

func (g *G) GoodAfterUnlock() {
	g.mu.Lock()
	g.mu.Unlock()
	g.cb()
	g.ch <- 2
}

func (g *G) GoodMethodCall() {
	g.mu.Lock()
	g.helper()
	g.mu.Unlock()
}

func (g *G) helper() {}

func (g *G) Suppressed() {
	g.mu.Lock()
	g.cb() //whpcvet:ignore locksafe callback is documented re-entrancy-safe in the fixture
	g.mu.Unlock()
}
`
	got := vetFixture(t, "locksafe", "repro/internal/resilience", src)
	wantFindings(t, got, "locksafe", 13, 19, 26)
}

func TestExhibitDocRootPackage(t *testing.T) {
	const src = `package fix

// Documented has a doc comment.
func Documented() {}

func Undocumented() {}

// T is a documented type.
type T struct{}

func (T) UndocumentedMethod() {}

type Bare struct{}

var Exposed int

var internal int

func unexported() { _ = internal }

func SuppressedFn() {} //whpcvet:ignore exhibitdoc fixture helper, excluded from the API audit
`
	got := vetFixture(t, "exhibitdoc", "repro", src)
	wantFindings(t, got, "exhibitdoc", 6, 11, 13, 15)
}

func TestExhibitDocCoreConstructorsOnly(t *testing.T) {
	const src = `package fix

// DocumentedCtor computes a documented exhibit.
func DocumentedCtor() int { return 0 }

func UndocumentedCtor() int { return 0 }

type BareType struct{}

func (BareType) BareMethod() {}

var BareVar int
`
	// In internal/core only plain exported functions (the exhibit
	// constructors) need docs; types, vars and methods are out of scope.
	got := vetFixture(t, "exhibitdoc", "repro/internal/core", src)
	wantFindings(t, got, "exhibitdoc", 6)
}

func TestDeadFunc(t *testing.T) {
	const src = `package fix

func unusedHelper() int { return 1 }

func selfOnly(n int) int {
	if n == 0 {
		return 0
	}
	return selfOnly(n - 1)
}

func valueOnly(a, b int) bool { return a < b }

func inferred[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func explicit[T any](x T) T { return x }

type S struct{}

func (S) unusedMethod() {}

func init() {}

func main() {}

func Exported() int {
	less := valueOnly
	if less(1, 2) {
		return inferred(1, 2)
	}
	return len(explicit[string]("x"))
}

func suppressed() {} //whpcvet:ignore deadfunc fixture keeps it to test the annotation
`
	got := vetFixture(t, "deadfunc", "repro/internal/anything", src)
	wantFindings(t, got, "deadfunc", 3, 5)
}

func TestIgnoreAnnotationHygiene(t *testing.T) {
	const src = `package fix

import "errors"

func mayFail() error { return errors.New("x") }

func NoReason() {
	mayFail() //whpcvet:ignore errcheck
}

func UnknownRule() {
	mayFail() //whpcvet:ignore nosuchrule because I said so
}
`
	got := vetFixture(t, "errcheck", "repro/internal/anything", src)
	var ignoreFindings, errcheckFindings int
	for _, f := range got {
		switch f.Rule {
		case "ignore":
			ignoreFindings++
		case "errcheck":
			errcheckFindings++
		}
	}
	// The reason-less annotation is rejected (and therefore does not
	// suppress), the unknown rule is reported, and both discarded errors
	// still surface.
	if ignoreFindings != 2 {
		t.Errorf("%d ignore-hygiene findings, want 2: %v", ignoreFindings, got)
	}
	if errcheckFindings != 2 {
		t.Errorf("%d errcheck findings, want 2 (bad annotations must not suppress): %v", errcheckFindings, got)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: "floatcmp", File: "x.go", Line: 3, Col: 7, Message: "raw equality"}
	if got := f.String(); !strings.Contains(got, "x.go:3:7") || !strings.Contains(got, "[floatcmp]") {
		t.Errorf("Finding.String() = %q", got)
	}
}

// TestRepositoryIsClean self-hosts the full suite over the real module: the
// acceptance bar for every PR is that the tree carries zero unsuppressed
// findings. A regression here means a determinism, float-safety, or
// concurrency invariant was broken somewhere in the pipeline.
func TestRepositoryIsClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(pkgs))
	}
	findings := Vet(pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
