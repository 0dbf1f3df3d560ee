package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestProportionBasics(t *testing.T) {
	p := Proportion{K: 9, N: 91}
	approx(t, "Ratio", p.Ratio(), 9.0/91, 1e-15)
	approx(t, "Percent", p.Percent(), 900.0/91, 1e-12)
	if !p.Valid() {
		t.Error("valid proportion flagged invalid")
	}
	if (Proportion{K: 5, N: 3}).Valid() {
		t.Error("K > N should be invalid")
	}
	if (Proportion{K: -1, N: 3}).Valid() {
		t.Error("negative K should be invalid")
	}
	if !math.IsNaN((Proportion{}).Ratio()) {
		t.Error("0/0 should be NaN, not 0 — distinguishes no-data cells")
	}
	if s := (Proportion{K: 2, N: 20}).String(); !strings.Contains(s, "2/20") || !strings.Contains(s, "10.00%") {
		t.Errorf("String() = %q", s)
	}
	if s := (Proportion{}).String(); !strings.Contains(s, "n/a") {
		t.Errorf("empty String() = %q", s)
	}
}

func TestWilsonCIProperties(t *testing.T) {
	f := func(k8, n8 uint8) bool {
		n := int(n8%100) + 1
		k := int(k8) % (n + 1)
		p := Proportion{K: k, N: n}
		lo, hi, err := p.WilsonCI(0.95)
		if err != nil {
			return false
		}
		phat := p.Ratio()
		// The Wilson interval always contains the point estimate and stays
		// inside [0, 1].
		return lo >= 0 && hi <= 1 && lo <= phat+1e-12 && hi >= phat-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWilsonCIKnownValue(t *testing.T) {
	// 10 successes out of 100, 95%: Wilson interval approx [0.0552, 0.1744].
	lo, hi, err := Proportion{K: 10, N: 100}.WilsonCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Wilson lo", lo, 0.05522914, 1e-6)
	approx(t, "Wilson hi", hi, 0.17436566, 1e-6)
}

func TestWilsonCIZeroCell(t *testing.T) {
	// The paper's zero-female-session-chair cells: the interval must be
	// informative (nonzero upper bound) even when K = 0.
	lo, hi, err := Proportion{K: 0, N: 15}.WilsonCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 {
		t.Errorf("lower bound %g, want 0", lo)
	}
	if !(hi > 0.1 && hi < 0.35) {
		t.Errorf("upper bound %g outside plausible zero-cell band", hi)
	}
}

func TestWilsonCIErrors(t *testing.T) {
	if _, _, err := (Proportion{K: 5, N: 3}).WilsonCI(0.95); err == nil {
		t.Error("want error for invalid proportion")
	}
	if _, _, err := (Proportion{K: 0, N: 0}).WilsonCI(0.95); err == nil {
		t.Error("want error for empty sample")
	}
	if _, _, err := (Proportion{K: 1, N: 2}).WilsonCI(1.5); err == nil {
		t.Error("want error for confidence outside (0,1)")
	}
}

func TestTwoProportionZTestDirection(t *testing.T) {
	z, p, err := TwoProportionZTest(Proportion{K: 30, N: 100}, Proportion{K: 10, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if z <= 0 {
		t.Errorf("z = %g, want positive for p1 > p2", z)
	}
	if p >= 0.01 {
		t.Errorf("30%% vs 10%% with n=100 each should be significant, p = %g", p)
	}
	if _, _, err := TwoProportionZTest(Proportion{K: 0, N: 0}, Proportion{K: 1, N: 2}); err == nil {
		t.Error("want error for empty group")
	}
	if _, _, err := TwoProportionZTest(Proportion{K: 0, N: 5}, Proportion{K: 0, N: 9}); err == nil {
		t.Error("want error for degenerate pooled proportion")
	}
}

func TestDiffProportionCI(t *testing.T) {
	// Contains the true difference and the point estimate.
	p1 := Proportion{K: 30, N: 100}
	p2 := Proportion{K: 10, N: 100}
	lo, hi, err := DiffProportionCI(p1, p2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	d := p1.Ratio() - p2.Ratio()
	if !(lo < d && d < hi) {
		t.Errorf("CI [%g, %g] does not contain %g", lo, hi, d)
	}
	if lo < -1 || hi > 1 {
		t.Errorf("CI outside [-1, 1]: [%g, %g]", lo, hi)
	}
	// 30%% vs 10%% at n=100 is decisively positive.
	if lo <= 0 {
		t.Errorf("lower bound %g should exclude 0", lo)
	}
	// Zero-cell case stays finite and sensible.
	lo, hi, err = DiffProportionCI(Proportion{K: 0, N: 12}, Proportion{K: 3, N: 20}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0 || hi <= -1 || hi > 1 {
		t.Errorf("zero-cell CI [%g, %g]", lo, hi)
	}
	// Antisymmetry: swapping arguments negates and swaps the bounds.
	l1, u1, _ := DiffProportionCI(p1, p2, 0.95)
	l2, u2, _ := DiffProportionCI(p2, p1, 0.95)
	if math.Abs(l1+u2) > 1e-12 || math.Abs(u1+l2) > 1e-12 {
		t.Errorf("not antisymmetric: [%g,%g] vs [%g,%g]", l1, u1, l2, u2)
	}
	// Errors propagate.
	if _, _, err := DiffProportionCI(Proportion{K: 5, N: 3}, p2, 0.95); err == nil {
		t.Error("invalid proportion accepted")
	}
	if _, _, err := DiffProportionCI(p1, p2, 2); err == nil {
		t.Error("bad confidence accepted")
	}
}
