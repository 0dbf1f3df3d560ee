package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestWelchTTestKnownExample(t *testing.T) {
	// Analytic example: x = 1..5, y = 2,4,..,10.
	// mean(x)=3, mean(y)=6, var(x)=2.5, var(y)=10.
	// se = sqrt(2.5/5 + 10/5) = sqrt(2.5); t = -3/sqrt(2.5) = -1.897366596...
	// df = 2.5^2 / (0.5^2/4 + 2^2/4) = 6.25/1.0625 = 5.882352941...
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := WelchTTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "t", r.T, -3/math.Sqrt(2.5), 1e-12)
	approx(t, "df", r.DF, 6.25/1.0625, 1e-12)
	approx(t, "meanX", r.MeanX, 3, 0)
	approx(t, "meanY", r.MeanY, 6, 0)
	// R: t.test(1:5, seq(2,10,2)) gives p-value = 0.1075 (4 s.f.).
	approx(t, "p", r.P, 0.1075, 5e-4)
	// Independent sanity band from t tables: t_{0.95, 6} = 1.943, so the
	// one-sided p of |t| = 1.897 at df ~ 5.9 sits just above 0.05.
	if r.P < 0.09 || r.P > 0.13 {
		t.Errorf("p = %g outside sanity band [0.09, 0.13]", r.P)
	}
	if r.CILow >= r.CIHigh {
		t.Errorf("CI inverted: [%g, %g]", r.CILow, r.CIHigh)
	}
	// The 95% CI must contain the observed difference -3.
	if r.CILow > -3 || r.CIHigh < -3 {
		t.Errorf("CI [%g, %g] does not contain the point estimate -3", r.CILow, r.CIHigh)
	}
	if !r.Welch || r.Pooled {
		t.Error("method flags wrong")
	}
}

func TestWelchTTestSymmetry(t *testing.T) {
	x := []float64{3.1, 4.5, 2.2, 8.0, 5.5, 4.4}
	y := []float64{7.3, 6.1, 9.9, 5.0}
	a, err := WelchTTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WelchTTest(y, x)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "t antisymmetry", a.T, -b.T, 1e-12)
	approx(t, "df symmetric", a.DF, b.DF, 1e-12)
	approx(t, "p symmetric", a.P, b.P, 1e-12)
}

func TestWelchTTestIdenticalGroupsNotSignificant(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	r, err := WelchTTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r.P < 0.001 {
		t.Errorf("two samples from N(0,1) rejected with p = %g", r.P)
	}
}

func TestWelchTTestDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	x := make([]float64, 150)
	y := make([]float64, 150)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() + 1.0
	}
	r, err := WelchTTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Significant(0.001) {
		t.Errorf("unit shift with n=150 not detected, p = %g", r.P)
	}
	if r.T >= 0 {
		t.Errorf("t should be negative for mean(x) < mean(y), got %g", r.T)
	}
}

func TestWelchTTestErrors(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want error for n < 2")
	}
	if _, err := WelchTTest(nil, []float64{1, 2}); err == nil {
		t.Error("want error for empty sample")
	}
	if _, err := WelchTTest([]float64{2, 2, 2}, []float64{5, 5}); err == nil {
		t.Error("want error for two constant samples")
	}
}

func TestPooledTTestKnownExample(t *testing.T) {
	// Same data as the Welch example; pooled df = 8,
	// sp2 = (4*2.5 + 4*10)/8 = 6.25, se = sqrt(6.25*(2/5)) = sqrt(2.5).
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := PooledTTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "t", r.T, -3/math.Sqrt(2.5), 1e-12)
	approx(t, "df", r.DF, 8, 0)
	// R: t.test(..., var.equal=TRUE) gives p-value = 0.09434.
	approx(t, "p", r.P, 0.09434, 5e-4)
}

func TestPooledEqualsWelchForBalancedEqualVariance(t *testing.T) {
	// With equal n and equal sample variances the two tests coincide
	// (identical t and df).
	x := []float64{1, 2, 3, 4}
	y := []float64{11, 12, 13, 14}
	w, err := WelchTTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PooledTTest(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "t equal", w.T, p.T, 1e-12)
	approx(t, "df equal", w.DF, p.DF, 1e-9)
	approx(t, "p equal", w.P, p.P, 1e-9)
}

func TestTTestResultString(t *testing.T) {
	r := TTestResult{Method: "Welch two-sample t-test", T: -2.18, DF: 86, P: 0.032}
	got := r.String()
	want := "Welch two-sample t-test: t = -2.18, df = 86, p = 0.032"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
