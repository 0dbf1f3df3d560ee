package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := PearsonCorrelation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r.R, 1, 1e-12)
	approx(t, "p", r.P, 0, 1e-12)
	neg := []float64{10, 8, 6, 4, 2}
	r, err = PearsonCorrelation(x, neg)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r.R, -1, 1e-12)
}

func TestPearsonKnownExample(t *testing.T) {
	// Hand computation: x = 1..5, y = {1,2,2,4,5}: r = 10/sqrt(108).
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 2, 2, 4, 5}
	r, err := PearsonCorrelation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "r", r.R, 10/math.Sqrt(108), 1e-12)
	approx(t, "df", r.DF, 3, 0)
	// R: cor.test gives t = 6.1237, p = 0.008739.
	approx(t, "t", r.T, 6.123724356957945, 1e-9)
	approx(t, "p", r.P, 0.008739, 5e-5)
}

func TestPearsonSymmetryAndInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	x := make([]float64, 60)
	y := make([]float64, 60)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 0.5*x[i] + rng.NormFloat64()
	}
	a, err := PearsonCorrelation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PearsonCorrelation(y, x)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "symmetry", a.R, b.R, 1e-12)
	// Correlation is invariant to positive affine transforms.
	z := make([]float64, len(y))
	for i := range y {
		z[i] = 3*y[i] + 7
	}
	c, err := PearsonCorrelation(x, z)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "affine invariance", a.R, c.R, 1e-12)
	// Negation flips the sign.
	for i := range z {
		z[i] = -y[i]
	}
	d, err := PearsonCorrelation(x, z)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "negation", a.R, -d.R, 1e-12)
}

func TestPearsonErrors(t *testing.T) {
	if _, err := PearsonCorrelation([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := PearsonCorrelation([]float64{1, 2}, []float64{3, 4}); err == nil {
		t.Error("want error for n < 3")
	}
	if _, err := PearsonCorrelation([]float64{5, 5, 5}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for constant sample")
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 4))
	x := make([]float64, 500)
	y := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	r, err := PearsonCorrelation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.R) > 0.15 {
		t.Errorf("independent normals gave r = %g", r.R)
	}
	if r.P < 0.001 {
		t.Errorf("independent normals rejected at p = %g", r.P)
	}
}

// Spearman's rho is Pearson's r on fractional ranks; the two tests below
// pin Ranks through that use.

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone (even nonlinear) relation gives rho = 1.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v) // wildly nonlinear but monotone
	}
	r, err := PearsonCorrelation(Ranks(x), Ranks(y))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "spearman rho", r.R, 1, 1e-12)
	p, err := PearsonCorrelation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p.R >= r.R {
		t.Errorf("Pearson (%g) should be below Spearman (%g) on convex data", p.R, r.R)
	}
}

func TestSpearmanOutlierRobust(t *testing.T) {
	// One massive outlier (the paper's 450-citation paper) distorts
	// Pearson far more than Spearman.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := []float64{2, 1, 4, 3, 6, 5, 8, 7, 10, 450}
	pe, err := PearsonCorrelation(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := PearsonCorrelation(Ranks(x), Ranks(y))
	if err != nil {
		t.Fatal(err)
	}
	if !(sp.R > 0.8) {
		t.Errorf("Spearman should stay high under one outlier, got %g", sp.R)
	}
	if math.Abs(pe.R-sp.R) < 0.05 {
		t.Errorf("expected Pearson (%g) and Spearman (%g) to diverge", pe.R, sp.R)
	}
}
