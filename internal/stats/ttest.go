package stats

import (
	"errors"
	"fmt"
	"math"
)

// TTestResult reports the outcome of a two-sample t-test in the form the
// paper reports them: "t = -2.18, df = 86, p = 0.032".
type TTestResult struct {
	T       float64 // test statistic
	DF      float64 // degrees of freedom (fractional for Welch)
	P       float64 // two-sided p-value
	MeanX   float64
	MeanY   float64
	StdErr  float64 // standard error of the mean difference
	CILow   float64 // 95% confidence interval for mean(x) - mean(y)
	CIHigh  float64
	Method  string
	NX, NY  int
	Welch   bool
	Pooled  bool
	OneSide bool
}

// String formats the result in the paper's reporting style.
func (r TTestResult) String() string {
	return fmt.Sprintf("%s: t = %.4g, df = %.4g, p = %.4g", r.Method, r.T, r.DF, r.P)
}

// Significant reports whether the two-sided p-value is below alpha.
func (r TTestResult) Significant(alpha float64) bool {
	return r.P < alpha
}

// WelchTTest performs Welch's two-sample t-test (unequal variances), the
// test the paper uses for all pairwise group-mean comparisons. The p-value
// is two-sided.
func WelchTTest(x, y []float64) (TTestResult, error) {
	if len(x) < 2 || len(y) < 2 {
		return TTestResult{}, fmt.Errorf("stats: Welch t-test needs >=2 observations per group (got %d, %d): %w", len(x), len(y), ErrTooFew)
	}
	mx, my := MustMean(x), MustMean(y)
	vx, _ := Variance(x)
	vy, _ := Variance(y)
	nx, ny := float64(len(x)), float64(len(y))
	sex2 := vx / nx
	sey2 := vy / ny
	se := math.Sqrt(sex2 + sey2)
	if AlmostZero(se) {
		return TTestResult{}, errors.New("stats: Welch t-test undefined for two constant samples")
	}
	t := (mx - my) / se
	df := (sex2 + sey2) * (sex2 + sey2) /
		(sex2*sex2/(nx-1) + sey2*sey2/(ny-1))
	dist := StudentsT{DF: df}
	p := dist.TwoSidedP(t)
	tcrit := dist.Quantile(0.975)
	return TTestResult{
		T:      t,
		DF:     df,
		P:      p,
		MeanX:  mx,
		MeanY:  my,
		StdErr: se,
		CILow:  (mx - my) - tcrit*se,
		CIHigh: (mx - my) + tcrit*se,
		Method: "Welch two-sample t-test",
		NX:     len(x),
		NY:     len(y),
		Welch:  true,
	}, nil
}

// PooledTTest performs the classical two-sample t-test assuming equal
// variances. Included as a baseline for the ablation bench comparing it
// against Welch's test on the paper's unbalanced groups.
func PooledTTest(x, y []float64) (TTestResult, error) {
	if len(x) < 2 || len(y) < 2 {
		return TTestResult{}, fmt.Errorf("stats: pooled t-test needs >=2 observations per group (got %d, %d): %w", len(x), len(y), ErrTooFew)
	}
	mx, my := MustMean(x), MustMean(y)
	vx, _ := Variance(x)
	vy, _ := Variance(y)
	nx, ny := float64(len(x)), float64(len(y))
	df := nx + ny - 2
	sp2 := ((nx-1)*vx + (ny-1)*vy) / df
	se := math.Sqrt(sp2 * (1/nx + 1/ny))
	if AlmostZero(se) {
		return TTestResult{}, errors.New("stats: pooled t-test undefined for two constant samples")
	}
	t := (mx - my) / se
	dist := StudentsT{DF: df}
	p := dist.TwoSidedP(t)
	tcrit := dist.Quantile(0.975)
	return TTestResult{
		T:      t,
		DF:     df,
		P:      p,
		MeanX:  mx,
		MeanY:  my,
		StdErr: se,
		CILow:  (mx - my) - tcrit*se,
		CIHigh: (mx - my) + tcrit*se,
		Method: "Two-sample pooled t-test",
		NX:     len(x),
		NY:     len(y),
		Pooled: true,
	}, nil
}
