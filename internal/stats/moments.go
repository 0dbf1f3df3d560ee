package stats

import (
	"errors"
	"fmt"
	"math"
)

// Moments is the merge-safe sufficient statistic for mean- and
// variance-based tests: the observation count together with the first two
// raw power sums (Σx, Σx²). Two Moments accumulated over disjoint samples
// combine by field-wise addition, which is what lets the partitioned query
// engine compute Welch's t-test (or a mean) without ever collecting raw
// samples in one place.
//
// Determinism contract: Add and Merge use plain (uncompensated) float64
// addition, so the result is a pure function of the order of operations.
// Callers that need byte-identical results must fix that order. The query
// engine adds the rows of each 1024-row partition into a partial and
// merges the partials in partition order, so its addition tree depends on
// the frame's rows alone; a one-pass sum over the same rows may round
// differently.
type Moments struct {
	N     int     // number of observations
	Sum   float64 // Σx
	SumSq float64 // Σx²
}

// Add folds one observation into m.
func (m *Moments) Add(x float64) {
	m.N++
	m.Sum += x
	m.SumSq += x * x
}

// Merge folds another partial into m. Merging partials over disjoint
// samples in a fixed order is equivalent to accumulating the concatenated
// sample partition by partition.
func (m *Moments) Merge(o Moments) {
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// MomentsOf accumulates xs left to right into a Moments partial.
func MomentsOf(xs []float64) Moments {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m
}

// Mean returns the arithmetic mean Σx / n.
func (m Moments) Mean() (float64, error) {
	if m.N == 0 {
		return 0, ErrEmpty
	}
	return m.Sum / float64(m.N), nil
}

// Variance returns the unbiased (n-1 denominator) sample variance computed
// from the power sums: (Σx² - (Σx)²/n) / (n-1). Cancellation can push the
// numerator a few ULPs below zero for near-constant samples, so the result
// is clamped at 0 — a variance is non-negative by definition.
func (m Moments) Variance() (float64, error) {
	if m.N < 2 {
		if m.N == 0 {
			return 0, ErrEmpty
		}
		return 0, ErrTooFew
	}
	n := float64(m.N)
	v := (m.SumSq - m.Sum*m.Sum/n) / (n - 1)
	if v < 0 {
		v = 0
	}
	return v, nil
}

// WelchTTestFromMoments performs Welch's two-sample t-test from sufficient
// statistics instead of raw samples. It mirrors WelchTTest's error
// contract: each group needs at least two observations (ErrTooFew), and two
// constant samples leave the standard error undefined. The statistic is a
// deterministic function of the two partials, so any execution strategy
// that reproduces the same partials — single process or scatter-gather —
// reports byte-identical t, df and p.
func WelchTTestFromMoments(x, y Moments) (TTestResult, error) {
	if x.N < 2 || y.N < 2 {
		return TTestResult{}, fmt.Errorf("stats: Welch t-test needs >=2 observations per group (got %d, %d): %w", x.N, y.N, ErrTooFew)
	}
	mx, _ := x.Mean()
	my, _ := y.Mean()
	vx, _ := x.Variance()
	vy, _ := y.Variance()
	nx, ny := float64(x.N), float64(y.N)
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
		NX:     x.N,
		NY:     y.N,
		Welch:  true,
	}, nil
}
