package stats

import (
	"fmt"
	"math"
	"sort"
)

// CorrelationResult reports a correlation test in the paper's style:
// "r = 0.334, p < 0.0001".
type CorrelationResult struct {
	R      float64
	T      float64 // t statistic of the test against rho = 0
	DF     float64
	P      float64 // two-sided p-value
	N      int
	Method string
}

// String formats the result in the paper's reporting style.
func (r CorrelationResult) String() string {
	return fmt.Sprintf("%s: r = %.4g, df = %.4g, p = %.4g", r.Method, r.R, r.DF, r.P)
}

// PearsonCorrelation computes Pearson's product-moment correlation
// coefficient between x and y with the standard t-based two-sided test of
// rho = 0 — the test the paper uses to compare Google Scholar against
// Semantic Scholar publication counts (r = 0.334, p < 0.0001).
func PearsonCorrelation(x, y []float64) (CorrelationResult, error) {
	if len(x) != len(y) {
		return CorrelationResult{}, fmt.Errorf("stats: correlation needs equal-length samples (got %d, %d)", len(x), len(y))
	}
	n := len(x)
	if n < 3 {
		return CorrelationResult{}, fmt.Errorf("stats: correlation needs >=3 pairs (got %d): %w", n, ErrTooFew)
	}
	mx, my := MustMean(x), MustMean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if AlmostZero(sxx) || AlmostZero(syy) {
		return CorrelationResult{}, fmt.Errorf("stats: correlation undefined for a constant sample")
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp rounding excursions outside [-1, 1] before the t transform.
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	df := float64(n - 2)
	var t, p float64
	if math.Abs(r) == 1 { //whpcvet:ignore floatcmp r clamped to exactly ±1 above; equality is exact by construction
		t = math.Inf(1) * math.Copysign(1, r)
		p = 0
	} else {
		t = r * math.Sqrt(df/(1-r*r))
		p = StudentsT{DF: df}.TwoSidedP(t)
	}
	return CorrelationResult{
		R:      r,
		T:      t,
		DF:     df,
		P:      p,
		N:      n,
		Method: "Pearson product-moment correlation",
	}, nil
}

// Ranks returns the fractional ranks of xs (1-based, ties get the average
// of the ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] { //whpcvet:ignore floatcmp rank ties are exact duplicates of input values
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
