package stats

import (
	"fmt"
	"math"
)

// MannWhitneyResult reports the Mann-Whitney U test (Wilcoxon rank-sum),
// the distribution-free companion to Welch's t-test for the paper's
// heavy-tailed citation and publication samples, where a single outlier
// (the >450-citation paper) can swing a mean-based test.
type MannWhitneyResult struct {
	U  float64 // U statistic of the first sample
	Z  float64 // normal approximation with tie correction
	P  float64 // two-sided p-value (normal approximation)
	N1 int
	N2 int
	// RankBiserial is the rank-biserial correlation effect size,
	// r = 1 - 2U/(n1*n2), in [-1, 1].
	RankBiserial float64
}

// MannWhitneyU runs the two-sided Mann-Whitney U test with the normal
// approximation (appropriate for the paper's sample sizes; n >= 8 per
// group recommended) and the standard tie correction.
func MannWhitneyU(x, y []float64) (MannWhitneyResult, error) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{}, ErrEmpty
	}
	if n1 < 2 || n2 < 2 {
		return MannWhitneyResult{}, fmt.Errorf("stats: Mann-Whitney needs >=2 per group (got %d, %d): %w", n1, n2, ErrTooFew)
	}
	pooled := make([]float64, 0, n1+n2)
	pooled = append(pooled, x...)
	pooled = append(pooled, y...)
	ranks := Ranks(pooled)

	var r1 float64
	for i := 0; i < n1; i++ {
		r1 += ranks[i]
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	nn := float64(n1) * float64(n2)

	// Tie correction to the variance.
	n := float64(n1 + n2)
	tieSum := tieCorrection(pooled)
	variance := nn / 12 * (n + 1 - tieSum/(n*(n-1)))
	if variance <= 0 {
		return MannWhitneyResult{}, ErrTied
	}
	mean := nn / 2
	// Continuity correction toward the mean.
	diff := u1 - mean
	cc := 0.5
	if diff < 0 {
		cc = -0.5
	}
	if diff == 0 { //whpcvet:ignore floatcmp rank sums are half-integer exact, so 0 is exactly representable
		cc = 0
	}
	z := (diff - cc) / math.Sqrt(variance)
	p := 2 * (1 - StdNormal.CDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{
		U:            u1,
		Z:            z,
		P:            p,
		N1:           n1,
		N2:           n2,
		RankBiserial: 1 - 2*u1/nn,
	}, nil
}

// tieCorrection returns sum over tie groups of (t^3 - t).
func tieCorrection(xs []float64) float64 {
	counts := make(map[float64]int, len(xs))
	for _, x := range xs {
		counts[x]++
	}
	// Integer terms make the sum exact, so map iteration order cannot
	// change its rounding.
	sum := 0
	for _, t := range counts {
		if t > 1 {
			sum += t*t*t - t
		}
	}
	return float64(sum)
}
