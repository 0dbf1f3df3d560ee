package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by descriptive statistics that require at least one
// observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrTooFew is returned when a sample is too small for the requested
// statistic (e.g. variance of a single observation).
var ErrTooFew = errors.New("stats: sample too small")

// ErrTied means every value of a rank test's pooled samples is tied, so
// the test has no variance.
var ErrTied = errors.New("stats: Mann-Whitney degenerate (all values tied)")

// Sum returns the sum of xs. Sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	// Kahan compensated summation: the experience and citation vectors in
	// the corpus span several orders of magnitude, so naive summation can
	// lose low-order bits that later show up as test flakiness.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// MustMean is Mean for callers that have already validated the input.
// It panics on an empty sample.
func MustMean(xs []float64) float64 {
	m, err := Mean(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		if len(xs) == 0 {
			return 0, ErrEmpty
		}
		return 0, ErrTooFew
	}
	m := MustMean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max, nil
}

// Median returns the sample median of xs (the average of the two middle
// order statistics for even n).
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the p-th sample quantile of xs using linear interpolation
// between order statistics (R's default "type 7" definition), for p in
// [0, 1].
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, errors.New("stats: quantile probability outside [0, 1]")
	}
	return quantileSorted(sortedCopy(xs), p), nil
}

// sortedCopy returns xs sorted ascending, leaving xs untouched. Callers
// that need several quantiles of one sample sort once and share the copy.
func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// quantileSorted is Quantile's type-7 interpolation over a non-empty,
// already sorted sample and a p in [0, 1].
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Skewness returns the adjusted Fisher-Pearson sample skewness of xs.
// The paper observes that all experience distributions are right-skewed;
// this statistic is what the end-to-end tests assert that on.
func Skewness(xs []float64) (float64, error) {
	n := float64(len(xs))
	if len(xs) < 3 {
		if len(xs) == 0 {
			return 0, ErrEmpty
		}
		return 0, ErrTooFew
	}
	m := MustMean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if AlmostZero(m2) {
		return 0, ErrTooFew
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2), nil
}

// Summary bundles the descriptive statistics reported throughout the paper
// for a single sample.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64
	Skewness float64
}

// Summarize computes a Summary of xs. Fields that need more observations
// than provided (StdDev for n<2, Skewness for n<3) are left as NaN.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs)}
	s.Mean = MustMean(xs)
	s.Min, _ = Min(xs)
	s.Max, _ = Max(xs)
	sorted := sortedCopy(xs)
	s.Q1 = quantileSorted(sorted, 0.25)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q3 = quantileSorted(sorted, 0.75)
	if sd, err := StdDev(xs); err == nil {
		s.StdDev = sd
	} else {
		s.StdDev = math.NaN()
	}
	if sk, err := Skewness(xs); err == nil {
		s.Skewness = sk
	} else {
		s.Skewness = math.NaN()
	}
	return s, nil
}
