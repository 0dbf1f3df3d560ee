package stats

import (
	"errors"
	"math"
	"slices"
)

// KDE is a one-dimensional Gaussian kernel density estimate, the tool behind
// the paper's density plots (Figs 2-5: citation and experience distributions
// by gender and role).
//
// The experience samples are integer counts with heavy ties, so the
// estimate keeps the sample's distinct values (uniq) and maps each
// observation to its value (at). Evaluation computes one kernel term per
// distinct value and then sums the terms in the original sample order:
// every term and every addition is the one the per-sample loop performed,
// so densities are bit-for-bit unchanged.
//
// Evaluate sums several grid points' terms in one pass over the sample,
// each point's in sample order. When every sample is finite, uniq is
// sorted by value, and Evaluate, whose grid ascends, computes only the
// terms of the window of values within cutoff bandwidths of its grid
// points. Every term outside it is exactly 0, as exp underflows, so it is
// left 0 and its exp skipped.
type KDE struct {
	xs        []float64
	uniq      []float64
	at        []int32
	sorted    bool // uniq ascends by value
	bandwidth float64
	invH      float64
	norm      float64
}

// cutoff is the |z| past which the kernel term exp(-z²/2) is exactly 0:
// exp(-800) is below the smallest subnormal float64.
const cutoff = 40

// BandwidthRule selects the KDE bandwidth heuristic.
type BandwidthRule int

const (
	// Silverman is Silverman's rule of thumb, R's bw.nrd0 — the default
	// used by ggplot2's geom_density, and therefore by the paper's plots.
	Silverman BandwidthRule = iota
	// Scott is Scott's rule, kept for the bandwidth ablation bench.
	Scott
)

// NewKDE builds a Gaussian KDE over xs with the given bandwidth rule.
func NewKDE(xs []float64, rule BandwidthRule) (*KDE, error) {
	if len(xs) < 2 {
		return nil, errors.New("stats: KDE needs at least 2 observations")
	}
	bw, err := bandwidth(xs, rule)
	if err != nil {
		return nil, err
	}
	return newKDE(xs, bw), nil
}

// NewKDEWithBandwidth builds a KDE with an explicit bandwidth h > 0.
func NewKDEWithBandwidth(xs []float64, h float64) (*KDE, error) {
	if len(xs) < 1 {
		return nil, ErrEmpty
	}
	if h <= 0 || math.IsNaN(h) {
		return nil, errors.New("stats: KDE bandwidth must be positive")
	}
	return newKDE(xs, h), nil
}

// newKDE copies the sample and indexes its distinct values. Values are
// keyed by their bit pattern, so -0/+0 and distinct NaN payloads keep
// separate terms, exactly as the per-sample loop treated them.
func newKDE(xs []float64, h float64) *KDE {
	k := &KDE{
		xs:        append([]float64(nil), xs...),
		at:        make([]int32, len(xs)),
		bandwidth: h,
	}
	index := make(map[uint64]int32)
	finite := true
	for i, x := range xs {
		bits := math.Float64bits(x)
		j, ok := index[bits]
		if !ok {
			j = int32(len(k.uniq))
			index[bits] = j
			k.uniq = append(k.uniq, x)
			finite = finite && isFinite(x)
		}
		k.at[i] = j
	}
	k.invH = 1 / h
	k.norm = k.invH / (float64(len(xs)) * math.Sqrt(2*math.Pi))
	if finite && isFinite(k.invH) {
		k.sortUniq(index)
	}
	return k
}

// isFinite reports whether x is neither infinite nor NaN.
func isFinite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// sortUniq orders the distinct values by value and renumbers at to match,
// through index, which maps each value's bits to its old number.
func (k *KDE) sortUniq(index map[uint64]int32) {
	slices.Sort(k.uniq)
	rank := make([]int32, len(k.uniq))
	for r, u := range k.uniq {
		rank[index[math.Float64bits(u)]] = int32(r)
	}
	for i, j := range k.at {
		k.at[i] = rank[j]
	}
	k.sorted = true
}

func bandwidth(xs []float64, rule BandwidthRule) (float64, error) {
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	sorted := sortedCopy(xs)
	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
	n := float64(len(xs))
	// Robust spread estimate per bw.nrd0: min(sd, IQR/1.349), falling back
	// to sd when the IQR collapses (heavily tied samples).
	spread := sd
	if iqr > 0 && iqr/1.349 < spread {
		spread = iqr / 1.349
	}
	if AlmostZero(spread) {
		// Constant sample: degenerate density; pick a tiny positive width
		// so evaluation is still defined.
		spread = 1e-9
	}
	switch rule {
	case Silverman:
		return 0.9 * spread * math.Pow(n, -0.2), nil
	case Scott:
		return 1.06 * spread * math.Pow(n, -0.2), nil
	default:
		return 0, errors.New("stats: unknown bandwidth rule")
	}
}

// Bandwidth returns the bandwidth in use.
func (k *KDE) Bandwidth() float64 { return k.bandwidth }

// PDF evaluates the density estimate at x.
func (k *KDE) PDF(x float64) float64 {
	return k.density(x, make([]float64, len(k.uniq)))
}

// density evaluates the estimate at x, using terms (len(k.uniq)) as
// scratch for the per-value kernel terms.
//
//whpcvet:hot
func (k *KDE) density(x float64, terms []float64) float64 {
	for j, u := range k.uniq {
		z := (x - u) * k.invH
		terms[j] = math.Exp(-0.5 * z * z)
	}
	var sum float64
	for _, j := range k.at {
		sum += terms[j]
	}
	return sum * k.norm
}

// lanes is how many grid points Evaluate carries through one pass over
// the sample. Each point keeps its own sum, added to in sample order, so
// its bits are the one-point loop's; the sums do not depend on each
// other, so the CPU overlaps their additions instead of waiting on one
// addition at a time.
const lanes = 4

// Evaluate returns the density sampled at n evenly spaced points covering
// [min-3h, max+3h], the convention R's density() uses (cut = 3).
//
//whpcvet:hot
func (k *KDE) Evaluate(n int) (xs, ys []float64) {
	if n < 2 {
		n = 2
	}
	lo, _ := Min(k.xs)
	hi, _ := Max(k.xs)
	lo -= 3 * k.bandwidth
	hi += 3 * k.bandwidth
	xs = make([]float64, n)
	ys = make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	// terms[j][l] is value j's kernel term at lane l's grid point.
	terms := make([][lanes]float64, len(k.uniq))
	// [a, b) is the window of sorted values whose terms are computed; z
	// falls as the value rises and rises with the grid point, so both ends
	// only move up. A grid that is not finite computes every term.
	windowed := k.sorted && isFinite(lo) && isFinite(step)
	a, b := 0, len(k.uniq)
	if windowed {
		b = 0
	}
	for i := 0; i < n; i += lanes {
		// Lanes past the grid's end compute points nobody reads.
		var x [lanes]float64
		for l := range x {
			x[l] = lo + float64(i+l)*step
		}
		if windowed {
			for b < len(k.uniq) && (x[lanes-1]-k.uniq[b])*k.invH >= -cutoff {
				b++
			}
			for a < b && (x[0]-k.uniq[a])*k.invH > cutoff {
				terms[a] = [lanes]float64{}
				a++
			}
		}
		for j := a; j < b; j++ {
			u := k.uniq[j]
			for l, xl := range x {
				z := (xl - u) * k.invH
				terms[j][l] = math.Exp(-0.5 * z * z)
			}
		}
		var s0, s1, s2, s3 float64
		for _, j := range k.at {
			t := &terms[j]
			s0 += t[0]
			s1 += t[1]
			s2 += t[2]
			s3 += t[3]
		}
		for l, sum := range [lanes]float64{s0, s1, s2, s3} {
			if i+l < n {
				ys[i+l] = sum * k.norm
			}
		}
	}
	return xs, ys
}

// Integrate approximates the integral of the density over [lo, hi] with the
// trapezoid rule on n panels. Used by the property tests to check that the
// estimate integrates to approximately 1.
//
//whpcvet:hot
func (k *KDE) Integrate(lo, hi float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	terms := make([]float64, len(k.uniq))
	step := (hi - lo) / float64(n)
	sum := (k.density(lo, terms) + k.density(hi, terms)) / 2
	for i := 1; i < n; i++ {
		sum += k.density(lo+float64(i)*step, terms)
	}
	return sum * step
}
