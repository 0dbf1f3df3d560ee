package stats

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/perffloor"
)

func normSample(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestKDEIntegratesToOne(t *testing.T) {
	xs := normSample(300, 42)
	for _, rule := range []BandwidthRule{Silverman, Scott} {
		k, err := NewKDE(xs, rule)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		integral := k.Integrate(lo-6*k.Bandwidth(), hi+6*k.Bandwidth(), 2000)
		approx(t, "KDE integral", integral, 1, 1e-3)
	}
}

func TestKDENonNegativeAndFinite(t *testing.T) {
	xs := []float64{0, 0, 1, 5, 5, 5, 20}
	k, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	gx, gy := k.Evaluate(128)
	if len(gx) != 128 || len(gy) != 128 {
		t.Fatalf("Evaluate returned %d/%d points, want 128", len(gx), len(gy))
	}
	for i, y := range gy {
		if y < 0 || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("density at grid %d (x=%g) is %g", i, gx[i], y)
		}
	}
	// Grid is strictly increasing.
	for i := 1; i < len(gx); i++ {
		if gx[i] <= gx[i-1] {
			t.Fatal("Evaluate grid not increasing")
		}
	}
}

func TestKDEPeaksNearMode(t *testing.T) {
	// Tight cluster at 10 with stragglers: the density at 10 must exceed
	// the density far away.
	xs := []float64{9.8, 9.9, 10, 10.1, 10.2, 30}
	k, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	if !(k.PDF(10) > k.PDF(20)) {
		t.Errorf("PDF(10)=%g should exceed PDF(20)=%g", k.PDF(10), k.PDF(20))
	}
	if !(k.PDF(10) > k.PDF(30)) {
		t.Errorf("PDF(10)=%g should exceed PDF(30)=%g", k.PDF(10), k.PDF(30))
	}
}

func TestKDEBandwidthRules(t *testing.T) {
	xs := normSample(500, 3)
	sil, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	sco, err := NewKDE(xs, Scott)
	if err != nil {
		t.Fatal(err)
	}
	if !(sil.Bandwidth() < sco.Bandwidth()) {
		t.Errorf("Silverman (%g) should be narrower than Scott (%g)", sil.Bandwidth(), sco.Bandwidth())
	}
	// Silverman's rule on a clean normal sample: 0.9 * min(sd, IQR/1.349) * n^-1/5.
	sd, _ := StdDev(xs)
	q1, _ := Quantile(xs, 0.25)
	q3, _ := Quantile(xs, 0.75)
	spread := math.Min(sd, (q3-q1)/1.349)
	approx(t, "Silverman bw", sil.Bandwidth(), 0.9*spread*math.Pow(500, -0.2), 1e-12)
}

func TestKDEExplicitBandwidth(t *testing.T) {
	xs := []float64{1, 2, 3}
	k, err := NewKDEWithBandwidth(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "bw", k.Bandwidth(), 0.5, 0)
	if _, err := NewKDEWithBandwidth(xs, 0); err == nil {
		t.Error("want error for zero bandwidth")
	}
	if _, err := NewKDEWithBandwidth(xs, -1); err == nil {
		t.Error("want error for negative bandwidth")
	}
	if _, err := NewKDEWithBandwidth(nil, 1); err == nil {
		t.Error("want error for empty sample")
	}
	if _, err := NewKDE([]float64{5}, Silverman); err == nil {
		t.Error("want error for single observation")
	}
}

func TestKDEConstantSample(t *testing.T) {
	// Heavily tied sample must not blow up (bw.nrd0 fallback).
	xs := []float64{4, 4, 4, 4, 4, 4}
	k, err := NewKDE(xs, Silverman)
	if err != nil {
		t.Fatal(err)
	}
	if k.Bandwidth() <= 0 {
		t.Errorf("bandwidth %g must be positive", k.Bandwidth())
	}
	if v := k.PDF(4); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("PDF at the atom is %g", v)
	}
}

// naivePDF is the per-sample density loop the tie-collapsed KDE replaced:
// one exp per observation, summed in sample order. It is the bit-exact
// reference for TestKDEMatchesNaiveSum and the baseline for the perf floor.
func naivePDF(xs []float64, h, x float64) float64 {
	var sum float64
	invH := 1 / h
	norm := invH / (float64(len(xs)) * math.Sqrt(2*math.Pi))
	for _, xi := range xs {
		z := (x - xi) * invH
		sum += math.Exp(-0.5 * z * z)
	}
	return sum * norm
}

// tiedCounts draws n integer counts from a right-skewed distribution
// capped at max, the shape of the h-index and publication samples.
func tiedCounts(n int, max float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x51ed27))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Min(math.Floor(rng.ExpFloat64()*max/5), max)
	}
	return xs
}

func TestKDEMatchesNaiveSum(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		xs   []float64
	}{
		{"h-index ties", tiedCounts(1900, 80, 1)},
		{"GS pubs ties", tiedCounts(900, 600, 2)},
		{"distinct continuous", normSample(700, 3)},
		{"constant", []float64{7, 7, 7, 7, 7}},
		{"signed zeros", []float64{0, negZero, 0, 1, negZero, -1, 0, 2}},
		{"S2 pubs heavy tail", heavyTail(1200, 4)},
		{"far outlier", append(tiedCounts(500, 40, 5), 1e6)},
	}
	for _, tc := range cases {
		k, err := NewKDE(tc.xs, Silverman)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := k.Bandwidth()
		gx, gy := k.Evaluate(256)
		lo, _ := Min(tc.xs)
		hi, _ := Max(tc.xs)
		lo -= 3 * h
		hi += 3 * h
		step := (hi - lo) / 255
		for i, x := range gx {
			if wantX := lo + float64(i)*step; math.Float64bits(x) != math.Float64bits(wantX) {
				t.Fatalf("%s: grid point %d = %v, want %v", tc.name, i, x, wantX)
			}
			want := naivePDF(tc.xs, h, x)
			if math.Float64bits(gy[i]) != math.Float64bits(want) {
				t.Fatalf("%s: Evaluate point %d (x=%g) = %v, naive %v", tc.name, i, x, gy[i], want)
			}
			if got := k.PDF(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PDF(%g) = %v, naive %v", tc.name, x, got, want)
			}
		}
		// Off-grid points, including the sample values themselves and a
		// signed zero.
		for _, x := range append([]float64{negZero, 0, 0.5, -3.25}, tc.xs[:4]...) {
			if got, want := k.PDF(x), naivePDF(tc.xs, h, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PDF(%g) = %v, naive %v", tc.name, x, got, want)
			}
		}
	}
}

// heavyTail draws n integer counts from a Pareto-like distribution, the
// shape of the Semantic Scholar publication samples: most values small,
// a tail thousands of bandwidths long.
func heavyTail(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x3c6ef372))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Floor(3 / math.Pow(1-rng.Float64(), 1.3))
	}
	return xs
}

// TestKDEEvaluateWindowEdges: with explicit bandwidths, narrow enough that
// most terms underflow or wide enough that none do, with samples that are
// not all finite, and at grid sizes that leave Evaluate's last group of
// points short, Evaluate's densities are the per-sample loop's, bit for
// bit (or NaN where it gives NaN).
func TestKDEEvaluateWindowEdges(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		h    float64
	}{
		{"narrow", heavyTail(300, 6), 0.05},
		{"tiny", []float64{0, 1, 1, 2, 1000, 1000.5}, 1e-3},
		{"wide", heavyTail(300, 7), 1e4},
		{"infinite sample", []float64{1, 2, math.Inf(1), 3}, 0.5},
		{"NaN sample", []float64{1, math.NaN(), 2, 2}, 0.5},
		{"huge span", []float64{-1e308, 1e308, 0}, 1},
	}
	for _, tc := range cases {
		k, err := NewKDEWithBandwidth(tc.xs, tc.h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, n := range []int{2, 7, 130} {
			gx, gy := k.Evaluate(n)
			if len(gx) != n || len(gy) != n {
				t.Fatalf("%s: Evaluate(%d) returned %d/%d points", tc.name, n, len(gx), len(gy))
			}
			for i, x := range gx {
				got, want := gy[i], naivePDF(tc.xs, tc.h, x)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s: Evaluate(%d) point %d (x=%g) = %v, naive %v", tc.name, n, i, x, got, want)
				}
			}
		}
	}
}

// kdeTieSample is the perf-floor input: 3k integer counts with heavy ties.
var kdeTieSample = tiedCounts(3000, 80, 9)

var kdeSink float64

// evalTies builds the KDE over kdeTieSample and samples its 256-point
// curve, as Figs 3-5 compute it.
func evalTies() {
	k, err := NewKDE(kdeTieSample, Silverman)
	if err != nil {
		panic(err)
	}
	_, ys := k.Evaluate(256)
	kdeSink = ys[128]
}

// evalTiesNaive computes the same curve with one exp per observation per
// grid point.
func evalTiesNaive() {
	k, err := NewKDE(kdeTieSample, Silverman)
	if err != nil {
		panic(err)
	}
	h := k.Bandwidth()
	lo, _ := Min(kdeTieSample)
	hi, _ := Max(kdeTieSample)
	lo -= 3 * h
	hi += 3 * h
	step := (hi - lo) / 255
	for j := 0; j < 256; j++ {
		kdeSink = naivePDF(kdeTieSample, h, lo+float64(j)*step)
	}
}

// BenchmarkKDEEvaluateTies measures the tie-collapsed 256-point curve
// over 3k tie-heavy counts.
func BenchmarkKDEEvaluateTies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evalTies()
	}
}

// BenchmarkNaiveKDEEvaluateTies is the reference the tie-collapsed curve
// must beat.
func BenchmarkNaiveKDEEvaluateTies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evalTiesNaive()
	}
}

// Work budget of one BenchmarkKDEEvaluateTies op (KDE build plus a
// 256-point curve), checked by TestKDEEvaluateBeatsNaive beside its timing
// bound. Measured on linux/amd64 with Go 1.24 as 25 allocations and
// 75,152 B per op; the budgets leave about 5% headroom on each.
const (
	kdeEvaluateAllocs = 26
	kdeEvaluateBytes  = 78_900
)

// TestKDEEvaluateBeatsNaive is the perf floor for the tie-collapsed KDE:
// a 256-point curve over 3k tie-heavy counts must be at least 3x faster
// than the per-observation loop, in the medians of alternating rounds
// (perffloor.MedianResults), and the median round must stay within the
// work budgets.
func TestKDEEvaluateBeatsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("perf floor skipped in -short")
	}
	if perffloor.RaceEnabled {
		t.Skip("perf floor not meaningful under the race detector's instrumentation")
	}
	fast, naive := perffloor.MedianResults(t, BenchmarkKDEEvaluateTies, BenchmarkNaiveKDEEvaluateTies)
	fastNs, naiveNs := float64(fast.NsPerOp()), float64(naive.NsPerOp())
	t.Logf("tie-collapsed %.2fms, %d allocs, %d B; naive %.2fms (%.1fx)",
		fastNs/1e6, fast.AllocsPerOp(), fast.AllocedBytesPerOp(), naiveNs/1e6, naiveNs/fastNs)
	if fastNs*3 > naiveNs {
		t.Errorf("tie-collapsed KDE %.2fms not 3x faster than naive %.2fms", fastNs/1e6, naiveNs/1e6)
	}
	if n := fast.AllocsPerOp(); n > kdeEvaluateAllocs {
		t.Errorf("tie-collapsed KDE allocates %d times per curve, budget %d", n, kdeEvaluateAllocs)
	}
	if n := fast.AllocedBytesPerOp(); n > kdeEvaluateBytes {
		t.Errorf("tie-collapsed KDE allocates %d B per curve, budget %d B", n, kdeEvaluateBytes)
	}
}
