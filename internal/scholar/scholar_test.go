package scholar

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestHIndexKnownValues(t *testing.T) {
	cases := []struct {
		name      string
		citations []int
		want      int
	}{
		{"empty", nil, 0},
		{"single uncited", []int{0}, 0},
		{"single cited", []int{5}, 1},
		{"hirsch example", []int{10, 8, 5, 4, 3}, 4},
		{"all equal high", []int{7, 7, 7, 7, 7, 7, 7, 7}, 7},
		{"all equal low", []int{2, 2, 2, 2, 2}, 2},
		{"one giant", []int{1000}, 1},
		{"staircase", []int{5, 4, 3, 2, 1}, 3},
		{"unsorted input", []int{1, 10, 2, 8, 4, 5, 3}, 4},
	}
	for _, c := range cases {
		if got := HIndex(c.citations); got != c.want {
			t.Errorf("%s: HIndex(%v) = %d, want %d", c.name, c.citations, got, c.want)
		}
	}
}

func TestHIndexDoesNotMutate(t *testing.T) {
	in := []int{1, 10, 2}
	HIndex(in)
	if in[0] != 1 || in[1] != 10 || in[2] != 2 {
		t.Errorf("HIndex mutated input: %v", in)
	}
}

func TestHIndexAxioms(t *testing.T) {
	// h <= n; h <= max citation; adding a highly-cited paper never
	// decreases h; h^2 <= total citations.
	f := func(raw []uint8) bool {
		cit := make([]int, len(raw))
		maxC := 0
		for i, r := range raw {
			cit[i] = int(r)
			if cit[i] > maxC {
				maxC = cit[i]
			}
		}
		h := HIndex(cit)
		if h > len(cit) || h > maxC {
			return false
		}
		if h*h > TotalCitations(cit) {
			return false
		}
		grown := append(append([]int(nil), cit...), 1000)
		return HIndex(grown) >= h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sortHIndex is Hirsch's definition read literally: sort the counts in
// descending order and take the last rank i whose count is at least i.
func sortHIndex(citations []int) int {
	sorted := slices.Clone(citations)
	slices.Sort(sorted)
	slices.Reverse(sorted)
	h := 0
	for i, c := range sorted {
		if c < i+1 {
			break
		}
		h = i + 1
	}
	return h
}

// TestHIndexMatchesSortDefinition: the counting HIndex equals the
// sort-based definition on edge cases and on seeded random vectors, short
// ones that bucket on the stack and long ones up to MaxPubs' default.
func TestHIndexMatchesSortDefinition(t *testing.T) {
	long := func(n, c int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = c
		}
		return v
	}
	cases := [][]int{
		nil,
		{},
		{0, 0, 0},
		{-3, -1, 0},
		{-5, 4, -2, 9, 3},
		{4, 4, 4, 4},
		{9, 9, 9},
		{100, 200, 300},
		{1 << 40, 1 << 40},
		long(smallHIndex, smallHIndex),
		long(smallHIndex+1, smallHIndex+1),
		long(smallHIndex+1, smallHIndex),
		long(5000, 5000),
		long(5000, 3),
		long(5000, 0),
	}
	rng := rand.New(rand.NewPCG(28, 28))
	for range 2000 {
		n := rng.IntN(300)
		if rng.IntN(20) == 0 {
			n = 5000 - rng.IntN(100)
		}
		v := make([]int, n)
		top := 1 + rng.IntN(2*n+2)
		for i := range v {
			v[i] = rng.IntN(top+3) - 3
		}
		cases = append(cases, v)
	}
	for _, c := range cases {
		if got, want := HIndex(c), sortHIndex(c); got != want {
			t.Fatalf("HIndex over %d counts = %d, sort definition gives %d (first counts %v)", len(c), got, want, c[:min(len(c), 20)])
		}
	}
}

// TestHIndexShortVectorsDoNotAllocate: a vector of up to smallHIndex
// counts, most researchers', is bucketed on the stack.
func TestHIndexShortVectorsDoNotAllocate(t *testing.T) {
	v := make([]int, smallHIndex)
	for i := range v {
		v[i] = i
	}
	if n := testing.AllocsPerRun(10, func() { HIndex(v) }); n != 0 {
		t.Errorf("HIndex over %d counts allocates %.0f times, want 0", len(v), n)
	}
}

func TestI10Index(t *testing.T) {
	if got := I10Index([]int{9, 10, 11, 0, 100}); got != 3 {
		t.Errorf("I10Index = %d, want 3", got)
	}
	if got := I10Index(nil); got != 0 {
		t.Errorf("I10Index(nil) = %d, want 0", got)
	}
}

func TestTotalCitations(t *testing.T) {
	if got := TotalCitations([]int{1, 2, 3}); got != 6 {
		t.Errorf("TotalCitations = %d, want 6", got)
	}
	if got := TotalCitations([]int{5, -2, 3}); got != 8 {
		t.Errorf("negative entries must be ignored, got %d", got)
	}
}

func TestBuildProfileConsistency(t *testing.T) {
	cit := []int{30, 25, 12, 12, 9, 3, 0, 0}
	p := BuildProfile(cit)
	if p.Publications != 8 {
		t.Errorf("Publications = %d", p.Publications)
	}
	if p.HIndex != 5 {
		t.Errorf("HIndex = %d, want 5", p.HIndex)
	}
	if p.I10Index != 4 {
		t.Errorf("I10Index = %d, want 4", p.I10Index)
	}
	if p.Citations != 91 {
		t.Errorf("Citations = %d, want 91", p.Citations)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("built profile invalid: %v", err)
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{Publications: -1},
		{HIndex: 5, Publications: 3},
		{I10Index: 4, Publications: 3},
		{HIndex: 10, Publications: 10, Citations: 50}, // h^2 > citations
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile %+v passed validation", i, p)
		}
	}
	good := Profile{Publications: 100, HIndex: 20, I10Index: 40, Citations: 2000}
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestBandOf(t *testing.T) {
	cases := []struct {
		h    int
		want ExperienceBand
	}{
		{0, Novice}, {12, Novice}, {13, MidCareer}, {18, MidCareer},
		{19, Experienced}, {100, Experienced},
	}
	for _, c := range cases {
		if got := BandOf(c.h); got != c.want {
			t.Errorf("BandOf(%d) = %v, want %v", c.h, got, c.want)
		}
	}
	if Novice.String() != "novice" || MidCareer.String() != "mid-career" || Experienced.String() != "experienced" {
		t.Error("band names wrong")
	}
	if len(Bands()) != 3 {
		t.Error("Bands() must list the three paper bands")
	}
}

func TestBuildProfileBandsEveryVector(t *testing.T) {
	// BandOf(BuildProfile(v).HIndex) never panics and is monotone in h.
	f := func(raw []uint16) bool {
		cit := make([]int, len(raw))
		for i, r := range raw {
			cit[i] = int(r % 500)
		}
		p := BuildProfile(cit)
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCitationModelShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	m := CitationModel{Mu: 1.8, Sigma: 1.1, PZero: 0.15}
	n := 20000
	xs := make([]float64, n)
	zeros := 0
	for i := range xs {
		c := m.Draw(rng)
		if c < 0 {
			t.Fatal("negative citation count")
		}
		if c == 0 {
			zeros++
		}
		xs[i] = float64(c)
	}
	zFrac := float64(zeros) / float64(n)
	if zFrac < 0.12 || zFrac > 0.18 {
		t.Errorf("zero fraction %g far from PZero 0.15", zFrac)
	}
	// Sample mean near the analytic mean (within 10%, heavy tail allowed).
	mean := stats.MustMean(xs)
	if math.Abs(mean-m.Mean()) > 0.1*m.Mean() {
		t.Errorf("sample mean %g vs model mean %g", mean, m.Mean())
	}
	// Right-skewed.
	if sk, _ := stats.Skewness(xs); sk <= 1 {
		t.Errorf("citation skewness %g, want strongly positive", sk)
	}
}

func TestAccrualCurve(t *testing.T) {
	if AccrualCurve(0) != 0 || AccrualCurve(-5) != 0 {
		t.Error("accrual before publication must be 0")
	}
	if AccrualCurve(36) != 1 || AccrualCurve(50) != 1 {
		t.Error("accrual at/after 36 months must be 1")
	}
	// Monotone nondecreasing.
	prev := 0.0
	for m := 0.0; m <= 36; m += 0.5 {
		v := AccrualCurve(m)
		if v < prev-1e-12 {
			t.Fatalf("accrual decreased at month %g", m)
		}
		prev = v
	}
	// Continuous at the knee (month 12).
	if math.Abs(AccrualCurve(11.999)-AccrualCurve(12.001)) > 1e-3 {
		t.Error("accrual discontinuous at month 12")
	}
	// Slow first year.
	if AccrualCurve(12) > 0.2 {
		t.Errorf("first-year accrual %g, want < 0.2", AccrualCurve(12))
	}
}

func TestCitationsAtMonth(t *testing.T) {
	if CitationsAtMonth(100, 36) != 100 {
		t.Error("full window must return the total")
	}
	if CitationsAtMonth(100, 0) != 0 {
		t.Error("month 0 must be 0")
	}
	if CitationsAtMonth(0, 18) != 0 || CitationsAtMonth(-5, 18) != 0 {
		t.Error("nonpositive totals must clamp to 0")
	}
	mid := CitationsAtMonth(100, 24)
	if mid <= 0 || mid >= 100 {
		t.Errorf("mid-window citations %d out of range", mid)
	}
}

func TestCareerModelShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	cm := CareerModel{PubMu: 3.0, PubSigma: 1.4, CiteMu: 1.5, CiteSigma: 1.2, PZero: 0.2}
	pubs := make([]float64, 3000)
	sawBig := false
	for i := range pubs {
		career := cm.DrawCareer(rng, 0, nil)
		if len(career) < 1 {
			t.Fatal("empty career")
		}
		if len(career) > 5000 {
			t.Fatal("career exceeded default cap")
		}
		if len(career) > 1000 {
			sawBig = true
		}
		pubs[i] = float64(len(career))
	}
	med, _ := stats.Median(pubs)
	if med > 100 {
		t.Errorf("median publications %g; paper says most researchers have fewer than 100", med)
	}
	if !sawBig {
		t.Error("no researcher with >1000 publications; the paper's tail is missing")
	}
	// Latent shifts seniority.
	senior := cm.DrawCareer(rand.New(rand.NewPCG(1, 1)), 2.0, nil)
	junior := cm.DrawCareer(rand.New(rand.NewPCG(1, 1)), -2.0, nil)
	if len(senior) <= len(junior) {
		t.Errorf("latent 2.0 gave %d pubs vs %d for -2.0", len(senior), len(junior))
	}
	// Explicit cap respected.
	capped := CareerModel{PubMu: 10, PubSigma: 0.1, CiteMu: 1, CiteSigma: 1, MaxPubs: 50}
	if got := len(capped.DrawCareer(rng, 0, nil)); got != 50 {
		t.Errorf("cap ignored: %d pubs", got)
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	p := Profile{Publications: 10, HIndex: 3, I10Index: 2, Citations: 60}
	if err := d.Register("r1", p); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("", p); err == nil {
		t.Error("empty id must be rejected")
	}
	if err := d.Register("bad", Profile{HIndex: 5, Publications: 1}); err == nil {
		t.Error("invalid profile must be rejected")
	}
	got, ok := d.Lookup("r1")
	if !ok || got != p {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("missing id resolved")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
	cov := d.Coverage([]string{"r1", "r2", "r3", "r4"})
	if cov != 0.25 {
		t.Errorf("Coverage = %g, want 0.25", cov)
	}
	if d.Coverage(nil) != 0 {
		t.Error("Coverage(nil) must be 0")
	}
	ids := d.IDs()
	if len(ids) != 1 || ids[0] != "r1" {
		t.Errorf("IDs = %v", ids)
	}
}

func TestSemanticScholarNoiseAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	s := NewSemanticScholar()
	if err := s.RegisterFromTruth(rng, "", 10, DefaultNoise); err == nil {
		t.Error("empty id must be rejected")
	}
	if err := s.RegisterFromTruth(rng, "x", -1, DefaultNoise); err == nil {
		t.Error("negative count must be rejected")
	}
	// Universal coverage and positive counts.
	n := 3000
	truth := make([]float64, n)
	observed := make([]float64, n)
	for i := 0; i < n; i++ {
		id := string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('A'+i/260))
		tp := 1 + int(math.Exp(float64(i%40)/8)) // spread of true counts
		if err := s.RegisterFromTruth(rng, id+"_"+itoa(i), tp, DefaultNoise); err != nil {
			t.Fatal(err)
		}
		got, ok := s.PastPublications(id + "_" + itoa(i))
		if !ok || got < 1 {
			t.Fatalf("registered id lost or nonpositive: %d %v", got, ok)
		}
		truth[i] = math.Log(float64(tp))
		observed[i] = math.Log(float64(got))
	}
	if s.Len() != n {
		t.Errorf("Len = %d, want %d", s.Len(), n)
	}
	// The defining property: correlated with truth, but weakly — the
	// paper's two sources land at r = 0.334 on raw counts.
	r, err := stats.PearsonCorrelation(truth, observed)
	if err != nil {
		t.Fatal(err)
	}
	if r.R < 0.3 || r.R > 0.95 {
		t.Errorf("log-scale truth correlation %g outside (0.3, 0.95)", r.R)
	}
	if _, ok := s.PastPublications("never-registered"); ok {
		t.Error("unregistered id resolved")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
