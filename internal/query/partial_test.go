package query

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestMergedPartialsEqualPooledStatsOnEverySplit is the merge-safety
// property the engine's partition merge relies on, over the fixture
// corpus: for every two-way split of the corpus's papers — including the
// empty prefix and the single-row prefix — merged Welch-t moment partials,
// chi-squared count partials and mean partials agree with internal/stats
// computed over the pooled sample.
func TestMergedPartialsEqualPooledStatsOnEverySplit(t *testing.T) {
	var women, men []float64
	for _, p := range testData.Papers {
		lead, ok := testData.Person(p.Lead())
		if !ok {
			continue
		}
		switch lead.Gender.String() {
		case "female":
			women = append(women, float64(p.Citations36))
		case "male":
			men = append(men, float64(p.Citations36))
		}
	}
	pooledWelch, err := stats.WelchTTest(women, men)
	if err != nil {
		t.Fatal(err)
	}
	pooledMeanW := stats.MustMean(women)

	// Chi-squared pooled counts: women/known among PC members vs authors.
	pc := testData.CountGenders(testData.RoleSlots(dataset.RolePCMember))
	au := testData.CountGenders(testData.AuthorSlots())
	pooledChi, err := stats.TwoProportionChiSq(pc.Women, pc.Known(), au.Women, au.Known())
	if err != nil {
		t.Fatal(err)
	}

	split := func(xs []float64, cut int) stats.Moments {
		var m stats.Moments
		a, b := stats.MomentsOf(xs[:cut]), stats.MomentsOf(xs[cut:])
		m.Merge(a)
		m.Merge(b)
		return m
	}
	for cut := 0; cut <= len(women); cut++ {
		wm := split(women, cut)
		got, err := stats.WelchTTestFromMoments(wm, stats.MomentsOf(men))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !stats.AlmostEqual(got.T, pooledWelch.T) || !stats.AlmostEqual(got.P, pooledWelch.P) {
			t.Fatalf("cut %d: merged welch (t=%g, p=%g) != pooled (t=%g, p=%g)",
				cut, got.T, got.P, pooledWelch.T, pooledWelch.P)
		}
		mean, err := wm.Mean()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !stats.AlmostEqual(mean, pooledMeanW) {
			t.Fatalf("cut %d: merged mean %g != pooled %g", cut, mean, pooledMeanW)
		}
	}
	// Chi-squared partials are exact integer counts. Re-count the PC
	// contingency cell over every two-way split of the member slot list —
	// including empty and single-row parts — and require the merged
	// counts to reproduce the pooled test bit-for-bit.
	pcSlots := testData.RoleSlots(dataset.RolePCMember)
	for cut := 0; cut <= len(pcSlots); cut += 1 + len(pcSlots)/97 {
		a := testData.CountGenders(pcSlots[:cut])
		b := testData.CountGenders(pcSlots[cut:])
		k1, n1 := a.Women+b.Women, a.Known()+b.Known()
		if k1 != pc.Women || n1 != pc.Known() {
			t.Fatalf("cut %d: merged counts (%d/%d) != pooled (%d/%d)", cut, k1, n1, pc.Women, pc.Known())
		}
		got, err := stats.TwoProportionChiSq(k1, n1, au.Women, au.Known())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got.ChiSq != pooledChi.ChiSq || got.P != pooledChi.P {
			t.Fatalf("cut %d: merged chisq (%g, %g) != pooled (%g, %g)", cut, got.ChiSq, got.P, pooledChi.ChiSq, pooledChi.P)
		}
	}
}
