package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

// TestDistributionGapMatchesSamples pins the density-free KS path to the
// samples the density path produces: for every metric and role, the gap
// equals a KS test over ExperienceDistributions' values, and its direction
// follows their medians.
func TestDistributionGapMatchesSamples(t *testing.T) {
	flagship, err := synth.Generate(synth.FlagshipSeries(5))
	if err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name string
		d    *dataset.Dataset
	}{
		{"default", corpus.Data},
		{"flagship", flagship.Data},
		{"extended", extendedCorpus.Data},
	}
	metrics := []Metric{MetricGSPublications, MetricHIndex, MetricS2Publications}
	roles := []dataset.Role{dataset.RoleAuthor, dataset.RolePCMember}
	for _, c := range corpora {
		for _, m := range metrics {
			for _, role := range roles {
				samples, err := ExperienceDistributions(c.d, m, role)
				if err != nil {
					t.Fatalf("%s %s %s: %v", c.name, m, role, err)
				}
				fem, mal := samples[0], samples[1]
				want, err := stats.KolmogorovSmirnov(fem.Values, mal.Values)
				if err != nil {
					t.Fatal(err)
				}
				gap, err := DistributionGap(c.d, m, role)
				if err != nil {
					t.Fatalf("%s %s %s: %v", c.name, m, role, err)
				}
				if gap.Metric != m || gap.Role != role {
					t.Errorf("%s: gap labelled %s/%s, want %s/%s", c.name, gap.Metric, gap.Role, m, role)
				}
				if !sameKS(gap.KS, want) {
					t.Errorf("%s %s %s: KS %+v, want %+v", c.name, m, role, gap.KS, want)
				}
				if shift := mal.Summary.Median > fem.Summary.Median; gap.MaleShiftRight != shift {
					t.Errorf("%s %s %s: MaleShiftRight = %v, want %v", c.name, m, role, gap.MaleShiftRight, shift)
				}
				if len(fem.Density.Y) != 256 || len(mal.Density.Y) != 256 {
					t.Errorf("%s %s %s: density curves missing", c.name, m, role)
				}
			}
		}
	}
}

func sameKS(a, b stats.KSResult) bool {
	return math.Float64bits(a.D) == math.Float64bits(b.D) &&
		math.Float64bits(a.P) == math.Float64bits(b.P) &&
		a.N1 == b.N1 && a.N2 == b.N2
}
