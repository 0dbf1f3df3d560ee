package core

import (
	"fmt"
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

// TestExperienceDensitiesMatchNaiveLoop: every Fig 3-5 density curve, on
// the default and flagship corpora at several seeds and on the extended
// corpus, for every metric and role, is bit-identical to the per-sample
// loop: one exp per observation at each grid point, summed in sample
// order.
func TestExperienceDensitiesMatchNaiveLoop(t *testing.T) {
	type named struct {
		name string
		d    *dataset.Dataset
	}
	corpora := []named{{"default fixture", corpus.Data}, {"extended fixture", extendedCorpus.Data}}
	if !testing.Short() {
		for seed := uint64(1); seed <= 3; seed++ {
			for i, cfg := range []synth.Config{synth.Default2017(seed), synth.FlagshipSeries(seed)} {
				c, err := synth.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				corpora = append(corpora, named{fmt.Sprintf("%s seed %d", [...]string{"default", "flagship"}[i], seed), c.Data})
			}
		}
	}
	naive := func(xs []float64, h, x float64) float64 {
		var sum float64
		invH := 1 / h
		norm := invH / (float64(len(xs)) * math.Sqrt(2*math.Pi))
		for _, xi := range xs {
			z := (x - xi) * invH
			sum += math.Exp(-0.5 * z * z)
		}
		return sum * norm
	}
	for _, c := range corpora {
		for _, m := range []Metric{MetricGSPublications, MetricHIndex, MetricS2Publications} {
			samples, err := ExperienceDistributions(c.d, m)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, m, err)
			}
			for _, s := range samples {
				kde, err := stats.NewKDE(s.Values, stats.Silverman)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range s.Density.X {
					if got, want := s.Density.Y[i], naive(s.Values, kde.Bandwidth(), x); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s %s: density at grid point %d (x=%g) = %v, per-sample loop %v",
							c.name, m, s.Density.Label, i, x, got, want)
					}
				}
			}
		}
	}
}
