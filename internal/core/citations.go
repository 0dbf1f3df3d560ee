package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/stats"
)

// DensityCurve is one rendered density series for Fig 2-style plots.
type DensityCurve struct {
	Label string
	X     []float64
	Y     []float64
}

// CitationAnalysis is the §4.2 / Fig 2 reception analysis: citations at 36
// months by lead-author gender.
type CitationAnalysis struct {
	FemaleLedPapers int // paper: 53
	MaleLedPapers   int // paper: 435

	MeanFemale float64 // incl. outlier (paper: 13.04)
	MeanMale   float64 // paper: 10.55

	// Outlier handling: the single >450-citation female-led paper.
	OutlierThreshold  int
	OutliersExcluded  int
	MeanFemaleExclOut float64 // paper: 7.63
	WelchExclOutlier  stats.TTestResult

	// i10 attainment: share of papers with >= 10 citations by lead gender
	// (paper: 23% female-led vs 38% male-led, chi2 = 3.69, p = 0.055).
	I10Female stats.Proportion
	I10Male   stats.Proportion
	I10Test   stats.ChiSquaredResult

	// Robust companions the library adds beyond the paper: the exact test
	// on the i10 2x2 (53 female-led papers is small for chi-squared), its
	// Cohen's h effect size, and the distribution-free Mann-Whitney
	// comparison of the citation samples, which — unlike the means — is
	// barely moved by the 450-citation outlier.
	I10Fisher              stats.FisherExactResult
	I10EffectH             float64
	MannWhitneyExclOutlier stats.MannWhitneyResult
	MannWhitneyInclOutlier stats.MannWhitneyResult

	// Densities are the Fig 2 curves (female-led and male-led).
	Densities []DensityCurve
}

// DefaultOutlierThreshold matches the paper's ">450 citations" exclusion.
const DefaultOutlierThreshold = 450

// CitationReception computes §4.2 / Fig 2. The density curves use a
// Silverman-bandwidth Gaussian KDE, geom_density's default.
func CitationReception(d *dataset.Dataset, outlierThreshold int) (CitationAnalysis, error) {
	if outlierThreshold <= 0 {
		outlierThreshold = DefaultOutlierThreshold
	}
	res := CitationAnalysis{OutlierThreshold: outlierThreshold}

	var fem, mal []float64
	for _, p := range d.Papers {
		lead, ok := d.Person(p.Lead())
		if !ok || !lead.Gender.Known() {
			continue
		}
		c := float64(p.Citations36)
		if lead.Gender == gender.Female {
			fem = append(fem, c)
		} else {
			mal = append(mal, c)
		}
	}
	res.FemaleLedPapers = len(fem)
	res.MaleLedPapers = len(mal)
	if len(fem) < 2 || len(mal) < 2 {
		return res, fmt.Errorf("%w: too few gendered lead authors (%d female, %d male)", ErrNotApplicable, len(fem), len(mal))
	}
	res.MeanFemale = stats.MustMean(fem)
	res.MeanMale = stats.MustMean(mal)

	femExcl := make([]float64, 0, len(fem))
	for _, c := range fem {
		if int(c) > outlierThreshold {
			res.OutliersExcluded++
			continue
		}
		femExcl = append(femExcl, c)
	}
	if len(femExcl) >= 2 {
		res.MeanFemaleExclOut = stats.MustMean(femExcl)
		tt, err := stats.WelchTTest(femExcl, mal)
		if err != nil {
			return res, err
		}
		res.WelchExclOutlier = tt
	}

	res.I10Female = i10Share(femExcl)
	res.I10Male = i10Share(mal)
	test, err := stats.TwoProportionChiSq(res.I10Female.K, res.I10Female.N, res.I10Male.K, res.I10Male.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.I10Test = test
	fisher, err := stats.FisherExact(
		res.I10Female.K, res.I10Female.N-res.I10Female.K,
		res.I10Male.K, res.I10Male.N-res.I10Male.K)
	if err != nil {
		return res, err
	}
	res.I10Fisher = fisher
	if h, err := stats.CohenH(res.I10Female, res.I10Male); err == nil {
		res.I10EffectH = h
	}
	if mw, err := stats.MannWhitneyU(femExcl, mal); err == nil {
		res.MannWhitneyExclOutlier = mw
	}
	if mw, err := stats.MannWhitneyU(fem, mal); err == nil {
		res.MannWhitneyInclOutlier = mw
	}

	for _, series := range []struct {
		label string
		xs    []float64
	}{{"female lead", fem}, {"male lead", mal}} {
		kde, err := stats.NewKDE(series.xs, stats.Silverman)
		if err != nil {
			return res, err
		}
		x, y := kde.Evaluate(256)
		res.Densities = append(res.Densities, DensityCurve{Label: series.label, X: x, Y: y})
	}
	return res, nil
}

func i10Share(citations []float64) stats.Proportion {
	var p stats.Proportion
	for _, c := range citations {
		p.N++
		if c >= 10 {
			p.K++
		}
	}
	return p
}
