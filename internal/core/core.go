// Package core implements the paper's analyses: female author ratios across
// conferences and roles (§3, Fig 1), the single- vs double-blind and
// lead/last-author comparisons (§3.1), program-committee representation
// (§3.2), visible roles (§3.3), the SC/ISC time series (§3.4), the HPC-only
// topic subset (§4.1), paper reception by lead-author gender (§4.2, Fig 2),
// researcher-experience distributions and bands (§5.1, Figs 3-6), geography
// (§5.2, Tables 2-3, Fig 7), work sector (§5.3, Fig 8), and the
// unknown-gender sensitivity analysis from the Limitations section.
//
// Every analysis is a pure function of a dataset.Dataset, returning a
// structured result that the report package renders and the benchmark
// harness regenerates.
package core

import (
	"errors"
	"fmt"

	"repro/internal/collab"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// ErrNotApplicable marks an analysis that this corpus cannot support (e.g.
// the double- vs single-blind contrast on a corpus where every conference
// is double-blind). Report renderers note it and continue instead of
// failing the whole report.
var ErrNotApplicable = errors.New("core: analysis not applicable to this corpus")

// notApplicable marks err as ErrNotApplicable, keeping its message, when
// it is a statistic's refusal of a sample too small or degenerate to test
// (stats.ErrDegenerate, stats.ErrTied, collab.ErrTooFew): the corpus
// cannot support the analysis, so a report notes it and goes on. Other
// errors pass through.
func notApplicable(err error) error {
	if errors.Is(err, stats.ErrDegenerate) || errors.Is(err, stats.ErrTied) || errors.Is(err, collab.ErrTooFew) {
		return fmt.Errorf("%w: %w", ErrNotApplicable, err)
	}
	return err
}

// proportionOf converts a GenderCount into a stats.Proportion over the
// known-gender population, the paper's convention ("excluding the few
// authors for whom we have no gender information").
func proportionOf(gc dataset.GenderCount) stats.Proportion {
	return stats.Proportion{K: gc.Women, N: gc.Known()}
}

// ConfFAR is one conference's female author ratio with its population.
type ConfFAR struct {
	Conf    dataset.ConfID
	Name    string
	Ratio   stats.Proportion // women / known-gender author slots
	Unknown int              // author slots with unassigned gender
}

// FARResult is the §3.1 headline analysis.
type FARResult struct {
	Overall    stats.Proportion // all author slots, all conferences
	Unknown    int
	PerConf    []ConfFAR
	UniqueN    int // unique coauthors (the paper's 1885)
	TotalSlots int // author slots with repeats (the paper's 2236)
}

// AuthorFAR computes the female author ratio overall and per conference.
func AuthorFAR(d *dataset.Dataset) FARResult {
	all := d.CountGenders(d.AuthorSlots())
	res := FARResult{
		Overall:    proportionOf(all),
		Unknown:    all.Unknown,
		UniqueN:    len(d.UniqueAuthors()),
		TotalSlots: len(d.AuthorSlots()),
	}
	for _, c := range d.Conferences {
		gc := d.CountGenders(d.AuthorSlots(c.ID))
		res.PerConf = append(res.PerConf, ConfFAR{
			Conf: c.ID, Name: c.Name, Ratio: proportionOf(gc), Unknown: gc.Unknown,
		})
	}
	return res
}

// BlindComparison is the §3.1 double-blind versus single-blind contrast.
type BlindComparison struct {
	DoubleBlind stats.Proportion // SC+ISC in the 2017 corpus
	SingleBlind stats.Proportion
	Test        stats.ChiSquaredResult

	LeadDouble stats.Proportion
	LeadSingle stats.Proportion
	LeadTest   stats.ChiSquaredResult
}

// CompareBlindReview contrasts author and lead-author FAR between
// double-blind and single-blind conferences. The paper reports FAR 7.57%
// (double) vs 10.52% (single), chi2 = 3.133, p = 0.0767; and lead FAR 6.17%
// vs 11.79%, chi2 = 1.662, p = 0.197.
func CompareBlindReview(d *dataset.Dataset) (BlindComparison, error) {
	var double, single []dataset.ConfID
	for _, c := range d.Conferences {
		if c.DoubleBlind {
			double = append(double, c.ID)
		} else {
			single = append(single, c.ID)
		}
	}
	var res BlindComparison
	if len(double) == 0 || len(single) == 0 {
		return res, fmt.Errorf("%w: need both double- and single-blind conferences (have %d/%d)",
			ErrNotApplicable, len(double), len(single))
	}
	db := proportionOf(d.CountGenders(d.AuthorSlots(double...)))
	sb := proportionOf(d.CountGenders(d.AuthorSlots(single...)))
	test, err := stats.TwoProportionChiSq(db.K, db.N, sb.K, sb.N)
	if err != nil {
		return res, notApplicable(err)
	}
	ldb := proportionOf(d.CountGenders(d.LeadAuthors(double...)))
	lsb := proportionOf(d.CountGenders(d.LeadAuthors(single...)))
	leadTest, err := stats.TwoProportionChiSq(ldb.K, ldb.N, lsb.K, lsb.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.DoubleBlind = db
	res.SingleBlind = sb
	res.Test = test
	res.LeadDouble = ldb
	res.LeadSingle = lsb
	res.LeadTest = leadTest
	return res, nil
}

// PositionComparison is the §3.1 lead/last author position analysis.
type PositionComparison struct {
	Overall  stats.Proportion
	Lead     stats.Proportion
	Last     stats.Proportion
	LastTest stats.ChiSquaredResult // last-author vs overall (paper: 8.4% vs 9.9%, chi2=0.724)
}

// CompareAuthorPositions contrasts lead- and last-author female ratios with
// the overall author population.
func CompareAuthorPositions(d *dataset.Dataset) (PositionComparison, error) {
	var res PositionComparison
	res.Overall = proportionOf(d.CountGenders(d.AuthorSlots()))
	res.Lead = proportionOf(d.CountGenders(d.LeadAuthors()))
	res.Last = proportionOf(d.CountGenders(d.LastAuthors()))
	test, err := stats.TwoProportionChiSq(res.Last.K, res.Last.N, res.Overall.K, res.Overall.N)
	if err != nil {
		return res, notApplicable(err)
	}
	res.LastTest = test
	return res, nil
}
