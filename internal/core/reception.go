package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/scholar"
)

// ReceptionPoint is the mean citation count by lead gender at one
// post-publication month.
type ReceptionPoint struct {
	Month      float64
	MeanFemale float64 // excl. the outlier threshold, as in §4.2
	MeanMale   float64
}

// ReceptionOverTime implements the paper's suggested follow-up: "It may be
// interesting to follow up on this analysis in regular intervals in the
// future and observe how the difference in reception behaves over time."
// Citation counts at intermediate months are interpolated from the
// 36-month totals via the empirical accrual curve.
type ReceptionOverTime struct {
	Points           []ReceptionPoint
	OutlierThreshold int
	// GapAt36 is MeanFemale - MeanMale at the full window.
	GapAt36 float64
}

// CitationTrajectory computes mean citations by lead gender at the given
// months (defaults to 6, 12, 18, 24, 30, 36), excluding female-led papers
// above the outlier threshold as §4.2 does.
func CitationTrajectory(d *dataset.Dataset, outlierThreshold int, months ...float64) (ReceptionOverTime, error) {
	if outlierThreshold <= 0 {
		outlierThreshold = DefaultOutlierThreshold
	}
	if len(months) == 0 {
		months = []float64{6, 12, 18, 24, 30, 36}
	}
	var fem, mal []int
	for _, p := range d.Papers {
		lead, ok := d.Person(p.Lead())
		if !ok || !lead.Gender.Known() {
			continue
		}
		if lead.Gender == gender.Female {
			if p.Citations36 <= outlierThreshold {
				fem = append(fem, p.Citations36)
			}
		} else {
			mal = append(mal, p.Citations36)
		}
	}
	if len(fem) == 0 || len(mal) == 0 {
		return ReceptionOverTime{}, fmt.Errorf("%w: no gendered leads for the trajectory", ErrNotApplicable)
	}
	res := ReceptionOverTime{OutlierThreshold: outlierThreshold}
	for _, m := range months {
		var pt ReceptionPoint
		pt.Month = m
		var fSum, mSum float64
		for _, c := range fem {
			fSum += float64(scholar.CitationsAtMonth(c, m))
		}
		for _, c := range mal {
			mSum += float64(scholar.CitationsAtMonth(c, m))
		}
		pt.MeanFemale = fSum / float64(len(fem))
		pt.MeanMale = mSum / float64(len(mal))
		res.Points = append(res.Points, pt)
	}
	last := res.Points[len(res.Points)-1]
	res.GapAt36 = last.MeanFemale - last.MeanMale
	return res, nil
}
