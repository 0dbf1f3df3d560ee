package core

import (
	"testing"

	"repro/internal/dataset"
)

func TestCitationTrajectory(t *testing.T) {
	r, err := CitationTrajectory(corpus.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("%d points, want 6 default months", len(r.Points))
	}
	// Monotone accrual: means never decrease with time, per gender.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].MeanFemale < r.Points[i-1].MeanFemale-1e-9 ||
			r.Points[i].MeanMale < r.Points[i-1].MeanMale-1e-9 {
			t.Fatalf("citation means decreased between months %g and %g",
				r.Points[i-1].Month, r.Points[i].Month)
		}
	}
	// Month 36 must equal the §4.2 excl-outlier means.
	cit, err := CitationReception(corpus.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := r.Points[len(r.Points)-1]
	if diff := last.MeanFemale - cit.MeanFemaleExclOut; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("trajectory month-36 female mean %g != §4.2 mean %g", last.MeanFemale, cit.MeanFemaleExclOut)
	}
	if diff := last.MeanMale - cit.MeanMale; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("trajectory month-36 male mean %g != §4.2 mean %g", last.MeanMale, cit.MeanMale)
	}
	// With proportional accrual, the gap direction is stable over time:
	// every non-zero gap has the sign of the first.
	sign := 0
	for _, p := range r.Points {
		gap := p.MeanFemale - p.MeanMale
		s := 0
		switch {
		case gap > 1e-9:
			s = 1
		case gap < -1e-9:
			s = -1
		}
		if sign == 0 {
			sign = s
		} else if s != 0 && s != sign {
			t.Errorf("gap sign flipped at month %g", p.Month)
		}
	}
	if r.GapAt36 != last.MeanFemale-last.MeanMale {
		t.Error("GapAt36 inconsistent with the last point")
	}
}

func TestCitationTrajectoryCustomMonths(t *testing.T) {
	r, err := CitationTrajectory(corpus.Data, 0, 12, 36)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 || r.Points[0].Month != 12 || r.Points[1].Month != 36 {
		t.Errorf("points = %+v", r.Points)
	}
	// First-year accrual is slow: month-12 means well below month-36.
	if !(r.Points[0].MeanMale < 0.3*r.Points[1].MeanMale) {
		t.Errorf("month-12 mean %g not well below month-36 %g",
			r.Points[0].MeanMale, r.Points[1].MeanMale)
	}
}

func TestCitationTrajectoryEmpty(t *testing.T) {
	d := dataset.New()
	if err := d.AddConference(&dataset.Conference{ID: "X", Name: "X", Year: 2017, AcceptanceRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := CitationTrajectory(d, 0); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestDistributionGap(t *testing.T) {
	for _, m := range []Metric{MetricGSPublications, MetricHIndex} {
		gap, err := DistributionGap(corpus.Data, m, dataset.RoleAuthor)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		// The calibrated male right-shift exists; KS should both confirm
		// the direction and find the gap at author sample sizes.
		if !gap.MaleShiftRight {
			t.Errorf("%s: male median not right of female", m)
		}
		if gap.KS.D <= 0 || gap.KS.D > 1 {
			t.Errorf("%s: D = %g", m, gap.KS.D)
		}
		if gap.KS.P < 0 || gap.KS.P > 1 {
			t.Errorf("%s: p = %g", m, gap.KS.P)
		}
	}
	// PC members also split cleanly.
	if _, err := DistributionGap(corpus.Data, MetricHIndex, dataset.RolePCMember); err != nil {
		t.Fatal(err)
	}
}
