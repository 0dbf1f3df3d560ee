package collab

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/stats"
)

// ErrTooFew means a comparison had fewer than two people of a gender to
// compare.
var ErrTooFew = errors.New("collab: too few gendered")

// Mixing is the gender mixing structure of the coauthorship graph. Edges
// whose endpoints include an unknown-gender researcher are excluded, the
// same convention the paper applies to its ratio analyses.
type Mixing struct {
	FF, FM, MM int // edges by endpoint gender pair
	// Assortativity is Newman's assortativity coefficient for the binary
	// gender attribute: positive means homophily (same-gender
	// collaboration above chance), negative means heterophily.
	Assortativity float64
	// ExpectedFMShare is the mixed-edge share expected under random
	// mixing with the observed endpoint gender frequencies.
	ExpectedFMShare float64
	// ObservedFMShare is the observed mixed-edge share.
	ObservedFMShare float64
}

// TotalEdges returns the gendered-edge count.
func (m Mixing) TotalEdges() int { return m.FF + m.FM + m.MM }

// MixingAnalysis computes the gender mixing matrix and assortativity of
// the coauthorship graph.
func MixingAnalysis(g *Graph, d *dataset.Dataset) (Mixing, error) {
	var m Mixing
	// Count each undirected edge once; accumulate endpoint totals for the
	// marginal distribution (each edge contributes both endpoints).
	var endF, endM int
	for _, a := range g.IDs() {
		pa, ok := d.Person(a)
		if !ok || !pa.Gender.Known() {
			continue
		}
		for _, b := range g.Neighbors(a) {
			if b <= a {
				continue // count each pair once
			}
			pb, ok := d.Person(b)
			if !ok || !pb.Gender.Known() {
				continue
			}
			switch {
			case pa.Gender == gender.Female && pb.Gender == gender.Female:
				m.FF++
				endF += 2
			case pa.Gender == gender.Male && pb.Gender == gender.Male:
				m.MM++
				endM += 2
			default:
				m.FM++
				endF++
				endM++
			}
		}
	}
	total := m.TotalEdges()
	if total == 0 {
		return m, fmt.Errorf("collab: no gendered edges in graph")
	}
	// Newman assortativity for a binary attribute from the mixing matrix
	// e = {{FF, FM/2}, {FM/2, MM}} / total:
	// r = (sum_i e_ii - sum_i a_i^2) / (1 - sum_i a_i^2),
	// with a_i the marginal endpoint shares.
	t := float64(total)
	aF := float64(endF) / (2 * t)
	aM := float64(endM) / (2 * t)
	diag := (float64(m.FF) + float64(m.MM)) / t
	sq := aF*aF + aM*aM
	if sq < 1 {
		m.Assortativity = (diag - sq) / (1 - sq)
	}
	m.ExpectedFMShare = 2 * aF * aM
	m.ObservedFMShare = float64(m.FM) / t
	return m, nil
}

// GenderDegrees compares collaboration breadth by gender.
type GenderDegrees struct {
	FemaleN      int
	MaleN        int
	FemaleMean   float64
	MaleMean     float64
	FemaleMedian float64
	MaleMedian   float64
	// MannWhitney is the distribution-free comparison of the two degree
	// samples (collaborator counts are heavy-tailed).
	MannWhitney stats.MannWhitneyResult
}

// DegreeByGender compares the distinct-collaborator distributions of women
// and men in the graph.
func DegreeByGender(g *Graph, d *dataset.Dataset) (GenderDegrees, error) {
	var fem, mal []float64
	for _, id := range g.IDs() {
		p, ok := d.Person(id)
		if !ok || !p.Gender.Known() {
			continue
		}
		deg := float64(g.Degree(id))
		if p.Gender == gender.Female {
			fem = append(fem, deg)
		} else {
			mal = append(mal, deg)
		}
	}
	var res GenderDegrees
	res.FemaleN, res.MaleN = len(fem), len(mal)
	if len(fem) < 2 || len(mal) < 2 {
		return res, fmt.Errorf("%w authors (%d female, %d male)", ErrTooFew, len(fem), len(mal))
	}
	res.FemaleMean = stats.MustMean(fem)
	res.MaleMean = stats.MustMean(mal)
	res.FemaleMedian, _ = stats.Median(fem)
	res.MaleMedian, _ = stats.Median(mal)
	mw, err := stats.MannWhitneyU(fem, mal)
	if err != nil {
		return res, err
	}
	res.MannWhitney = mw
	return res, nil
}

// TeamSizes compares author-list sizes between female-led and male-led
// papers.
type TeamSizes struct {
	FemaleLedMean float64
	MaleLedMean   float64
	FemaleLedN    int
	MaleLedN      int
	Welch         stats.TTestResult
}

// TeamSizeByLeadGender compares paper team sizes by lead-author gender.
func TeamSizeByLeadGender(d *dataset.Dataset) (TeamSizes, error) {
	var fem, mal []float64
	for _, p := range d.Papers {
		lead, ok := d.Person(p.Lead())
		if !ok || !lead.Gender.Known() {
			continue
		}
		size := float64(len(p.Authors))
		if lead.Gender == gender.Female {
			fem = append(fem, size)
		} else {
			mal = append(mal, size)
		}
	}
	var res TeamSizes
	res.FemaleLedN, res.MaleLedN = len(fem), len(mal)
	if len(fem) < 2 || len(mal) < 2 {
		return res, fmt.Errorf("%w leads (%d female, %d male)", ErrTooFew, len(fem), len(mal))
	}
	res.FemaleLedMean = stats.MustMean(fem)
	res.MaleLedMean = stats.MustMean(mal)
	tt, err := stats.WelchTTest(fem, mal)
	if err != nil {
		return res, err
	}
	res.Welch = tt
	return res, nil
}

// SoloRate reports the share of papers whose author list has exactly one
// author with each lead gender (systems papers are rarely solo; a gender
// gap here would indicate different collaboration access).
func SoloRate(d *dataset.Dataset) (female, male stats.Proportion) {
	for _, p := range d.Papers {
		lead, ok := d.Person(p.Lead())
		if !ok || !lead.Gender.Known() {
			continue
		}
		solo := len(p.Authors) == 1
		if lead.Gender == gender.Female {
			female.N++
			if solo {
				female.K++
			}
		} else {
			male.N++
			if solo {
				male.K++
			}
		}
	}
	return female, male
}
