package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/scholar"
	"repro/internal/stats"
)

// GroupSample is one gender x role sample of a bibliometric measure, with
// summary statistics and a density curve — the building block of Figs 3-5.
type GroupSample struct {
	Gender  gender.Gender
	Role    dataset.Role
	Values  []float64
	Summary stats.Summary
	Density DensityCurve
}

// Metric selects which bibliometric quantity an experience distribution
// reads from researcher records.
type Metric int

const (
	// MetricGSPublications is the Google Scholar past-publication count
	// (Fig 3); only GS-linked researchers contribute.
	MetricGSPublications Metric = iota
	// MetricHIndex is the Google Scholar h-index (Fig 4).
	MetricHIndex
	// MetricS2Publications is the Semantic Scholar past-publication count
	// (Fig 5); coverage is universal for authors.
	MetricS2Publications
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricGSPublications:
		return "GS publications"
	case MetricHIndex:
		return "h-index"
	case MetricS2Publications:
		return "S2 publications"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

func (m Metric) read(p *dataset.Person) (float64, bool) {
	switch m {
	case MetricGSPublications:
		if !p.HasGSProfile {
			return 0, false
		}
		return float64(p.GS.Publications), true
	case MetricHIndex:
		if !p.HasGSProfile {
			return 0, false
		}
		return float64(p.GS.HIndex), true
	case MetricS2Publications:
		if !p.HasS2 {
			return 0, false
		}
		return float64(p.S2Pubs), true
	default:
		return 0, false
	}
}

// GenderGapKS formalizes the paper's visual reading of Figs 3-5 ("the
// male authors' distributions pull to the right"): a two-sample
// Kolmogorov-Smirnov test of the female vs male metric distributions for
// one role.
type GenderGapKS struct {
	Metric Metric
	Role   dataset.Role
	KS     stats.KSResult
	// MaleShiftRight reports whether the male median exceeds the female
	// median (the direction of the paper's observation).
	MaleShiftRight bool
}

// DistributionGap runs the KS comparison for a metric and role. It reads
// only the samples and their medians, so it skips the density curves.
func DistributionGap(d *dataset.Dataset, m Metric, role dataset.Role) (GenderGapKS, error) {
	samples, err := experienceSamples(d, m, role)
	if err != nil {
		return GenderGapKS{}, err
	}
	var fem, mal []float64
	var femMed, malMed float64
	for _, s := range samples {
		if s.Gender == gender.Female {
			fem = s.Values
			femMed = s.Summary.Median
		} else {
			mal = s.Values
			malMed = s.Summary.Median
		}
	}
	ks, err := stats.KolmogorovSmirnov(fem, mal)
	if err != nil {
		return GenderGapKS{}, err
	}
	return GenderGapKS{
		Metric:         m,
		Role:           role,
		KS:             ks,
		MaleShiftRight: malMed > femMed,
	}, nil
}

// ExperienceDistributions computes the Fig 3/4/5 samples: the metric split
// by gender for each requested role population (unique persons per role).
func ExperienceDistributions(d *dataset.Dataset, m Metric, roles ...dataset.Role) ([]GroupSample, error) {
	out, err := experienceSamples(d, m, roles...)
	if err != nil {
		return nil, err
	}
	for i := range out {
		s := &out[i]
		kde, err := stats.NewKDE(s.Values, stats.Silverman)
		if err != nil {
			return nil, err
		}
		x, y := kde.Evaluate(256)
		s.Density = DensityCurve{Label: s.Gender.String() + " " + s.Role.String(), X: x, Y: y}
	}
	return out, nil
}

// experienceSamples collects ExperienceDistributions' values and summaries
// without the density curves.
func experienceSamples(d *dataset.Dataset, m Metric, roles ...dataset.Role) ([]GroupSample, error) {
	if len(roles) == 0 {
		roles = []dataset.Role{dataset.RoleAuthor, dataset.RolePCMember}
	}
	var out []GroupSample
	for _, role := range roles {
		var ids []dataset.PersonID
		if role == dataset.RoleAuthor {
			ids = d.UniqueAuthors()
		} else {
			ids = d.UniqueRoleHolders(role)
		}
		byGender := map[gender.Gender][]float64{}
		for _, id := range ids {
			p, ok := d.Person(id)
			if !ok || !p.Gender.Known() {
				continue
			}
			if v, ok := m.read(p); ok {
				byGender[p.Gender] = append(byGender[p.Gender], v)
			}
		}
		for _, g := range []gender.Gender{gender.Female, gender.Male} {
			vals := byGender[g]
			if len(vals) < 2 {
				return nil, fmt.Errorf("core: too few %s %s with %s data (%d)", g, role, m, len(vals))
			}
			sum, err := stats.Summarize(vals)
			if err != nil {
				return nil, err
			}
			out = append(out, GroupSample{Gender: g, Role: role, Values: vals, Summary: sum})
		}
	}
	return out, nil
}

// SourceCorrelation is the §5.1 Google Scholar vs Semantic Scholar
// cross-check (paper: r = 0.334, p < 0.0001).
type SourceCorrelation struct {
	N      int
	Result stats.CorrelationResult
}

// CompareScholarSources correlates GS and S2 publication counts across the
// unique authors carrying both.
func CompareScholarSources(d *dataset.Dataset) (SourceCorrelation, error) {
	var gs, s2 []float64
	for _, id := range d.UniqueAuthors() {
		p, ok := d.Person(id)
		if !ok || !p.HasGSProfile || !p.HasS2 {
			continue
		}
		gs = append(gs, float64(p.GS.Publications))
		s2 = append(s2, float64(p.S2Pubs))
	}
	r, err := stats.PearsonCorrelation(gs, s2)
	if err != nil {
		return SourceCorrelation{}, err
	}
	return SourceCorrelation{N: len(gs), Result: r}, nil
}

// BandCell is one gender's experience-band breakdown (Fig 6).
type BandCell struct {
	Gender gender.Gender
	Counts [3]int // Novice, MidCareer, Experienced
	Total  int
}

// Share returns the fraction of the gender's population in a band.
func (b BandCell) Share(band scholar.ExperienceBand) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Counts[band]) / float64(b.Total)
}

// BandAnalysis is Fig 6 plus the §5.1 novice-gap test.
type BandAnalysis struct {
	All     []BandCell // all researchers with a known h-index
	Authors []BandCell // authors only

	// NoviceTest compares the novice share between female and male authors
	// (paper: 44.8% vs 36.4%, chi2 = 7.419, p = 0.00645).
	NoviceFemale stats.Proportion
	NoviceMale   stats.Proportion
	NoviceTest   stats.ChiSquaredResult

	GSCoverage float64 // share of known-gender researchers with a GS link
}

// ExperienceBands computes the Fig 6 stratification over all researchers
// (unique authors and PC members) and the author-only novice comparison.
func ExperienceBands(d *dataset.Dataset) (BandAnalysis, error) {
	var res BandAnalysis
	all := d.UniqueAuthorsAndPC()
	allCells, covered, known := bandCells(d, all)
	res.All = allCells
	if known > 0 {
		res.GSCoverage = float64(covered) / float64(known)
	}
	authorCells, _, _ := bandCells(d, d.UniqueAuthors())
	res.Authors = authorCells

	for _, c := range authorCells {
		p := stats.Proportion{K: c.Counts[scholar.Novice], N: c.Total}
		if c.Gender == gender.Female {
			res.NoviceFemale = p
		} else {
			res.NoviceMale = p
		}
	}
	if res.NoviceFemale.N == 0 || res.NoviceMale.N == 0 {
		return res, fmt.Errorf("core: missing gendered author band populations")
	}
	test, err := stats.TwoProportionChiSq(
		res.NoviceFemale.K, res.NoviceFemale.N,
		res.NoviceMale.K, res.NoviceMale.N)
	if err != nil {
		return res, err
	}
	res.NoviceTest = test
	return res, nil
}

// bandCells tallies experience bands by gender over a person set; it also
// reports how many known-gender persons exist and how many carry a GS link.
func bandCells(d *dataset.Dataset, ids []dataset.PersonID) (cells []BandCell, covered, known int) {
	byGender := map[gender.Gender]*BandCell{
		gender.Female: {Gender: gender.Female},
		gender.Male:   {Gender: gender.Male},
	}
	for _, id := range ids {
		p, ok := d.Person(id)
		if !ok || !p.Gender.Known() {
			continue
		}
		known++
		if !p.HasGSProfile {
			continue
		}
		covered++
		cell := byGender[p.Gender]
		cell.Counts[scholar.BandOf(p.GS.HIndex)]++
		cell.Total++
	}
	return []BandCell{*byGender[gender.Female], *byGender[gender.Male]}, covered, known
}
