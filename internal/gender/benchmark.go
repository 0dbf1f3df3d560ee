package gender

import "fmt"

// Confusion is the 2x3 confusion matrix of a name-to-gender inference run:
// true gender (female/male) by predicted gender (female/male/unknown).
// The field naming follows Santamaria & Mihaljevic's benchmark of
// name-to-gender inference services (the paper's reference [39]).
type Confusion struct {
	FF, FM, FU int // true female predicted female / male / unknown
	MF, MM, MU int // true male predicted female / male / unknown
}

// Total returns the evaluated population size.
func (c Confusion) Total() int { return c.FF + c.FM + c.FU + c.MF + c.MM + c.MU }

// ErrorCoded is the overall error rate counting non-assignments as errors:
// (fm + mf + fu + mu) / total.
func (c Confusion) ErrorCoded() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.FM+c.MF+c.FU+c.MU) / float64(t)
}

// NACoded is the non-assignment rate: (fu + mu) / total.
func (c Confusion) NACoded() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.FU+c.MU) / float64(t)
}

// LabeledName is one benchmark item: a forename with its bearer's true
// gender and optional country context.
type LabeledName struct {
	Forename    string
	CountryCode string
	Truth       Gender
}

// Evaluate runs a Genderizer over labeled names at the given confidence
// floor (0 means the paper's 0.70) and tallies the confusion matrix.
// Unknown-truth items are rejected: the benchmark needs ground truth.
func Evaluate(g Genderizer, items []LabeledName, floor float64) (Confusion, error) {
	if g == nil {
		return Confusion{}, fmt.Errorf("gender: nil genderizer")
	}
	if floor == 0 {
		floor = ConfidenceFloor
	}
	if floor < 0.5 || floor > 1 {
		return Confusion{}, fmt.Errorf("gender: confidence floor %g outside [0.5, 1]", floor)
	}
	var c Confusion
	for i, it := range items {
		if !it.Truth.Known() {
			return Confusion{}, fmt.Errorf("gender: item %d (%q) has unknown truth", i, it.Forename)
		}
		resp := g.Infer(it.Forename, it.CountryCode)
		pred := Unknown
		if resp.Gender.Known() && resp.Probability >= floor && resp.Count > 0 {
			pred = resp.Gender
		}
		switch {
		case it.Truth == Female && pred == Female:
			c.FF++
		case it.Truth == Female && pred == Male:
			c.FM++
		case it.Truth == Female:
			c.FU++
		case pred == Female:
			c.MF++
		case pred == Male:
			c.MM++
		default:
			c.MU++
		}
	}
	return c, nil
}
