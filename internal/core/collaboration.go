package core

import (
	"repro/internal/collab"
	"repro/internal/dataset"
)

// CollaborationAnalysis is the paper's future-work extension implemented:
// differences in collaboration patterns between women and men, computed on
// the coauthorship graph of the corpus.
type CollaborationAnalysis struct {
	Nodes         int
	Edges         int
	GiantFraction float64

	Mixing  collab.Mixing
	Degrees collab.GenderDegrees
	Teams   collab.TeamSizes
}

// CollaborationPatterns builds the coauthorship graph and runs the gender
// comparisons over it.
func CollaborationPatterns(d *dataset.Dataset) (CollaborationAnalysis, error) {
	g := collab.BuildGraph(d)
	res := CollaborationAnalysis{
		Nodes:         g.Nodes(),
		Edges:         g.Edges(),
		GiantFraction: g.GiantComponentFraction(),
	}
	mixing, err := collab.MixingAnalysis(g, d)
	if err != nil {
		return res, notApplicable(err)
	}
	res.Mixing = mixing
	degrees, err := collab.DegreeByGender(g, d)
	if err != nil {
		return res, notApplicable(err)
	}
	res.Degrees = degrees
	teams, err := collab.TeamSizeByLeadGender(d)
	if err != nil {
		return res, notApplicable(err)
	}
	res.Teams = teams
	return res, nil
}
