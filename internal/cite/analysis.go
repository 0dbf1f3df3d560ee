package cite

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/collab"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/stats"
)

// Flow is the observed-versus-null citation flow of one citing-team
// slice, the unit of the Nakajima-style imbalance comparison.
type Flow struct {
	// Team is the citing-team category (TeamCategories order), or "ALL"
	// for the pooled overall row.
	Team string
	// Edges is the total citation count from this team category.
	Edges int
	// Observed counts female-led citations among citations to known-
	// gender-led papers: K = cited papers with a female lead, N = cited
	// papers with a known-gender lead.
	Observed stats.Proportion
	// Null is the same proportion over the paired null-model draws —
	// what a citation-blind picker would have produced from the same
	// candidate pools.
	Null stats.Proportion
}

// OverCitation is the over/under-citation ratio: observed female-led
// share divided by the null share. Above 1 the team over-cites women-led
// work relative to chance; below 1 it under-cites. NaN when either share
// is undefined or the null share is zero.
func (f Flow) OverCitation() float64 {
	obs, null := f.Observed.Ratio(), f.Null.Ratio()
	if math.IsNaN(obs) || math.IsNaN(null) || null == 0 {
		return math.NaN()
	}
	return obs / null
}

// Analysis is the full gendered citation-flow picture of one corpus.
type Analysis struct {
	// Flows holds one row per citing-team category, in TeamCategories
	// order (zero-valued rows for categories with no edges).
	Flows []Flow
	// Overall pools every edge regardless of citing team.
	Overall Flow
	// Mixing is the directed gender mixing of (citing lead → cited lead)
	// pairs, with Newman assortativity — the homophily view of the same
	// graph.
	Mixing collab.DirectedMixing
}

// ErrNoEdges means a citation analysis was asked of a corpus whose graph
// has no edges.
var ErrNoEdges = errors.New("cite: graph has no edges")

// Analyze computes observed and null citation flows per citing-team
// category, the pooled overall flow, and directed lead-gender mixing.
// The arithmetic is integer counting plus stats.Proportion, so the same
// graph always yields the identical analysis.
func Analyze(d *dataset.Dataset, g *Graph) (Analysis, error) {
	if g == nil {
		return Analysis{}, fmt.Errorf("cite: nil graph")
	}
	if g.Papers != len(d.Papers) {
		return Analysis{}, fmt.Errorf("cite: graph covers %d papers, corpus has %d", g.Papers, len(d.Papers))
	}
	m := NewMeta(d)
	byTeam := make(map[string]*Flow, 4)
	var a Analysis
	a.Flows = make([]Flow, 0, 4)
	for _, team := range TeamCategories() {
		a.Flows = append(a.Flows, Flow{Team: team})
		byTeam[team] = &a.Flows[len(a.Flows)-1]
	}
	a.Overall.Team = "ALL"
	var ff, fm, mf, mm int
	for _, e := range g.Edges {
		f := byTeam[m.Team[e.Src]]
		for _, flow := range []*Flow{f, &a.Overall} {
			flow.Edges++
			tally(&flow.Observed, m.Lead[e.Dst])
			tally(&flow.Null, m.Lead[e.Null])
		}
		if src, dst := m.Lead[e.Src], m.Lead[e.Dst]; src.Known() && dst.Known() {
			switch {
			case src == gender.Female && dst == gender.Female:
				ff++
			case src == gender.Female:
				fm++
			case dst == gender.Female:
				mf++
			default:
				mm++
			}
		}
	}
	if a.Overall.Edges == 0 {
		return a, ErrNoEdges
	}
	mix, err := collab.DirectedMixingAnalysis(ff, fm, mf, mm)
	if err != nil {
		return a, fmt.Errorf("cite: %w", err)
	}
	a.Mixing = mix
	return a, nil
}

// tally folds one cited (or null-drawn) lead gender into a proportion:
// unknown leads are excluded from both numerator and denominator.
func tally(p *stats.Proportion, g gender.Gender) {
	if !g.Known() {
		return
	}
	p.N++
	if g == gender.Female {
		p.K++
	}
}
