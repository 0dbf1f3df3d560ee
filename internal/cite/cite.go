// Package cite synthesizes and analyzes a gendered citation-flow graph
// over the corpus, in the style of Nakajima et al.'s "Systemic Gendered
// Citation Imbalance in Computer Science": a directed paper→paper edge
// set with calibrated imbalance (citing-team gender composition × cited-
// lead gender), paired with a random-draw null model that records, for
// every realized edge, the paper a citation-blind author would have
// drawn from the same candidate pool.
//
// Synthesis is a pure function of the corpus: every paper owns an RNG
// stream seeded from its own ID, candidate pools contain only papers of
// the same conference or of strictly earlier years, and all sampling
// arithmetic is integer-only. Appending a newest-year conference
// therefore never perturbs existing papers' edges, which is what lets
// delta application grow the graph in O(new edges) and still match a
// full resynthesis byte-for-byte.
package cite

import (
	"fmt"
	"hash/fnv"

	"repro/internal/dataset"
	"repro/internal/gender"
)

// Team categories for a citing author list, derived from the known-gender
// authors only (the paper's convention for ratio analyses). The order
// here is canonical: frames, exhibits, and reports all present teams in
// this order.
const (
	TeamAllMen   = "all_men"
	TeamAllWomen = "all_women"
	TeamMixed    = "mixed"
	TeamUnknown  = "unknown"
)

// TeamCategories returns the citing-team categories in canonical order.
func TeamCategories() []string {
	return []string{TeamAllMen, TeamAllWomen, TeamMixed, TeamUnknown}
}

// Edge is one directed citation. Indexes refer to the corpus paper order
// (dataset.Dataset.Papers), which is conference-contiguous and stable
// under year-delta appends.
type Edge struct {
	// Src cites Dst.
	Src, Dst int32
	// Null is the paired null-model draw: a uniform pick from Src's
	// candidate pool, made with the same RNG stream immediately after
	// Dst. Comparing Dst statistics against Null statistics measures
	// over/under-citation free of pool-composition effects.
	Null int32
}

// Graph is the synthesized citation graph of one corpus.
type Graph struct {
	// Papers is the corpus paper count the edge indexes refer to.
	Papers int
	// Edges holds all citations, grouped by source paper in corpus
	// order, draws within a paper in selection order.
	Edges []Edge
}

// Meta carries the per-paper derived attributes that graph synthesis and
// frame emission share, indexed in corpus paper order.
type Meta struct {
	// Team is the citing-team gender category of each paper's author list.
	Team []string
	// Lead is each paper's lead-author gender (Unknown when the author
	// list is empty or the lead is not in the corpus).
	Lead []gender.Gender
	// Year is each paper's conference year.
	Year []int
	// Country is each paper's lead-author country code ("" when unknown).
	Country []string
}

// NewMeta derives the shared per-paper attributes from the corpus.
func NewMeta(d *dataset.Dataset) *Meta {
	n := len(d.Papers)
	m := &Meta{
		Team:    make([]string, n),
		Lead:    make([]gender.Gender, n),
		Year:    make([]int, n),
		Country: make([]string, n),
	}
	for i, p := range d.Papers {
		m.Team[i] = TeamOf(d, p)
		if lead, ok := d.Person(p.Lead()); ok {
			m.Lead[i] = lead.Gender
			m.Country[i] = lead.CountryCode
		}
		if c, ok := d.Conference(p.Conf); ok {
			m.Year[i] = c.Year
		}
	}
	return m
}

// TeamOf categorizes a paper's author list by the genders that are known:
// no known genders → TeamUnknown, all known female → TeamAllWomen, all
// known male → TeamAllMen, otherwise TeamMixed.
func TeamOf(d *dataset.Dataset, p *dataset.Paper) string {
	var f, m int
	for _, id := range p.Authors {
		a, ok := d.Person(id)
		if !ok {
			continue
		}
		switch a.Gender {
		case gender.Female:
			f++
		case gender.Male:
			m++
		}
	}
	switch {
	case f == 0 && m == 0:
		return TeamUnknown
	case m == 0:
		return TeamAllWomen
	case f == 0:
		return TeamAllMen
	default:
		return TeamMixed
	}
}

// Calibrated citation propensity weights (integer, base 100): the
// relative chance a citing team of the row's composition picks a
// candidate with the column's lead gender, calibrated to the direction
// and rough magnitude Nakajima et al. report (men-led teams under-cite
// women-led work; women-led teams over-cite it; mixed teams sit in
// between). Unknown team or unknown cited lead stays at base.
const (
	weightBase = 100

	weightAllMenFemale   = 72
	weightAllMenMale     = 104
	weightAllWomenFemale = 140
	weightAllWomenMale   = 96
	weightMixedFemale    = 112
	weightMixedMale      = 100
)

// citeWeight returns the integer propensity weight for a citing team
// category picking a candidate whose lead has gender g.
func citeWeight(team string, g gender.Gender) int {
	if !g.Known() {
		return weightBase
	}
	female := g == gender.Female
	switch team {
	case TeamAllMen:
		if female {
			return weightAllMenFemale
		}
		return weightAllMenMale
	case TeamAllWomen:
		if female {
			return weightAllWomenFemale
		}
		return weightAllWomenMale
	case TeamMixed:
		if female {
			return weightMixedFemale
		}
		return weightMixedMale
	default:
		return weightBase
	}
}

// Out-degree bounds: each paper cites between minOutDegree and
// maxOutDegree in-corpus papers, capped by its candidate pool size.
const (
	minOutDegree = 2
	maxOutDegree = 6
)

// graphSeed decorrelates the per-paper RNG streams from any other use of
// FNV-hashed paper IDs in the codebase.
const graphSeed = 0xc17e5eed00000001

// rng is a splitmix64 stream; one instance per source paper, seeded from
// the paper's ID, so a paper's draws are independent of corpus size and
// of every other paper.
type rng struct{ state uint64 }

func newPaperRNG(id dataset.PaperID) *rng {
	h := fnv.New64a()
	h.Write([]byte(id)) //whpcvet:ignore errcheck — hash.Hash Write never fails
	return &rng{state: h.Sum64() ^ graphSeed}
}

// next advances the splitmix64 stream.
//
//whpcvet:hot
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws a value in [0, n) by modulo reduction. The tiny modulo bias
// is irrelevant here — the draw only has to be deterministic, not
// statistically perfect.
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// Synthesize builds the full citation graph of the corpus. The result is
// a pure function of the corpus content: same dataset, same graph,
// byte-for-byte.
func Synthesize(d *dataset.Dataset) *Graph {
	m := NewMeta(d)
	g := &Graph{Papers: len(d.Papers)}
	// Scratch buffers reused across source papers.
	cand := make([]int32, 0, len(d.Papers))
	weights := make([]int, 0, len(d.Papers))
	for i := range d.Papers {
		g.Edges = appendPaperEdges(d, m, int32(i), g.Edges, &cand, &weights)
	}
	return g
}

// ConferenceEdges synthesizes only the edges whose source papers belong
// to the given conference, against candidate pools drawn from the whole
// corpus. When the conference is the newest year in the corpus (the
// year-delta precondition), appending its papers and then calling this
// equals the tail of a full Synthesize.
func ConferenceEdges(d *dataset.Dataset, confID dataset.ConfID) []Edge {
	m := NewMeta(d)
	var edges []Edge
	cand := make([]int32, 0, len(d.Papers))
	weights := make([]int, 0, len(d.Papers))
	for i, p := range d.Papers {
		if p.Conf != confID {
			continue
		}
		edges = appendPaperEdges(d, m, int32(i), edges, &cand, &weights)
	}
	return edges
}

// Extend returns the graph of a corpus grown to papers papers by appending
// one newest-year conference whose edges (ConferenceEdges over the grown
// corpus) are given. By the year-delta precondition the result equals
// Synthesize of the grown corpus. g is left unchanged.
func (g *Graph) Extend(papers int, edges []Edge) *Graph {
	all := make([]Edge, 0, len(g.Edges)+len(edges))
	return &Graph{Papers: papers, Edges: append(append(all, g.Edges...), edges...)}
}

// appendPaperEdges draws source paper src's citations and paired null
// picks, appending them to dst. Candidate pools admit same-conference
// papers and papers from strictly earlier years — a paper can only cite
// work already published when its own proceedings close.
//
//whpcvet:hot
func appendPaperEdges(d *dataset.Dataset, m *Meta, src int32, dst []Edge, candBuf *[]int32, weightBuf *[]int) []Edge {
	p := d.Papers[src]
	cand := (*candBuf)[:0]
	weights := (*weightBuf)[:0]
	team := m.Team[src]
	year := m.Year[src]
	total := 0
	for j := range d.Papers {
		if int32(j) == src {
			continue
		}
		if d.Papers[j].Conf != p.Conf && m.Year[j] >= year {
			continue
		}
		w := citeWeight(team, m.Lead[j])
		cand = append(cand, int32(j))
		weights = append(weights, w)
		total += w
	}
	*candBuf, *weightBuf = cand, weights
	if len(cand) == 0 {
		return dst
	}
	r := newPaperRNG(p.ID)
	k := minOutDegree + r.intn(maxOutDegree-minOutDegree+1)
	if k > len(cand) {
		k = len(cand)
	}
	for e := 0; e < k && total > 0; e++ {
		// Weighted draw without replacement: walk the cumulative weights
		// to the drawn offset, then zero the winner out of the pool.
		draw := r.intn(total)
		pick := -1
		acc := 0
		for c, w := range weights {
			acc += w
			if draw < acc {
				pick = c
				break
			}
		}
		total -= weights[pick]
		weights[pick] = 0
		// Paired null draw: uniform over the full pool, with replacement,
		// blind to genders and to the biased pick.
		null := cand[r.intn(len(cand))]
		dst = append(dst, Edge{Src: src, Dst: cand[pick], Null: null})
	}
	return dst
}

// Validate checks the structural invariants the snapshot decoder and the
// frame builder rely on: in-range indexes, no self-citations, and
// sources grouped in non-decreasing corpus order.
func (g *Graph) Validate() error {
	prev := int32(0)
	for i, e := range g.Edges {
		if e.Src < 0 || int(e.Src) >= g.Papers ||
			e.Dst < 0 || int(e.Dst) >= g.Papers ||
			e.Null < 0 || int(e.Null) >= g.Papers {
			return fmt.Errorf("cite: edge %d indexes out of range [0,%d)", i, g.Papers)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("cite: edge %d is a self-citation (paper %d)", i, e.Src)
		}
		if e.Src < prev {
			return fmt.Errorf("cite: edge %d source %d out of order after %d", i, e.Src, prev)
		}
		prev = e.Src
	}
	return nil
}
