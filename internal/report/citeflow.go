package report

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/cite"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/stats"
)

// CitationFlow renders the gendered citation-flow extension from a, the
// citation-flow analysis of a corpus of papers papers (Study.CitationFlow,
// or cite.Analyze over the corpus's graph): the Nakajima-style
// observed-versus-null comparison per citing-team category, Wilson
// intervals on the pooled shares, and the directed lead-gender mixing of
// the citation graph.
func CitationFlow(w io.Writer, a cite.Analysis, papers int) error {
	fmt.Fprintf(w, "Citation graph: %d papers, %d edges (within conference or to earlier years only)\n",
		papers, a.Overall.Edges)
	t := NewTable("Citing team", "Edges", "Observed female-led", "Null female-led", "Over-citation").
		AlignRight(1, 2, 3, 4)
	for _, f := range append(append([]cite.Flow(nil), a.Flows...), a.Overall) {
		if err := t.AddRow(f.Team, strconv.Itoa(f.Edges),
			f.Observed.String(), f.Null.String(),
			fmt.Sprintf("%.3f", f.OverCitation())); err != nil {
			return err
		}
	}
	if err := t.RenderTo(w); err != nil {
		return err
	}
	if lo, hi, err := a.Overall.Observed.WilsonCI(0.95); err == nil {
		fmt.Fprintf(w, "Pooled observed share of female-led citations: %s, 95%% Wilson CI [%.4f, %.4f]\n",
			a.Overall.Observed, lo, hi)
	}
	if lo, hi, err := a.Overall.Null.WilsonCI(0.95); err == nil {
		fmt.Fprintf(w, "Pooled null-model share:                       %s, 95%% Wilson CI [%.4f, %.4f]\n",
			a.Overall.Null, lo, hi)
	}
	fmt.Fprintf(w, "Directed lead-gender mixing: %d FF / %d FM / %d MF / %d MM edges; assortativity %+.4f\n",
		a.Mixing.FF, a.Mixing.FM, a.Mixing.MF, a.Mixing.MM, a.Mixing.Assortativity)
	return nil
}

// citeFlowRows mirrors the cite_flow exhibit query byte-for-byte: one row
// per citing-team category in dictionary order (zero-filled when a
// category cites nothing), then the pooled ALL row.
func citeFlowRows(d *dataset.Dataset, g *cite.Graph) ([][]string, error) {
	a, err := cite.Analyze(d, g)
	if err != nil {
		return nil, err
	}
	rows := [][]string{{"team", "edges", "women_cited", "known_cited", "observed_share",
		"null_women", "null_known", "null_share"}}
	for _, f := range append(append([]cite.Flow(nil), a.Flows...), a.Overall) {
		rows = append(rows, []string{
			f.Team, strconv.Itoa(f.Edges),
			strconv.Itoa(f.Observed.K), strconv.Itoa(f.Observed.N), ftoa(f.Observed.Ratio()),
			strconv.Itoa(f.Null.K), strconv.Itoa(f.Null.N), ftoa(f.Null.Ratio()),
		})
	}
	return rows, nil
}

// citeGapRows mirrors the cite_gap exhibit query: per (conference, year)
// citation flows, grouped by conference in seeded dictionary order (the
// d.Conferences order), years within a conference in edge-appearance
// order. Conference-years that attract no citations produce no row, same
// as the engine's grouping.
func citeGapRows(d *dataset.Dataset, g *cite.Graph) ([][]string, error) {
	m := cite.NewMeta(d)
	type gapKey struct {
		conf string
		year int
	}
	type gapCell struct {
		gapKey
		edges     int
		obs, null stats.Proportion
	}
	count := func(p *stats.Proportion, lg gender.Gender) {
		if !lg.Known() {
			return
		}
		p.N++
		if lg == gender.Female {
			p.K++
		}
	}
	index := make(map[gapKey]*gapCell)
	var order []*gapCell
	for _, e := range g.Edges {
		k := gapKey{string(d.Papers[e.Src].Conf), m.Year[e.Src]}
		c := index[k]
		if c == nil {
			c = &gapCell{gapKey: k}
			index[k] = c
			order = append(order, c)
		}
		c.edges++
		count(&c.obs, m.Lead[e.Dst])
		count(&c.null, m.Lead[e.Null])
	}
	rows := [][]string{{"conference", "year", "edges", "women_cited", "known_cited",
		"observed_share", "null_women", "null_known", "null_share"}}
	seen := make(map[string]bool)
	for _, c := range d.Conferences {
		conf := string(c.ID)
		if seen[conf] {
			continue
		}
		seen[conf] = true
		for _, cell := range order {
			if cell.conf != conf {
				continue
			}
			rows = append(rows, []string{
				cell.conf, strconv.Itoa(cell.year), strconv.Itoa(cell.edges),
				strconv.Itoa(cell.obs.K), strconv.Itoa(cell.obs.N), ftoa(cell.obs.Ratio()),
				strconv.Itoa(cell.null.K), strconv.Itoa(cell.null.N), ftoa(cell.null.Ratio()),
			})
		}
	}
	return rows, nil
}
