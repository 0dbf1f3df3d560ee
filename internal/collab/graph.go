// Package collab implements the coauthorship-network analysis the paper
// lists as future work: "deeper gender questions that emerge from the
// data, such as the differences in collaboration patterns between women
// and men". It builds the coauthorship graph from a corpus and provides
// degree statistics, connected components, gender mixing (Newman
// assortativity), and team-size comparisons by gender.
package collab

import (
	"sort"

	"repro/internal/dataset"
)

// Graph is an undirected weighted coauthorship graph: nodes are
// researchers, an edge connects two people who coauthored at least one
// paper, and the weight counts their joint papers.
type Graph struct {
	adj   map[dataset.PersonID]map[dataset.PersonID]int
	paper map[dataset.PersonID]int // papers per author
}

// BuildGraph constructs the coauthorship graph over the given conferences
// (all when none specified).
func BuildGraph(d *dataset.Dataset, confs ...dataset.ConfID) *Graph {
	g := &Graph{
		adj:   make(map[dataset.PersonID]map[dataset.PersonID]int),
		paper: make(map[dataset.PersonID]int),
	}
	papers := d.Papers
	if len(confs) > 0 {
		papers = nil
		for _, id := range confs {
			papers = append(papers, d.PapersOf(id)...)
		}
	}
	for _, p := range papers {
		for _, a := range p.Authors {
			g.paper[a]++
			if g.adj[a] == nil {
				g.adj[a] = make(map[dataset.PersonID]int)
			}
		}
		for i, a := range p.Authors {
			for _, b := range p.Authors[i+1:] {
				g.adj[a][b]++
				g.adj[b][a]++
			}
		}
	}
	return g
}

// Nodes returns the number of authors in the graph.
func (g *Graph) Nodes() int { return len(g.adj) }

// Edges returns the number of distinct coauthor pairs.
func (g *Graph) Edges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Degree returns the number of distinct collaborators of id (0 if absent).
func (g *Graph) Degree(id dataset.PersonID) int { return len(g.adj[id]) }

// Weight returns the number of joint papers between a and b.
func (g *Graph) Weight(a, b dataset.PersonID) int { return g.adj[a][b] }

// Papers returns the number of papers id authored in the graph's scope.
func (g *Graph) Papers(id dataset.PersonID) int { return g.paper[id] }

// Neighbors returns id's collaborators, sorted for determinism.
func (g *Graph) Neighbors(id dataset.PersonID) []dataset.PersonID {
	out := make([]dataset.PersonID, 0, len(g.adj[id]))
	for n := range g.adj[id] {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IDs returns all node IDs, sorted.
func (g *Graph) IDs() []dataset.PersonID {
	out := make([]dataset.PersonID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Components returns the connected components, largest first (ties broken
// by smallest member ID), each component sorted by ID.
func (g *Graph) Components() [][]dataset.PersonID {
	seen := make(map[dataset.PersonID]bool, len(g.adj))
	var comps [][]dataset.PersonID
	for _, start := range g.IDs() {
		if seen[start] {
			continue
		}
		var comp []dataset.PersonID
		queue := []dataset.PersonID{start}
		seen[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for n := range g.adj[cur] {
				if !seen[n] {
					seen[n] = true
					//whpcvet:ignore maporder visit order only permutes comp, which is sorted once the component is complete
					queue = append(queue, n)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.SliceStable(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// GiantComponentFraction returns the share of nodes in the largest
// connected component (0 for an empty graph).
func (g *Graph) GiantComponentFraction() float64 {
	if g.Nodes() == 0 {
		return 0
	}
	comps := g.Components()
	return float64(len(comps[0])) / float64(g.Nodes())
}
