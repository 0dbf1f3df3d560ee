package snap

import (
	"fmt"

	"repro/internal/cite"
)

// The citations section freezes the synthesized citation graph
// (internal/cite) alongside the corpus, so a warm boot serves the
// citation-flow workload without resynthesizing the graph. The section is
// version-gated through the meta flags: a binary built before
// flagHasCitations existed rejects citation-bearing snapshots as corrupt
// (unknown flag bit) instead of silently dropping the graph, and the
// reader here cross-checks flag against section presence both ways.
// Delta snapshots never carry citations — the apply path regrows the
// graph through FrameSet.AppendConference and resynthesis.

// SectionCitations is the citation-graph section of a full snapshot.
const SectionCitations = "citations"

// encodeCitations serializes the edge list: paper count, edge count, then
// per edge the source (delta-encoded against the previous edge's source —
// sources are grouped non-decreasing by construction), target, and paired
// null draw.
func encodeCitations(g *cite.Graph) []byte {
	e := &enc{}
	e.uvarint(uint64(g.Papers))
	e.uvarint(uint64(len(g.Edges)))
	prev := int64(0)
	for _, edge := range g.Edges {
		e.uvarint(uint64(int64(edge.Src) - prev))
		prev = int64(edge.Src)
		e.uvarint(uint64(edge.Dst))
		e.uvarint(uint64(edge.Null))
	}
	return e.bytesOut()
}

// decodeCitations parses and validates the citation section against the
// meta section's paper count: every index in range, no self-citations,
// sources non-decreasing.
func decodeCitations(data []byte, papers int) (*cite.Graph, error) {
	dc := newDec(SectionCitations, data)
	gotPapers, err := dc.uvarint("citation paper count")
	if err != nil {
		return nil, err
	}
	if gotPapers != uint64(papers) {
		return nil, dc.err(fmt.Sprintf("citation paper count %d disagrees with meta %d", gotPapers, papers), ErrCorrupt)
	}
	n, err := dc.length("citation edges", 3)
	if err != nil {
		return nil, err
	}
	g := &cite.Graph{Papers: papers, Edges: make([]cite.Edge, 0, n)}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		srcDelta, err := dc.uvarint("citation source")
		if err != nil {
			return nil, err
		}
		src := prev + srcDelta
		prev = src
		dst, err := dc.uvarint("citation target")
		if err != nil {
			return nil, err
		}
		null, err := dc.uvarint("citation null draw")
		if err != nil {
			return nil, err
		}
		if src >= uint64(papers) || dst >= uint64(papers) || null >= uint64(papers) {
			return nil, dc.err(fmt.Sprintf("citation edge %d indexes out of range [0,%d)", i, papers), ErrCorrupt)
		}
		if src == dst {
			return nil, dc.err(fmt.Sprintf("citation edge %d is a self-citation (paper %d)", i, src), ErrCorrupt)
		}
		g.Edges = append(g.Edges, cite.Edge{Src: int32(src), Dst: int32(dst), Null: int32(null)})
	}
	if err := dc.finished("citations"); err != nil {
		return nil, err
	}
	return g, nil
}
