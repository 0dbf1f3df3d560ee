// Cite: who cites whom? Synthesizes the gendered citation-flow graph of
// the 2017 corpus — every edge points within a conference or backward in
// time — and contrasts each citing-team category's observed share of
// female-led citations against a citation-blind null draw from the same
// candidate pools, Nakajima-style.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/cite"
	"repro/internal/report"
)

func main() {
	seed := flag.Uint64("seed", 2021, "corpus seed")
	flag.Parse()

	study, err := repro.NewStudy(*seed)
	if err != nil {
		log.Fatal(err)
	}
	flow, err := study.CitationFlow()
	if err != nil {
		log.Fatal(err)
	}
	if err := report.CitationFlow(os.Stdout, flow, len(study.Dataset().Papers)); err != nil {
		log.Fatal(err)
	}

	// Beyond the packaged analysis: the over/under-citation ratio per team,
	// spelled out.
	fmt.Println("\nOver-citation of women-led work, by citing-team composition:")
	for _, f := range flow.Flows {
		if f.Edges == 0 {
			fmt.Printf("  %-10s no outgoing citations\n", f.Team)
			continue
		}
		verdict := "over-cites"
		if f.OverCitation() < 1 {
			verdict = "under-cites"
		}
		fmt.Printf("  %-10s %s women-led papers %.2fx relative to chance (%d edges)\n",
			f.Team, verdict, f.OverCitation(), f.Edges)
	}

	g := study.CitationGraph()
	crossYear := 0
	d := study.Dataset()
	for _, e := range g.Edges {
		if d.Papers[e.Src].Conf != d.Papers[e.Dst].Conf {
			crossYear++
		}
	}
	fmt.Printf("\nGraph shape: %d edges over %d papers; %d cross-conference (earlier-year) citations.\n",
		len(g.Edges), g.Papers, crossYear)

	fmt.Printf("Team categories considered: %v.\n", cite.TeamCategories())
}
