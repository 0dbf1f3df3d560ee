// Extended-survey: the paper's future work — expand the analysis from the
// nine HPC venues to a cross-section of all computer-systems subfields,
// and place HPC's ~10% FAR against the broader field.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	seed := flag.Uint64("seed", 42, "corpus seed")
	flag.Parse()

	study, err := repro.NewStudyFromConfig(synth.ExtendedSystems(*seed))
	if err != nil {
		log.Fatal(err)
	}
	d := study.Dataset()
	fmt.Printf("Extended corpus: %d conferences, %d papers, %d researchers\n\n",
		len(d.Conferences), len(d.Papers), len(d.Persons))

	if err := report.Subfields(os.Stdout, d); err != nil {
		log.Fatal(err)
	}

	sub, err := study.Subfields()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe paper's motivating framing: women are 20-30% of the CS research")
	fmt.Printf("community but only ~10%% of HPC authors. In this corpus HPC sits at %s\n", report.Pct(sub.HPC.Ratio()))
	fmt.Printf("and the highest subfield at %s (%s).\n",
		report.Pct(sub.Rows[0].FAR.Ratio()), sub.Rows[0].Subfield)
}
