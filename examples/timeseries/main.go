// Timeseries: the §3.4 case study — SC and ISC female author ratios across
// 2016-2020, against the attendance demographics the conferences reported.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/synth"
)

func main() {
	seed := flag.Uint64("seed", 42, "corpus seed")
	flag.Parse()

	study, err := repro.NewStudyFromConfig(synth.FlagshipSeries(*seed))
	if err != nil {
		log.Fatal(err)
	}
	points := study.Trend()

	fmt.Println("Flagship FAR trajectory (SC and ISC, 2016-2020):")
	fmt.Println()
	for _, series := range []string{"SC", "ISC"} {
		fmt.Printf("%s:\n", series)
		for _, p := range points {
			if p.Series != series {
				continue
			}
			bar := strings.Repeat("#", int(p.FAR.Ratio()*300))
			att := ""
			if p.Attendance > 0 {
				att = fmt.Sprintf("  (attendance: %.0f%% women)", 100*p.Attendance)
			}
			fmt.Printf("  %d |%-30s %s%s\n", p.Year, bar, p.FAR, att)
		}
		fmt.Println()
	}

	fmt.Println("The paper's observation: despite both venues' diversity chairs,")
	fmt.Println("codes of conduct and (at SC) childcare, FAR stays far below the")
	fmt.Println("attendance share and shows no upward trend over the window.")
}
