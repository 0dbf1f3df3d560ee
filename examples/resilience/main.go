// Resilience: harvest the corpus through the "outage" fault profile and
// watch the ingestion pipeline survive it — the Google Scholar breaker
// trips, researchers shed onto the Semantic Scholar fallback, half-open
// probes detect recovery, and the final analysis is annotated with which
// exhibits now rest on partial data.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/faulty"
	"repro/internal/report"
	"repro/internal/synth"
)

func main() {
	seed := flag.Uint64("seed", 2021, "corpus seed")
	profile := flag.String("profile", faulty.ProfileOutage, "fault profile to harvest under")
	flag.Parse()

	study, err := repro.NewHarvestedStudy(synth.Default2017(*seed), *profile, repro.HarvestHooks{})
	if err != nil {
		log.Fatal(err)
	}
	rep := study.Harvest()

	fmt.Printf("Harvested %d researchers under the %q profile.\n", rep.Total, rep.Profile)
	fmt.Printf("Breaker: %d trip(s), %d recover(y/ies), %d call(s) shed while open.\n",
		rep.BreakerTrips, rep.BreakerRecoveries, rep.Shed)
	fmt.Printf("During the outage %d researcher(s) degraded to the S2 fallback;\n", rep.FallbackS2)
	fmt.Printf("after recovery %d linked to Google Scholar normally.\n\n", rep.LinkedGS)

	if err := report.Harvest(os.Stdout, rep); err != nil {
		log.Fatal(err)
	}

	sens, err := study.CoverageSensitivity()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGS coverage: %.1f%% pristine vs %.1f%% harvested.\n",
		100*sens.BaselineCoverage, 100*sens.AchievedCoverage)
	if sens.Stable {
		fmt.Println("Every key observation kept its direction and significance.")
	} else {
		fmt.Printf("Observations that flipped under degraded coverage: %v\n", sens.Flips)
	}
	for _, ex := range sens.PartialExhibits {
		fmt.Printf("  partial data: %s\n", ex)
	}
}
