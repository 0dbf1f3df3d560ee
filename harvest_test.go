package repro

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faulty"
	"repro/internal/synth"
)

// TestHarvestedStudyCleanMatchesNewStudy: the clean-profile harvested
// study must be indistinguishable from the directly constructed one.
func TestHarvestedStudyCleanMatchesNewStudy(t *testing.T) {
	h, err := NewHarvestedStudy(synth.Default2017(2021), faulty.ProfileClean, HarvestHooks{})
	if err != nil {
		t.Fatal(err)
	}
	rep := h.Harvest()
	if rep == nil {
		t.Fatal("harvested study carries no harvest report")
	}
	if rep.Abandoned != 0 || rep.FallbackS2 != 0 {
		t.Fatalf("clean harvest degraded: %s", rep)
	}
	for id, orig := range study.Dataset().Persons {
		got, ok := h.Dataset().Persons[id]
		if !ok {
			t.Fatalf("person %s missing from harvested study", id)
		}
		if !reflect.DeepEqual(*orig, *got) {
			t.Fatalf("person %s differs under clean harvest:\norig %+v\ngot  %+v", id, *orig, *got)
		}
	}
}

// TestHarvestedStudyFlakyReport: a degraded study still produces the full
// report, now with the harvest and coverage-sensitivity sections, and its
// key observations stay stable at the default seed.
func TestHarvestedStudyFlakyReport(t *testing.T) {
	h, err := NewHarvestedStudy(synth.Default2017(2021), faulty.ProfileFlaky, HarvestHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Harvest().EffectiveLinkage(); got < 0.95 {
		t.Errorf("flaky effective linkage %.4f < 0.95", got)
	}
	sens, err := h.CoverageSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if sens.AchievedCoverage >= sens.BaselineCoverage {
		t.Errorf("flaky coverage %.4f not below baseline %.4f",
			sens.AchievedCoverage, sens.BaselineCoverage)
	}
	if !sens.Stable {
		t.Errorf("key observations flipped under flaky harvest: %v", sens.Flips)
	}
	var buf bytes.Buffer
	if err := h.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Harvest — resilient ingestion", "Sensitivity — degraded coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

// TestHarvestedStudyRejectsUnknownProfile: profile names are validated.
func TestHarvestedStudyRejectsUnknownProfile(t *testing.T) {
	if _, err := NewHarvestedStudy(synth.Default2017(2021), "catastrophic", HarvestHooks{}); err == nil {
		t.Error("unknown profile accepted")
	}
}
