package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/synth"
)

// TestExportCSVsMatchExhibitCSV: -csv writes every exhibit family through
// Study.ExhibitCSV, so each file holds the bytes whpcd serves for it.
func TestExportCSVsMatchExhibitCSV(t *testing.T) {
	study, err := repro.NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var log bytes.Buffer
	if err := exportCSVs(dir, study, &log); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Errorf("families skipped on the default corpus: %s", log.String())
	}
	for _, name := range repro.ExhibitFamilies() {
		got, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := study.ExhibitCSV(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.csv differs from Study.ExhibitCSV", name)
		}
	}
	golden, err := os.ReadFile("../../testdata/cite_flow.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "cite_flow.csv")); !bytes.Equal(got, golden) {
		t.Errorf("cite_flow.csv differs from testdata/cite_flow.golden.csv:\n%s", got)
	}
}

// TestExportCSVsOnePaperCorpus: on a one-paper corpus, where the sectors
// contingency table is degenerate and the citation graph has no edges,
// every family the engine answers is still written, and the one it cannot
// (cite_gap, no conference-year has a citation) is named and skipped
// instead of failing the export.
func TestExportCSVsOnePaperCorpus(t *testing.T) {
	cfg := synth.Default2017(2021)
	cfg.Confs = cfg.Confs[:1]
	// One paper of 14 authors, half of them women, so both genders hold
	// author bands and experience_bands is defined.
	c := &cfg.Confs[0]
	c.Papers, c.AuthorSlots, c.FAR = 1, 14, 0.5
	study, err := repro.NewStudyFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(study.Dataset().Papers); n != 1 {
		t.Fatalf("corpus has %d papers, want 1", n)
	}
	dir := t.TempDir()
	var log bytes.Buffer
	if err := exportCSVs(dir, study, &log); err != nil {
		t.Fatalf("export failed: %v", err)
	}
	for _, name := range repro.ExhibitFamilies() {
		_, err := os.Stat(filepath.Join(dir, name+".csv"))
		skipped := strings.Contains(log.String(), "skipping "+name+".csv")
		switch {
		case name == "cite_gap" && (!skipped || err == nil):
			t.Errorf("cite_gap: skipped %v, file error %v; want skipped with no file", skipped, err)
		case name != "cite_gap" && (skipped || err != nil):
			t.Errorf("%s: skipped %v, file error %v; want written", name, skipped, err)
		}
	}
}

// TestExportCSVsOnePaperDefaultCut: on the default corpus cut to one paper
// at its own calibration, no gendered author band holds both genders, so
// experience_bands is not applicable; it is named and skipped with
// cite_gap, and every other family is written.
func TestExportCSVsOnePaperDefaultCut(t *testing.T) {
	for _, slots := range []int{3, 14} {
		cfg := synth.Default2017(2021)
		cfg.Confs = cfg.Confs[:1]
		cfg.Confs[0].Papers, cfg.Confs[0].AuthorSlots = 1, slots
		study, err := repro.NewStudyFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		var log bytes.Buffer
		if err := exportCSVs(dir, study, &log); err != nil {
			t.Fatalf("%d authors: export failed: %v", slots, err)
		}
		for _, name := range repro.ExhibitFamilies() {
			_, err := os.Stat(filepath.Join(dir, name+".csv"))
			skipped := strings.Contains(log.String(), "skipping "+name+".csv")
			if want := name == "cite_gap" || name == "experience_bands"; skipped != want || (err == nil) == want {
				t.Errorf("%d authors: %s: skipped %v, file error %v; want skipped %v", slots, name, skipped, err, want)
			}
		}
	}
}
