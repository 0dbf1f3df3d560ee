package report

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func TestExportCSVs(t *testing.T) {
	dir := t.TempDir()
	if err := ExportCSVs(dir, corpus.Data, "SC17"); err != nil {
		t.Fatal(err)
	}
	wantFiles := []string{
		"far_per_conference.csv", "role_representation.csv", "countries.csv",
		"regions.csv", "sectors.csv", "experience_bands.csv",
		"citations.csv", "trend.csv",
	}
	for _, f := range wantFiles {
		path := filepath.Join(dir, f)
		fh, err := os.Open(path)
		if err != nil {
			t.Errorf("missing export %s: %v", f, err)
			continue
		}
		rows, err := csv.NewReader(fh).ReadAll()
		fh.Close()
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(rows) < 2 {
			t.Errorf("%s has no data rows", f)
		}
		// Every row has the header arity.
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				t.Errorf("%s row %d: %d cells vs header %d", f, i, len(row), len(rows[0]))
			}
		}
	}
}

// TestExportCSVsFARConsistency: far_per_conference has one row per
// conference series, in first-appearance order, under a unique label, and
// its ALL row is the sum of the series rows — on the nine-venue default
// corpus and on the flagship series, whose ten editions share two names.
func TestExportCSVsFARConsistency(t *testing.T) {
	flagship, err := synth.Generate(synth.FlagshipSeries(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		d      *dataset.Dataset
		series []string
	}{
		{"default", corpus.Data, nil},
		{"flagship", flagship.Data, []string{"SC", "ISC"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := ExportCSVs(dir, tc.d, ""); err != nil {
				t.Fatal(err)
			}
			fh, err := os.Open(filepath.Join(dir, "far_per_conference.csv"))
			if err != nil {
				t.Fatal(err)
			}
			defer fh.Close()
			rows, err := csv.NewReader(fh).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			var labels []string
			for _, c := range tc.d.Conferences {
				if !slices.Contains(labels, c.Name) {
					labels = append(labels, c.Name)
				}
			}
			if tc.series != nil && !slices.Equal(labels, tc.series) {
				t.Fatalf("corpus series %v, want %v", labels, tc.series)
			}
			// Header, one row per series, the ALL row.
			if len(rows) != len(labels)+2 {
				t.Fatalf("%d rows, want %d", len(rows), len(labels)+2)
			}
			seen := make(map[string]bool)
			var sum, all [3]int
			for i, row := range rows[1:] {
				var cells [3]int
				for j, col := range []int{1, 2, 4} {
					if cells[j], err = strconv.Atoi(row[col]); err != nil {
						t.Fatal(err)
					}
				}
				if row[0] == "ALL" {
					all = cells
					continue
				}
				if seen[row[0]] {
					t.Errorf("label %q repeats", row[0])
				}
				seen[row[0]] = true
				if row[0] != labels[i] {
					t.Errorf("row %d is %q, want series %q", i+1, row[0], labels[i])
				}
				for j := range cells {
					sum[j] += cells[j]
				}
			}
			if sum != all {
				t.Errorf("per-series sums (women/known/unknown %v) != ALL row %v", sum, all)
			}
		})
	}
}

func TestExportCSVsCitationsCoverAllPapers(t *testing.T) {
	dir := t.TempDir()
	if err := ExportCSVs(dir, corpus.Data, "SC17"); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(filepath.Join(dir, "citations.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	rows, err := csv.NewReader(fh).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)-1 != len(corpus.Data.Papers) {
		t.Errorf("%d citation rows for %d papers", len(rows)-1, len(corpus.Data.Papers))
	}
}
