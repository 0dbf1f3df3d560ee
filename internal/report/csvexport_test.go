package report

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// exportRows renders the named family of d through CSVExport.CSV and
// parses the bytes back into rows.
func exportRows(t *testing.T, d *dataset.Dataset, name string) [][]string {
	t.Helper()
	e, ok := CSVExportByName(d, name)
	if !ok {
		t.Fatalf("no export family %q", name)
	}
	b, err := e.CSV()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rows
}

func TestExportCSVs(t *testing.T) {
	for _, name := range []string{
		"far_per_conference", "role_representation", "countries",
		"regions", "sectors", "experience_bands",
		"citations", "trend",
	} {
		rows := exportRows(t, corpus.Data, name)
		if len(rows) < 2 {
			t.Errorf("%s has no data rows", name)
		}
		// Every row has the header arity.
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				t.Errorf("%s row %d: %d cells vs header %d", name, i, len(row), len(rows[0]))
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
			rows := exportRows(t, tc.d, "far_per_conference")
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
	rows := exportRows(t, corpus.Data, "citations")
	if len(rows)-1 != len(corpus.Data.Papers) {
		t.Errorf("%d citation rows for %d papers", len(rows)-1, len(corpus.Data.Papers))
	}
}
