package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mangleCorpusDir saves a valid tiny corpus and applies fn to the persons
// CSV (or whichever file fn chooses to rewrite).
func mangleCorpusDir(t *testing.T, fn func(dir string)) string {
	t.Helper()
	d := tinyCorpus(t)
	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	fn(dir)
	return dir
}

// rewriteLine replaces 1-based line n of the named file using edit.
func rewriteLine(t *testing.T, dir, file string, n int, edit func(string) string) {
	t.Helper()
	path := filepath.Join(dir, file)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if n-1 >= len(lines) {
		t.Fatalf("%s has only %d lines, want to edit line %d", file, len(lines), n)
	}
	lines[n-1] = edit(lines[n-1])
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDirCorruptRows: every corruption must be reported with the file
// name and the offending input line, not as a bare parse error.
func TestLoadDirCorruptRows(t *testing.T) {
	tests := []struct {
		name    string
		mangle  func(t *testing.T, dir string)
		file    string // must appear in the error
		snippet string // must appear in the error
	}{
		{
			name: "truncated person row",
			mangle: func(t *testing.T, dir string) {
				rewriteLine(t, dir, "persons.csv", 2, func(l string) string {
					cells := strings.Split(l, ",")
					return strings.Join(cells[:5], ",")
				})
			},
			file:    "persons.csv",
			snippet: "line 2: truncated row",
		},
		{
			name: "overlong person row",
			mangle: func(t *testing.T, dir string) {
				rewriteLine(t, dir, "persons.csv", 3, func(l string) string {
					return l + ",extra,cells"
				})
			},
			file:    "persons.csv",
			snippet: "line 3: overlong row",
		},
		{
			name: "corrupt integer field",
			mangle: func(t *testing.T, dir string) {
				rewriteLine(t, dir, "persons.csv", 2, func(l string) string {
					cells := strings.Split(l, ",")
					cells[11] = "not-a-number" // gs_pubs
					return strings.Join(cells, ",")
				})
			},
			file:    "persons.csv",
			snippet: "line 2: field gs_pubs",
		},
		{
			name: "corrupt bool in conferences",
			mangle: func(t *testing.T, dir string) {
				rewriteLine(t, dir, "conferences.csv", 2, func(l string) string {
					cells := strings.Split(l, ",")
					cells[7] = "maybe" // double_blind
					return strings.Join(cells, ",")
				})
			},
			file:    "conferences.csv",
			snippet: "line 2: field double_blind",
		},
		{
			name: "corrupt citation count in papers",
			mangle: func(t *testing.T, dir string) {
				rewriteLine(t, dir, "papers.csv", 3, func(l string) string {
					cells := strings.Split(l, ",")
					cells[len(cells)-1] = "3.5x"
					return strings.Join(cells, ",")
				})
			},
			file:    "papers.csv",
			snippet: "line 3: field citations36",
		},
		{
			name: "unbalanced quote",
			mangle: func(t *testing.T, dir string) {
				rewriteLine(t, dir, "papers.csv", 2, func(l string) string {
					return `"` + l
				})
			},
			file:    "papers.csv",
			snippet: "malformed CSV",
		},
		{
			name: "wrong header",
			mangle: func(t *testing.T, dir string) {
				rewriteLine(t, dir, "persons.csv", 1, func(l string) string {
					return strings.Replace(l, "id,", "identifier,", 1)
				})
			},
			file:    "persons.csv",
			snippet: "header column 0",
		},
		{
			name: "empty file",
			mangle: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "papers.csv"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			file:    "papers.csv",
			snippet: "empty CSV",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := mangleCorpusDir(t, func(dir string) { tc.mangle(t, dir) })
			_, err := LoadDir(dir)
			if err == nil {
				t.Fatal("LoadDir succeeded on corrupt corpus")
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.file) {
				t.Errorf("error does not name file %s: %q", tc.file, msg)
			}
			if !strings.Contains(msg, tc.snippet) {
				t.Errorf("error does not identify the corruption (%q): %q", tc.snippet, msg)
			}
		})
	}
}

// TestLoadDirStillRoundTrips: the hardened reader must keep accepting
// valid corpora unchanged.
func TestLoadDirStillRoundTrips(t *testing.T) {
	d := tinyCorpus(t)
	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Persons) != len(d.Persons) || len(got.Papers) != len(d.Papers) {
		t.Fatalf("round trip lost entities: %d/%d persons, %d/%d papers",
			len(got.Persons), len(d.Persons), len(got.Papers), len(d.Papers))
	}
}

// TestLoadDirRefusesAcceptanceRateOutsideUnitInterval: an acceptance rate
// that parses as a float but is not in (0, 1] — NaN included, which
// strconv.ParseFloat accepts — fails the load with ErrInvalid.
func TestLoadDirRefusesAcceptanceRateOutsideUnitInterval(t *testing.T) {
	for _, rate := range []string{"NaN", "0", "1.5"} {
		dir := mangleCorpusDir(t, func(dir string) {
			rewriteLine(t, dir, "conferences.csv", 2, func(l string) string {
				cells := strings.Split(l, ",")
				cells[6] = rate // acceptance_rate
				return strings.Join(cells, ",")
			})
		})
		if _, err := LoadDir(dir); !errors.Is(err, ErrInvalid) {
			t.Errorf("acceptance_rate %s: LoadDir error = %v, want ErrInvalid", rate, err)
		}
	}
}
