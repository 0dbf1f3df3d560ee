package snap

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestCorpusInvariantsRefusedAtOpen: a checksum-valid snapshot whose
// corpus breaks an invariant dataset.Validate checks is refused by the
// decoder with a *FormatError of the section that holds it, naming the
// field, wrapping ErrCorrupt. Each case breaks one invariant of
// tinyDataset, which Validate also refuses; the unbroken corpus opens.
func TestCorpusInvariantsRefusedAtOpen(t *testing.T) {
	person := func(d *dataset.Dataset, id dataset.PersonID) *dataset.Person { return d.Persons[id] }
	conf := func(d *dataset.Dataset, i int) *dataset.Conference { return d.Conferences[i] }
	cases := []struct {
		name, section, field string
		breakIt              func(d *dataset.Dataset)
	}{
		{"empty person name", SectionPersons, "names", func(d *dataset.Dataset) { person(d, "p2").Name = "" }},
		{"h-index above publications", SectionPersons, "gs profile", func(d *dataset.Dataset) { person(d, "p1").GS.HIndex = 13 }},
		{"i10 above publications", SectionPersons, "gs profile", func(d *dataset.Dataset) { person(d, "p3").GS.I10Index = 3 }},
		{"h-index beyond citations", SectionPersons, "gs profile", func(d *dataset.Dataset) { person(d, "p1").GS.Citations = 24 }},
		{"negative GS publications", SectionPersons, "gs profile", func(d *dataset.Dataset) { person(d, "p3").GS.Publications = -1 }},
		{"S2 count below 1", SectionPersons, "s2_pubs", func(d *dataset.Dataset) { person(d, "p2").S2Pubs = 0 }},
		{"no conferences", SectionConferences, "conference count", func(d *dataset.Dataset) { d.Conferences = nil }},
		{"empty conference ID", SectionConferences, "conference id", func(d *dataset.Dataset) { conf(d, 1).ID = "" }},
		{"duplicate conference ID", SectionConferences, "conference id", func(d *dataset.Dataset) { conf(d, 1).ID = "SC17" }},
		{"zero acceptance rate", SectionConferences, "acceptance_rate", func(d *dataset.Dataset) { conf(d, 0).AcceptanceRate = 0 }},
		{"acceptance rate above 1", SectionConferences, "acceptance_rate", func(d *dataset.Dataset) { conf(d, 1).AcceptanceRate = 1.25 }},
		{"NaN acceptance rate", SectionConferences, "acceptance_rate", func(d *dataset.Dataset) { conf(d, 0).AcceptanceRate = math.NaN() }},
		{"year before 1980", SectionConferences, "year", func(d *dataset.Dataset) { conf(d, 0).Year = 1979 }},
		{"year after 2100", SectionConferences, "year", func(d *dataset.Dataset) { conf(d, 1).Year = 2101 }},
		{"person repeated in a roster", SectionConferences, "panelists roster", func(d *dataset.Dataset) {
			conf(d, 0).Panelists = []dataset.PersonID{"p1", "p2", "p1"}
		}},
		{"person repeated on a PC", SectionConferences, "pc_members roster", func(d *dataset.Dataset) {
			conf(d, 1).PCMembers = []dataset.PersonID{"p1", "p1"}
		}},
		{"empty paper ID", SectionPapers, "ids", func(d *dataset.Dataset) { d.Papers[1].ID = "" }},
		{"duplicate paper ID", SectionPapers, "ids", func(d *dataset.Dataset) { d.Papers[2].ID = "sc17-1" }},
		{"paper of an unknown conference", SectionPapers, "conference dictionary", func(d *dataset.Dataset) { d.Papers[2].Conf = "HPDC17" }},
		{"paper with no authors", SectionPapers, "author counts", func(d *dataset.Dataset) { d.Papers[1].Authors = nil }},
		{"negative citations", SectionPapers, "citations36", func(d *dataset.Dataset) { d.Papers[0].Citations36 = -1 }},
		{"author repeated on a paper", SectionPapers, "author refs", func(d *dataset.Dataset) {
			d.Papers[0].Authors = []dataset.PersonID{"p1", "p2", "p1"}
		}},
	}
	encode := func(d *dataset.Dataset) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, Snapshot{Corpus: d}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := Read(encode(tinyDataset()), Full, nil); err != nil {
		t.Fatalf("unbroken corpus refused: %v", err)
	}
	for _, tc := range cases {
		d := tinyDataset()
		tc.breakIt(d)
		if err := d.Validate(); !errors.Is(err, dataset.ErrInvalid) {
			t.Fatalf("%s: Validate = %v, want it refused", tc.name, err)
		}
		_, err := Read(encode(d), Full, nil)
		var fe *FormatError
		if !errors.As(err, &fe) || !errors.Is(err, ErrCorrupt) || fe.Section != tc.section {
			t.Errorf("%s: err = %v, want a %s-section ErrCorrupt", tc.name, err, tc.section)
			continue
		}
		if !strings.Contains(fe.Msg, tc.field) {
			t.Errorf("%s: error %q does not name field %q", tc.name, err, tc.field)
		}
	}
}
