package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCSVRoundTripThroughDir(t *testing.T) {
	d := tinyCorpus(t)
	d.Persons["alice"].HasGSProfile = true
	d.Persons["alice"].GS.Publications = 40
	d.Persons["alice"].GS.HIndex = 12
	d.Persons["alice"].GS.I10Index = 15
	d.Persons["alice"].GS.Citations = 800
	d.Persons["alice"].HasS2 = true
	d.Persons["alice"].S2Pubs = 55
	d.Persons["alice"].Email = "alice@cs.reed.edu"
	d.Persons["alice"].Affiliation = "Reed College"

	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Persons) != len(d.Persons) {
		t.Fatalf("persons: %d vs %d", len(got.Persons), len(d.Persons))
	}
	for id, want := range d.Persons {
		gp, ok := got.Persons[id]
		if !ok {
			t.Fatalf("person %q lost", id)
		}
		if !reflect.DeepEqual(*gp, *want) {
			t.Errorf("person %q round-trip mismatch:\n got %+v\nwant %+v", id, *gp, *want)
		}
	}
	if len(got.Conferences) != 2 || len(got.Papers) != 3 {
		t.Fatalf("confs/papers: %d/%d", len(got.Conferences), len(got.Papers))
	}
	for i, want := range d.Conferences {
		g := got.Conferences[i]
		if g.ID != want.ID || g.Year != want.Year || !g.Date.Equal(want.Date) ||
			g.AcceptanceRate != want.AcceptanceRate || g.DoubleBlind != want.DoubleBlind ||
			g.DiversityChair != want.DiversityChair || g.Childcare != want.Childcare ||
			!reflect.DeepEqual(g.PCMembers, want.PCMembers) ||
			!reflect.DeepEqual(g.SessionChairs, want.SessionChairs) {
			t.Errorf("conference %s round-trip mismatch:\n got %+v\nwant %+v", want.ID, g, want)
		}
	}
	for i, want := range d.Papers {
		g := got.Papers[i]
		if g.ID != want.ID || g.Conf != want.Conf || g.Title != want.Title ||
			g.HPCTopic != want.HPCTopic || g.Citations36 != want.Citations36 ||
			!reflect.DeepEqual(g.Authors, want.Authors) {
			t.Errorf("paper %s round-trip mismatch:\n got %+v\nwant %+v", want.ID, g, want)
		}
	}
	// Derived queries survive the round trip.
	if got.CountGenders(got.AuthorSlots()) != d.CountGenders(d.AuthorSlots()) {
		t.Error("gender counts diverged after round trip")
	}
}

func TestLoadDirMissingFile(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir should fail to load")
	}
}

func TestPersonsCSVDeterministicOrder(t *testing.T) {
	d := tinyCorpus(t)
	var a, b bytes.Buffer
	if err := d.WritePersonsCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePersonsCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("persons CSV not deterministic")
	}
	// Sorted by ID: alice before bob before carol.
	lines := strings.Split(a.String(), "\n")
	if !strings.HasPrefix(lines[1], "alice,") || !strings.HasPrefix(lines[2], "bob,") {
		t.Errorf("rows not sorted: %q, %q", lines[1], lines[2])
	}
}

func TestReadPersonsCSVRejectsBadHeader(t *testing.T) {
	d := New()
	err := d.readPersonsCSV(strings.NewReader("id,nope\nx,y\n"))
	if err == nil {
		t.Error("bad header accepted")
	}
}

func TestReadPersonsCSVRejectsBadFields(t *testing.T) {
	// has_gs not parseable as bool.
	row := `id,name,forename,true_gender,gender,assign_method,email,affiliation,country,sector,has_gs,gs_pubs,gs_hindex,gs_i10,gs_citations,has_s2,s2_pubs
p1,P One,P,male,male,manual,,,US,EDU,maybe,0,0,0,0,false,0
`
	d := New()
	if err := d.readPersonsCSV(strings.NewReader(row)); err == nil {
		t.Error("bad boolean accepted")
	}
	// Non-integer publication count.
	row2 := strings.Replace(row, "maybe,0,", "true,lots,", 1)
	d2 := New()
	if err := d2.readPersonsCSV(strings.NewReader(row2)); err == nil {
		t.Error("bad integer accepted")
	}
}

func TestReadConferencesCSVRejectsBadDate(t *testing.T) {
	row := `id,name,year,date,country,submitted,acceptance_rate,double_blind,diversity_chair,code_of_conduct,childcare,women_attendance,subfield,pc_chairs,pc_members,keynotes,panelists,session_chairs
SC17,SC,2017,13-11-2017,US,327,0.187,true,true,true,true,0.14,HPC,,,,,
`
	d := New()
	if err := d.readConferencesCSV(strings.NewReader(row)); err == nil {
		t.Error("bad date accepted")
	}
}

func TestReadPapersCSVRejectsUnknownConf(t *testing.T) {
	row := `id,conf,title,authors,hpc_topic,citations36
p1,NOPE,Title,alice,true,5
`
	d := New()
	if err := d.readPapersCSV(strings.NewReader(row)); err == nil {
		t.Error("paper referencing unknown conference accepted")
	}
}

func TestSplitJoinIDs(t *testing.T) {
	ids := []PersonID{"a", "b", "c"}
	if got := splitIDs(joinIDs(ids)); !reflect.DeepEqual(got, ids) {
		t.Errorf("round trip = %v", got)
	}
	if splitIDs("") != nil {
		t.Error("empty string should split to nil")
	}
	if joinIDs(nil) != "" {
		t.Error("nil should join to empty string")
	}
}
