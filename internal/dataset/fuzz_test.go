package dataset

import (
	"strings"
	"testing"
)

// FuzzReadPersonsCSV: arbitrary byte streams must never panic the loader —
// they either parse into persons or return an error.
func FuzzReadPersonsCSV(f *testing.F) {
	f.Add("id,name,forename,true_gender,gender,assign_method,email,affiliation,country,sector,has_gs,gs_pubs,gs_hindex,gs_i10,gs_citations,has_s2,s2_pubs\n" +
		"p1,P One,P,male,male,manual,a@b.edu,Uni,US,EDU,true,10,3,2,60,true,12\n")
	f.Add("")
	f.Add("id,nope\nx,y\n")
	f.Add("\x00\xff\xfe")
	f.Fuzz(func(t *testing.T, data string) {
		d := New()
		_ = d.readPersonsCSV(strings.NewReader(data)) // must not panic
	})
}

// FuzzReadConferencesCSV mirrors the persons fuzzer for the conference
// table (it has the most typed columns).
func FuzzReadConferencesCSV(f *testing.F) {
	f.Add("id,name,year,date,country,submitted,acceptance_rate,double_blind,diversity_chair,code_of_conduct,childcare,women_attendance,subfield,pc_chairs,pc_members,keynotes,panelists,session_chairs\n" +
		"SC17,SC,2017,2017-11-13,US,327,0.187,true,true,true,true,0.14,HPC,,,,,\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, data string) {
		d := New()
		_ = d.readConferencesCSV(strings.NewReader(data))
	})
}

// FuzzReadPapersCSV: the paper table reader checks each row against the
// conferences already registered, so the corpus it fuzzes holds one.
// Arbitrary bytes either parse into papers of that conference or return
// an error; they never panic.
func FuzzReadPapersCSV(f *testing.F) {
	f.Add("id,conf,title,authors,hpc_topic,citations36\n" +
		"sc17-1,SC17,On Things,p1;p2,true,40\n")
	f.Add("\x00\xff\xfe garbage")
	f.Fuzz(func(t *testing.T, data string) {
		d := New()
		if err := d.AddConference(&Conference{ID: "SC17", Name: "SC", Year: 2017}); err != nil {
			t.Fatal(err)
		}
		if err := d.readPapersCSV(strings.NewReader(data)); err != nil {
			return
		}
		for _, p := range d.Papers {
			if p.Conf != "SC17" {
				t.Fatalf("accepted paper %q of unregistered conference %q", p.ID, p.Conf)
			}
		}
	})
}
