package delta

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/snap"
	"repro/internal/synth"
)

// TestApplyReusedResearcherMustHoldBaseRole: a delta may reuse a base
// researcher only if they held a role in the base. One who first
// participates at the appended conference would need a people-frame row
// among the base's sorted rows, so a delta reusing a role-less base person
// is refused with frames and without, while reusing a role holder is
// accepted by both copies with the same bytes.
func TestApplyReusedResearcherMustHoldBaseRole(t *testing.T) {
	cfg := fuzzConfig()
	spec, err := synth.YearSpec(cfg, "SC", 2018)
	if err != nil {
		t.Fatal(err)
	}
	yd, baseCorpus, err := synth.GenerateYearDelta(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	info, mini, err := Pack(yd, baseCorpus.Data)
	if err != nil {
		t.Fatal(err)
	}
	// A researcher minted into the base without a role, as editions of
	// the synthesizer's larger corpora do.
	d := baseCorpus.Data
	roleless := &dataset.Person{ID: "r00000", Name: "Role Less"}
	if err := d.AddPerson(roleless); err != nil {
		t.Fatal(err)
	}
	info.BaseFingerprint = Fingerprint(d)
	base := encode(t, d, query.NewFrameSet(d))
	var from dataset.PersonID // a newcomer who authors a paper of the delta
	for _, id := range mini.Papers[0].Authors {
		if _, ok := d.Person(id); !ok {
			from = id
			break
		}
	}
	var holder dataset.PersonID // a base author the delta does not reuse
	for _, p := range d.Papers {
		if _, reused := mini.Persons[p.Authors[0]]; !reused && holder == "" {
			holder = p.Authors[0]
		}
	}
	if from == "" || holder == "" {
		t.Fatalf("fixture lacks a participating newcomer (%q) or an unused base author (%q)", from, holder)
	}

	for _, tc := range []struct {
		name   string
		to     dataset.PersonID
		accept bool
	}{
		{"role-less base person", roleless.ID, false},
		{"base role holder", holder, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pinfo, pmini := perturb(info, mini, info.Year, info.ConfID, from, tc.to, -1, "")
			rec, _ := d.Person(tc.to)
			pmini.Persons[tc.to] = rec
			withFrames, err := snap.Read(base, snap.Full, nil)
			if err != nil {
				t.Fatal(err)
			}
			frameless, err := snap.Read(base, snap.Full, nil)
			if err != nil {
				t.Fatal(err)
			}
			errA := Apply(withFrames.Corpus, withFrames.Frames, pinfo, pmini, nil)
			errB := Apply(frameless.Corpus, nil, pinfo, pmini, nil)
			if (errA == nil) != tc.accept || (errB == nil) != tc.accept {
				t.Fatalf("with frames: %v; without frames: %v; want accepted = %v", errA, errB, tc.accept)
			}
			gotA := encode(t, withFrames.Corpus, withFrames.Frames)
			gotB := encode(t, frameless.Corpus, query.NewFrameSet(frameless.Corpus))
			if !bytes.Equal(gotA, gotB) || tc.accept == bytes.Equal(gotA, base) {
				t.Errorf("accepted = %v, but the copies' bytes equal each other: %v, equal the base: %v",
					tc.accept, bytes.Equal(gotA, gotB), bytes.Equal(gotA, base))
			}
		})
	}
}
