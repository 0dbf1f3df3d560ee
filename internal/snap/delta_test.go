package snap

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/affil"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/query"
	"repro/internal/scholar"
)

// tinyDeltaMini builds the smallest self-contained mini-corpus a delta
// can carry: one appended edition, its paper, and every participant's full
// record (p1 reuses tinyDataset's record byte-for-byte; p5 is new).
func tinyDeltaMini() (DeltaInfo, *dataset.Dataset) {
	d := dataset.New()
	persons := []*dataset.Person{
		{
			ID: "p1", Name: "Ada One", Forename: "Ada",
			TrueGender: gender.Female, Gender: gender.Female, AssignMethod: gender.MethodManual,
			Email: "ada@uni.edu", Affiliation: "Uni", CountryCode: "US", Sector: affil.EDU,
			HasGSProfile: true, GS: scholar.Profile{Publications: 12, HIndex: 5, I10Index: 3, Citations: 220},
			HasS2: true, S2Pubs: 14,
		},
		{
			ID: "p5", Name: "Eve Five", Forename: "Eve",
			TrueGender: gender.Female, Gender: gender.Female, AssignMethod: gender.MethodAutomated,
			Email: "eve@lab.org", Affiliation: "Lab", CountryCode: "FR", Sector: affil.GOV,
			HasS2: true, S2Pubs: 6,
		},
	}
	for _, p := range persons {
		if err := d.AddPerson(p); err != nil {
			panic(err)
		}
	}
	c := &dataset.Conference{
		ID: "SC18", Name: "SC", Year: 2018,
		Date:        time.Date(2018, 11, 12, 0, 0, 0, 0, time.UTC),
		CountryCode: "US", Submitted: 288, AcceptanceRate: 0.19, Subfield: "HPC",
		DoubleBlind: true, WomenAttendance: 0.15,
		PCChairs:      []dataset.PersonID{"p1"},
		PCMembers:     []dataset.PersonID{"p5"},
		Keynotes:      []dataset.PersonID{"p1"},
		Panelists:     []dataset.PersonID{"p5"},
		SessionChairs: []dataset.PersonID{"p1"},
	}
	if err := d.AddConference(c); err != nil {
		panic(err)
	}
	if err := d.AddPaper(&dataset.Paper{
		ID: "sc18-1", Conf: "SC18", Title: "Newer Things",
		Authors: []dataset.PersonID{"p5", "p1"}, HPCTopic: true, Citations36: 11,
	}); err != nil {
		panic(err)
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return DeltaInfo{Year: 2018, ConfID: "SC18", BaseFingerprint: 0xfeedface}, d
}

// tinyDeltaSnapshot serializes the tiny delta.
func tinyDeltaSnapshot(t testing.TB) []byte {
	t.Helper()
	info, mini := tinyDeltaMini()
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{Corpus: mini, Delta: &info}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestDeltaRoundTrip(t *testing.T) {
	info, mini := tinyDeltaMini()
	path := filepath.Join(t.TempDir(), DeltaFileName("tiny", 7, 2018))
	if err := WriteFile(path, Snapshot{Corpus: mini, Delta: &info}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s, err := Open(path, Delta, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Delta == nil || *s.Delta != info {
		t.Errorf("Delta info = %+v, want %+v", s.Delta, info)
	}
	if s.Frames != nil {
		t.Error("delta snapshot decoded frames")
	}
	d := s.Corpus
	if len(d.Conferences) != 1 || d.Conferences[0].ID != "SC18" {
		t.Errorf("mini-corpus carries %d conferences, want exactly SC18", len(d.Conferences))
	}
	if len(d.Persons) != 2 || len(d.Papers) != 1 {
		t.Errorf("mini-corpus has %d persons, %d papers, want 2 and 1", len(d.Persons), len(d.Papers))
	}
}

// TestDeltaWriteDeterministic: two writes of the same delta are
// byte-identical, like full snapshots.
func TestDeltaWriteDeterministic(t *testing.T) {
	if !bytes.Equal(tinyDeltaSnapshot(t), tinyDeltaSnapshot(t)) {
		t.Error("two writes of the same delta produced different bytes")
	}
}

// TestDeltaEveryByteFlipRejected extends the no-blind-spot checksum proof
// to delta files: corrupting any single byte — the delta-identity section
// and the meta flag byte included — must fail the delta read, never load
// silently wrong longitudinal data.
func TestDeltaEveryByteFlipRejected(t *testing.T) {
	data := tinyDeltaSnapshot(t)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := Read(mut, Delta, nil); err == nil {
			t.Fatalf("Read accepted a delta with byte %d flipped", i)
		}
	}
}

// TestDeltaTruncationsRejected: every proper prefix of a delta file is
// rejected — the torn-write case the serve quarantine path depends on.
func TestDeltaTruncationsRejected(t *testing.T) {
	data := tinyDeltaSnapshot(t)
	for n := 0; n < len(data); n++ {
		if _, err := Read(data[:n], Delta, nil); err == nil {
			t.Fatalf("Read accepted a %d-byte prefix of a %d-byte delta", n, len(data))
		}
	}
}

// TestDeltaKindsMutuallyRejected: the flag bit keeps the two kinds
// unreadable as each other. A delta opened as Full is corrupt at the
// delta section; a full snapshot opened as Delta is missing it. Both
// errors carry the path.
func TestDeltaKindsMutuallyRejected(t *testing.T) {
	dir := t.TempDir()
	info, mini := tinyDeltaMini()
	written := map[Kind]string{
		Full:  filepath.Join(dir, "tiny.whpcsnap"),
		Delta: filepath.Join(dir, "tiny.delta.whpcsnap"),
	}
	if err := WriteFile(written[Full], Snapshot{Corpus: tinyDataset()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(written[Delta], Snapshot{Corpus: mini, Delta: &info}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		written, want Kind
		cause         error // nil: the open succeeds
	}{
		{"full as Full", Full, Full, nil},
		{"full as Delta", Full, Delta, ErrNoSection},
		{"delta as Full", Delta, Full, ErrCorrupt},
		{"delta as Delta", Delta, Delta, nil},
	} {
		path := written[tc.written]
		s, err := Open(path, tc.want, nil)
		if tc.cause == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if (s.Delta != nil) != (tc.written == Delta) {
				t.Errorf("%s: decoded delta identity %v", tc.name, s.Delta)
			}
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != SectionDelta || !errors.Is(err, tc.cause) {
			t.Errorf("%s: err = %v, want a *FormatError in section %q wrapping %v", tc.name, err, SectionDelta, tc.cause)
		}
		if err != nil && !containsPath(err, path) {
			t.Errorf("%s: err %q does not carry the path", tc.name, err)
		}
	}
}

// TestDeltaWriterRejectsFrames: Write refuses a delta snapshot carrying
// frames — the point of a delta is that the base study's frames are
// patched in place, not replaced — and a delta without a conference ID.
func TestDeltaWriterRejectsFrames(t *testing.T) {
	info, mini := tinyDeltaMini()
	for _, tc := range []struct {
		name string
		s    Snapshot
	}{
		{"delta with frames", Snapshot{Corpus: mini, Delta: &info, Frames: query.NewFrameSet(mini)}},
		{"empty conference ID", Snapshot{Corpus: mini, Delta: &DeltaInfo{Year: info.Year}}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, tc.s); err == nil {
			t.Errorf("%s: Write succeeded", tc.name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: rejected Write emitted %d bytes", tc.name, buf.Len())
		}
	}
}
