package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/affil"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/query"
	"repro/internal/scholar"
)

// tinyDataset builds a small hand-made corpus exercising every encoded
// attribute: known and unknown genders, present and absent GS/S2 records,
// empty country codes, multiple conferences with full rosters, and papers
// with one and several authors. It is deliberately not *testing-typed so
// the fuzz seed corpus can reuse it.
func tinyDataset() *dataset.Dataset {
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
			ID: "p2", Name: "Bob Two", Forename: "Bob",
			TrueGender: gender.Male, Gender: gender.Male, AssignMethod: gender.MethodAutomated,
			Email: "", Affiliation: "Lab", CountryCode: "DE", Sector: affil.GOV,
			HasS2: true, S2Pubs: 3,
		},
		{
			ID: "p3", Name: "Cy Three", Forename: "Cy",
			TrueGender: gender.Female, Gender: gender.Unknown, AssignMethod: gender.MethodNone,
			Email: "cy@corp.com", Affiliation: "Corp", CountryCode: "", Sector: affil.COM,
			HasGSProfile: true, GS: scholar.Profile{Publications: 2, HIndex: 1, I10Index: 0, Citations: 9},
		},
		{
			ID: "p4", Name: "Di Four", Forename: "Di",
			TrueGender: gender.Female, Gender: gender.Female, AssignMethod: gender.MethodManual,
			Email: "di@uni.edu", Affiliation: "Uni", CountryCode: "US", Sector: affil.EDU,
		},
	}
	for _, p := range persons {
		if err := d.AddPerson(p); err != nil {
			panic(err)
		}
	}
	confs := []*dataset.Conference{
		{
			ID: "SC17", Name: "SC", Year: 2017,
			Date:        time.Date(2017, 11, 13, 0, 0, 0, 0, time.UTC),
			CountryCode: "US", Submitted: 327, AcceptanceRate: 0.187, Subfield: "HPC",
			DoubleBlind: true, DiversityChair: true, CodeOfConduct: true, Childcare: true,
			WomenAttendance: 0.14,
			PCChairs:        []dataset.PersonID{"p1"},
			PCMembers:       []dataset.PersonID{"p2", "p3"},
			Keynotes:        []dataset.PersonID{"p4"},
			Panelists:       []dataset.PersonID{"p1", "p2"},
			SessionChairs:   []dataset.PersonID{"p3"},
		},
		{
			ID: "ISC17", Name: "ISC", Year: 2017,
			Date:        time.Date(2017, 6, 18, 0, 0, 0, 0, time.UTC),
			CountryCode: "DE", Submitted: 120, AcceptanceRate: 0.25, Subfield: "HPC",
			DoubleBlind: true,
			PCMembers:   []dataset.PersonID{"p1"},
		},
	}
	for _, c := range confs {
		if err := d.AddConference(c); err != nil {
			panic(err)
		}
	}
	papers := []*dataset.Paper{
		{ID: "sc17-1", Conf: "SC17", Title: "On Things", Authors: []dataset.PersonID{"p1", "p2", "p4"}, HPCTopic: true, Citations36: 40},
		{ID: "sc17-2", Conf: "SC17", Title: "More Things", Authors: []dataset.PersonID{"p3"}, Citations36: 2},
		{ID: "isc17-1", Conf: "ISC17", Title: "Other Things", Authors: []dataset.PersonID{"p2", "p1"}, HPCTopic: true, Citations36: 7},
	}
	for _, p := range papers {
		if err := d.AddPaper(p); err != nil {
			panic(err)
		}
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// tinySnapshot serializes tinyDataset, optionally with frames.
func tinySnapshot(t testing.TB, withFrames bool) []byte {
	t.Helper()
	d := tinyDataset()
	var fs *query.FrameSet
	if withFrames {
		fs = query.NewFrameSet(d)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{Corpus: d, Frames: fs}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// datasetCSV renders a dataset through the CSV codecs, giving a canonical
// byte form for equality checks.
func datasetCSV(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WritePersonsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteConferencesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePapersCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRoundTripCorpus(t *testing.T) {
	s, err := Read(tinySnapshot(t, false), Full, nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if s.Frames != nil || s.Delta != nil {
		t.Errorf("corpus-only snapshot decoded extra sections: frames %v, delta %v",
			s.Frames != nil, s.Delta != nil)
	}
	got := s.Corpus
	if p, c, pa := len(got.Persons), len(got.Conferences), len(got.Papers); p != 4 || c != 2 || pa != 3 {
		t.Errorf("counts = (%d, %d, %d), want (4, 2, 3)", p, c, pa)
	}
	if want, have := datasetCSV(t, tinyDataset()), datasetCSV(t, got); want != have {
		t.Errorf("decoded corpus differs from original:\nwant:\n%s\ngot:\n%s", want, have)
	}
}

func TestRoundTripFrames(t *testing.T) {
	d := tinyDataset()
	fs := query.NewFrameSet(d)
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{Corpus: d, Frames: fs}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s, err := Read(buf.Bytes(), Full, nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if s.Frames == nil {
		t.Fatal("no frames decoded from a snapshot written with frames")
	}
	q := &query.Query{
		Frame:   query.FrameSlots,
		GroupBy: []query.Key{{Col: "conference"}, {Col: "role"}},
		Aggs:    []query.Agg{{Op: "count", As: "n"}},
		Format:  query.FormatCSV,
	}
	want := runQuery(t, fs, q)
	have := runQuery(t, s.Frames, q)
	if want != have {
		t.Errorf("query over decoded frames differs:\nwant:\n%s\ngot:\n%s", want, have)
	}
}

func runQuery(t *testing.T, fs *query.FrameSet, q *query.Query) string {
	t.Helper()
	res, err := query.Run(fs, q)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	body, _, err := res.Encode(q.Format)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return string(body)
}

func TestWriteDeterministic(t *testing.T) {
	a := tinySnapshot(t, true)
	b := tinySnapshot(t, true)
	if !bytes.Equal(a, b) {
		t.Error("two writes of the same corpus produced different bytes")
	}
}

func TestBadMagicRejected(t *testing.T) {
	data := tinySnapshot(t, false)
	data[0] ^= 0xff
	_, err := Read(data, Full, nil)
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// TestVersionSkewRejected: a future format version, version 1 (whose
// files may carry the citation-graph section version 2 dropped) and
// version 2 (whose frames section stores every entity column's values
// itself) must surface ErrVersion, not a checksum mismatch, even though
// the rewrite also breaks the file CRC.
func TestVersionSkewRejected(t *testing.T) {
	for _, v := range []uint16{0x7fff, 1, 2} {
		data := tinySnapshot(t, false)
		binary.LittleEndian.PutUint16(data[8:10], v)
		_, err := Read(data, Full, nil)
		if !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", v, err)
		}
		if err != nil && !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: error %q does not mention the version", v, err)
		}
	}
}

func TestTruncationsRejected(t *testing.T) {
	data := tinySnapshot(t, true)
	for n := 0; n < len(data); n++ {
		if _, err := Read(data[:n], Full, nil); err == nil {
			t.Fatalf("Read accepted a %d-byte prefix of a %d-byte snapshot", n, len(data))
		}
	}
}

// TestEveryByteFlipRejected proves the checksum chain has no blind spot:
// corrupting any single byte of the file must fail validation (and must
// not panic).
func TestEveryByteFlipRejected(t *testing.T) {
	data := tinySnapshot(t, true)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := Read(mut, Full, nil); err == nil {
			t.Fatalf("Read accepted a snapshot with byte %d flipped", i)
		}
	}
}

func TestChecksumErrorNamesSection(t *testing.T) {
	data := tinySnapshot(t, false)
	r, err := parse(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	var persons section
	for _, s := range r.sections {
		if s.name == SectionPersons {
			persons = s
		}
	}
	if persons.length == 0 {
		t.Fatal("no persons section in directory")
	}
	mut := append([]byte(nil), data...)
	mut[persons.offset+persons.length/2] ^= 0x01
	_, err = Read(mut, Full, nil)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("err %T is not a *FormatError", err)
	}
	if fe.Section != SectionPersons {
		t.Errorf("error attributed to section %q, want %q", fe.Section, SectionPersons)
	}
}

func TestFramesAbsent(t *testing.T) {
	s, err := Read(tinySnapshot(t, false), Full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != nil {
		t.Error("frames decoded from a snapshot written without them")
	}
}

// TestWriterMisuse: Write rejects a snapshot without a corpus, and a
// rejected snapshot writes no bytes at all.
func TestWriterMisuse(t *testing.T) {
	d := tinyDataset()
	for _, tc := range []struct {
		name string
		s    Snapshot
	}{
		{"empty", Snapshot{}},
		{"frames only", Snapshot{Frames: query.NewFrameSet(d)}},
		{"delta identity only", Snapshot{Delta: &DeltaInfo{Year: 2018, ConfID: "SC18"}}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, tc.s); err == nil {
			t.Errorf("%s: Write without a corpus succeeded", tc.name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: rejected Write emitted %d bytes", tc.name, buf.Len())
		}
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(t.TempDir()+"/nope.whpcsnap", Full, nil); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

// TestWriteFileAndOpen: WriteFile lands exactly one file — the temp
// sibling is renamed away — and Open decodes it.
func TestWriteFileAndOpen(t *testing.T) {
	d := tinyDataset()
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny"+FileExt)
	if err := WriteFile(path, Snapshot{Corpus: d, Frames: query.NewFrameSet(d)}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory after WriteFile holds %d entries (err %v), want just the snapshot", len(ents), err)
	}
	s, err := Open(path, Full, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Frames == nil {
		t.Error("Open returned nil frames for a snapshot written with frames")
	}
	if want, have := datasetCSV(t, d), datasetCSV(t, s.Corpus); want != have {
		t.Error("corpus loaded from file differs from original")
	}
}

func TestCorpusFileName(t *testing.T) {
	if got, want := CorpusFileName("default", 2021), "default-2021.whpcsnap"; got != want {
		t.Errorf("CorpusFileName = %q, want %q", got, want)
	}
}
