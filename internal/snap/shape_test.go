package snap

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// withFramesSection returns a checksum-valid full snapshot of d whose
// frames section is encoded from frames, shaped like a frame set or not.
func withFramesSection(t testing.TB, d *dataset.Dataset, frames []query.FrameData) []byte {
	t.Helper()
	ids := sortedPersonIDs(d)
	personIdx := make(map[string]int, len(ids))
	for i, id := range ids {
		personIdx[id] = i
	}
	var buf bytes.Buffer
	err := emit(&buf, flagHasFrames, [3]int{len(d.Persons), len(d.Conferences), len(d.Papers)}, []wsection{
		{SectionPersons, encodePersons(d, ids)},
		{SectionConferences, encodeConferences(d, personIdx)},
		{SectionPapers, encodePapers(d, personIdx)},
		{SectionFrames, encodeFrames(frames)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodedFrames returns d's frames as the frames decoder returns them:
// a copy no other test shares, for a case to reshape.
func decodedFrames(t testing.TB, d *dataset.Dataset) []query.FrameData {
	t.Helper()
	frames, err := decodeFrames(encodeFrames(query.NewFrameSet(d).Data()))
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// frameIndex returns the index of the named frame in frames.
func frameIndex(frames []query.FrameData, name string) int {
	return slices.IndexFunc(frames, func(f query.FrameData) bool { return f.Name == name })
}

// column returns the named column of the named frame.
func column(frames []query.FrameData, frame, name string) *query.Column {
	f := frames[frameIndex(frames, frame)]
	return f.Columns[slices.IndexFunc(f.Columns, func(c *query.Column) bool { return c.Name == name })]
}

// shapeCases are frame sets each column of which decodes whole, but whose
// shape is not the one the engine and the delta appender assume. Each
// reshapes a fresh decoded copy of d's frames; want is what the refusal
// names.
var shapeCases = []struct {
	name    string
	reshape func([]query.FrameData) []query.FrameData
	want    string
}{
	{"slots dropped and a citations column cut", func(fs []query.FrameData) []query.FrameData {
		c := frameIndex(fs, query.FrameCitations)
		fs[c].Columns = fs[c].Columns[:len(fs[c].Columns)-1]
		return slices.Delete(fs, 0, 1)
	}, `want ["slots"`},
	{"missing column", func(fs []query.FrameData) []query.FrameData {
		fs[0].Columns = fs[0].Columns[:len(fs[0].Columns)-1]
		return fs
	}, `frame "slots" has 17 columns, want 18`},
	{"missing frame", func(fs []query.FrameData) []query.FrameData {
		return fs[:len(fs)-1]
	}, `frames ["slots" "people" "members" "papers" "cohorts"], want`},
	{"extra frame", func(fs []query.FrameData) []query.FrameData {
		extra := fs[0]
		extra.Name = "extra"
		return append(fs, extra)
	}, `"citations" "extra"], want`},
	{"reordered frames", func(fs []query.FrameData) []query.FrameData {
		fs[0], fs[1] = fs[1], fs[0]
		return fs
	}, `frames ["people" "slots"`},
	{"renamed column", func(fs []query.FrameData) []query.FrameData {
		column(fs, query.FrameCitations, "src_region").Name = "src_regio"
		return fs
	}, `frame "citations" column 15 is src_regio:str, want src_region:str`},
	{"retyped column", func(fs []query.FrameData) []query.FrameData {
		c := column(fs, query.FramePapers, "year")
		c.Type, c.Floats = query.TFloat, make([]float64, len(c.Ints))
		c.Ints = nil
		return fs
	}, `frame "papers" column 3 is year:float, want year:int`},
	{"entity column with its own dictionary", func(fs []query.FrameData) []query.FrameData {
		column(fs, query.FrameSlots, "person").Entity = ""
		return fs
	}, `column 4 is person:str, want person:str@person`},
	{"column drawn from an entity table it does not hold", func(fs []query.FrameData) []query.FrameData {
		column(fs, query.FrameSlots, "gender").Entity = query.EntityPerson
		return fs
	}, `column 5 is gender:str@person, want gender:str`},
	{"conference dictionary out of corpus order", func(fs []query.FrameData) []query.FrameData {
		c := column(fs, query.FrameCohorts, "conf")
		vals := c.Dict.Values()
		slices.Reverse(vals)
		c.Dict = query.DictOf(vals)
		return fs
	}, `frame "cohorts" column "conf" does not hold the corpus's conference IDs in corpus order`},
	{"conference dictionary with an extra conference", func(fs []query.FrameData) []query.FrameData {
		c := column(fs, query.FrameCitations, "dst_conf")
		c.Dict = query.DictOf(append(c.Dict.Values(), "SC18"))
		return fs
	}, `frame "citations" column "dst_conf" does not hold`},
	{"people codes skip a row", func(fs []query.FrameData) []query.FrameData {
		column(fs, query.FramePeople, "person").Codes[1]++
		return fs
	}, `people frame row 1 holds person code 2`},
	{"people dictionary holds a person without a row", func(fs []query.FrameData) []query.FrameData {
		c := column(fs, query.FramePeople, "person")
		c.Dict = query.DictOf(append(c.Dict.Values(), "p9"))
		return fs
	}, `people frame has 4 rows for 5 persons`},
}

// TestShapeMismatchRefusedAtOpen: a checksum-valid snapshot whose frames
// decode column by column but differ in shape from the frame schema or
// from the corpus — a missing, extra or reordered frame, a column with
// another name, type or dictionary source, a conference-ID dictionary out
// of corpus order, a people frame whose codes are not its rows — is
// refused by Read with a frames-section ErrCorrupt naming what differs.
func TestShapeMismatchRefusedAtOpen(t *testing.T) {
	d := tinyDataset()
	if _, err := Read(withFramesSection(t, d, decodedFrames(t, d)), Full, nil); err != nil {
		t.Fatalf("unreshaped frames refused: %v", err)
	}
	for _, tc := range shapeCases {
		_, err := Read(withFramesSection(t, d, tc.reshape(decodedFrames(t, d))), Full, nil)
		var fe *FormatError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &fe) || fe.Section != SectionFrames {
			t.Errorf("%s: err = %v, want a frames-section ErrCorrupt", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}
}
