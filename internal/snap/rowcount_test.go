package snap

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// oneColumnFrames encodes a frames payload by hand: one person entity
// table, then one frame "f" of rows rows whose only column "c" has type
// typ and is written, from its validity flag on, by write.
func oneColumnFrames(rows int, typ query.ColType, write func(*enc)) []byte {
	e := &enc{}
	e.uvarint(1)
	e.str(query.EntityPerson)
	e.strDict([]string{"P1"})
	e.uvarint(1)
	e.str("f")
	e.uvarint(uint64(rows))
	e.uvarint(1)
	e.str("c")
	e.u8(uint8(typ))
	write(e)
	return e.bytesOut()
}

// wantRowCountRefusal fails t unless err is an ErrCorrupt of section
// whose message says want.
func wantRowCountRefusal(t *testing.T, name, section string, err error, want string) {
	t.Helper()
	var fe *FormatError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &fe) || fe.Section != section {
		t.Errorf("%s: err = %v, want a %s-section ErrCorrupt", name, err, section)
		return
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q does not say %q", name, err, want)
	}
}

// TestColumnRowCountRefused: a frames column, of each reader's kind,
// whose declared count is not its frame's is a frames-section ErrCorrupt
// naming the frame, the column and the field; written for the frame's
// rows, the same column decodes. The frame has 65 rows and the refused
// columns are written for 64, so bitmaps declare one word too few.
func TestColumnRowCountRefused(t *testing.T) {
	const rows = 65
	cases := []struct {
		name  string
		typ   query.ColType
		field string
		write func(e *enc, n int)
	}{
		{"int", query.TInt, "ints", func(e *enc, n int) {
			e.bool(false)
			e.intCol(make([]int64, n))
		}},
		{"float", query.TFloat, "floats", func(e *enc, n int) {
			e.bool(false)
			e.floatCol(make([]float64, n))
		}},
		{"bool", query.TBool, "bitmap", func(e *enc, n int) {
			e.bool(false)
			e.words(query.NewBitmap(n))
		}},
		{"validity", query.TInt, "validity bitmap", func(e *enc, n int) {
			e.bool(true)
			e.words(query.NewBitmap(n))
			e.intCol(make([]int64, n))
		}},
		{"own-dictionary string", query.TStr, "codes", func(e *enc, n int) {
			e.bool(false)
			e.uvarint(dictOwn)
			e.strDict([]string{"a"})
			e.codeCol(make([]int32, n))
		}},
		{"entity string", query.TStr, "codes", func(e *enc, n int) {
			e.bool(false)
			e.uvarint(1) // the person table
			e.uvarint(1)
			e.uvarint(0)
			e.codeCol(make([]int32, n))
		}},
	}
	for _, tc := range cases {
		if _, err := decodeFrames(oneColumnFrames(rows, tc.typ, func(e *enc) { tc.write(e, rows) })); err != nil {
			t.Errorf("%s: column of the frame's rows refused: %v", tc.name, err)
		}
		_, err := decodeFrames(oneColumnFrames(rows, tc.typ, func(e *enc) { tc.write(e, rows-1) }))
		wantRowCountRefusal(t, tc.name, SectionFrames, err, `frame "f" column "c" `+tc.field+": declares")
	}
}

// TestCorpusRowCountRefused: a persons column whose declared count is not
// the section's person count, and paper author refs that are not one per
// author slot, are ErrCorrupt of their sections naming the field.
func TestCorpusRowCountRefused(t *testing.T) {
	e := &enc{}
	e.uvarint(2)
	e.strCol([]string{"p1", "p2"})
	e.strCol([]string{"Ada One"})
	err := newCorpusDecoder().persons(e.bytesOut(), 2)
	wantRowCountRefusal(t, "persons names", SectionPersons, err, "names: declares 1, want 2")

	e = &enc{}
	e.uvarint(2)
	e.strCol([]string{"p1", "p2"})
	e.strCol([]string{"Ada One", "Bob Two"})
	e.strCol([]string{"Ada", "Bob"})
	e.intCol([]int64{1})
	err = newCorpusDecoder().persons(e.bytesOut(), 2)
	wantRowCountRefusal(t, "persons true_gender", SectionPersons, err, "true_gender: declares 1, want 2")

	papers := func(refs []int32) []byte {
		e := &enc{}
		e.uvarint(1)
		e.strCol([]string{"sc17-1"})
		e.strCol([]string{"On Things"})
		e.strDict([]string{"SC17"})
		e.codeCol([]int32{0})
		e.intCol([]int64{40})
		e.words(query.NewBitmap(1))
		e.intCol([]int64{2}) // two authors
		e.codeCol(refs)
		return e.bytesOut()
	}
	withConf := func() *corpusDecoder {
		d := dataset.New()
		for _, id := range []dataset.PersonID{"p1", "p2"} {
			if err := d.AddPerson(&dataset.Person{ID: id, Name: string(id)}); err != nil {
				t.Fatal(err)
			}
		}
		c := newCorpusDecoder()
		if err := c.persons(encodePersons(d, sortedPersonIDs(d)), 2); err != nil {
			t.Fatal(err)
		}
		if err := c.d.AddConference(&dataset.Conference{ID: "SC17"}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := withConf().papers(papers([]int32{0, 1}), 1); err != nil {
		t.Errorf("author refs one per author slot refused: %v", err)
	}
	wantRowCountRefusal(t, "paper author refs", SectionPapers,
		withConf().papers(papers([]int32{0}), 1), "author refs: declares 1, want 2")
}
