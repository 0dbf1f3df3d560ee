package snap

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/query"
)

// entityFrames encodes a frames payload by hand: one person entity table
// holding table, then one frame "f" of one row whose only column,
// "person", draws its dictionary from that table at positions. The row
// holds code 0.
func entityFrames(table []string, positions []uint64) []byte {
	e := &enc{}
	e.uvarint(1)
	e.str(query.EntityPerson)
	e.strDict(table)
	e.uvarint(1)
	e.str("f")
	e.uvarint(1) // rows
	e.uvarint(1) // columns
	e.str("person")
	e.u8(uint8(query.TStr))
	e.bool(false) // no validity bitmap
	e.uvarint(1)  // source: the first entity table
	e.uvarint(uint64(len(positions)))
	for _, p := range positions {
		e.uvarint(p)
	}
	e.codeCol([]int32{0})
	return e.bytesOut()
}

// TestEntityTableDecodes: a well-formed hand-built payload decodes, and
// the column's dictionary is the table's values at its positions, in
// position order. The corrupt cases below differ from it in one place.
func TestEntityTableDecodes(t *testing.T) {
	frames, err := decodeFrames(entityFrames([]string{"P1", "P2", "P3"}, []uint64{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	c := frames[0].Columns[0]
	if c.Entity != query.EntityPerson {
		t.Errorf("column entity = %q, want %q", c.Entity, query.EntityPerson)
	}
	if got := c.Dict.Values(); len(got) != 2 || got[0] != "P3" || got[1] != "P1" {
		t.Errorf("dictionary = %q, want [P3 P1]", got)
	}
	if code, ok := c.Dict.Lookup("P1"); !ok || code != 1 {
		t.Errorf("Lookup(P1) = %d, %v; want 1, true", code, ok)
	}
}

// TestEntityTableCorruptRejected: an entity table out of order or with a
// repeat, and a dictionary position past the table or repeated, are each
// a typed ErrCorrupt naming what failed.
func TestEntityTableCorruptRejected(t *testing.T) {
	cases := []struct {
		name      string
		table     []string
		positions []uint64
		want      string
	}{
		{"unsorted table", []string{"P2", "P1", "P3"}, []uint64{0}, "not strictly ascending"},
		{"repeated table value", []string{"P1", "P2", "P2"}, []uint64{0}, "not strictly ascending"},
		{"position out of range", []string{"P1", "P2", "P3"}, []uint64{0, 3}, "outside entity table"},
		{"repeated position", []string{"P1", "P2", "P3"}, []uint64{1, 0, 1}, "repeats entity table"},
	}
	for _, tc := range cases {
		_, err := decodeFrames(entityFrames(tc.table, tc.positions))
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

// TestOwnDictionaryRepeatRejected: a column's own dictionary (no entity
// table) that repeats a value is rejected, and a source naming no table
// is too.
func TestOwnDictionaryRepeatRejected(t *testing.T) {
	build := func(source uint64, vals []string) []byte {
		e := &enc{}
		e.uvarint(0) // no entity tables
		e.uvarint(1)
		e.str("f")
		e.uvarint(1)
		e.uvarint(1)
		e.str("gender")
		e.u8(uint8(query.TStr))
		e.bool(false)
		e.uvarint(source)
		e.strDict(vals)
		e.codeCol([]int32{0})
		return e.bytesOut()
	}
	if _, err := decodeFrames(build(dictOwn, []string{"male", "female"})); err != nil {
		t.Fatalf("well-formed own dictionary rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"repeated value", build(dictOwn, []string{"male", "female", "male"}), "repeats a value"},
		{"unknown source", build(1, []string{"male"}), "names no entity table"},
	} {
		_, err := decodeFrames(tc.payload)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrCorrupt saying %q", tc.name, err, tc.want)
		}
	}
}

// TestEntityTablesStoreEachIDOnce: in a written snapshot the person and
// paper tables hold the sorted union of their columns' values (slots.paper
// contributes the null paper ""), and every entity column's dictionary
// decodes to the written one, code for code.
func TestEntityTablesStoreEachIDOnce(t *testing.T) {
	d := tinyDataset()
	fs := query.NewFrameSet(d)
	payload := encodeFrames(fs.Data())
	tables, err := decodeEntityTables(newDec(SectionFrames, payload))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].name != query.EntityPerson || tables[1].name != query.EntityPaper {
		t.Fatalf("entity tables %+v, want person then paper", tables)
	}
	if got, want := len(tables[0].vals), len(d.Persons); got > want {
		t.Errorf("person table holds %d values for %d persons", got, want)
	}
	if got, want := len(tables[1].vals), len(d.Papers)+1; got != want {
		t.Errorf("paper table holds %d values, want %d papers plus the null paper", got, want)
	}
	if tables[1].vals[0] != "" {
		t.Errorf("paper table starts with %q, want the null paper \"\"", tables[1].vals[0])
	}
	decoded, err := decodeFrames(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs.Data() {
		for j, c := range f.Columns {
			if c.Type != query.TStr {
				continue
			}
			dc := decoded[i].Columns[j]
			if want, got := strings.Join(c.Dict.Values(), "\x00"), strings.Join(dc.Dict.Values(), "\x00"); want != got {
				t.Errorf("%s.%s: decoded dictionary differs from the written one", f.Name, c.Name)
			}
		}
	}
}
