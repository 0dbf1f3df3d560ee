package snap

import (
	"fmt"
	"slices"

	"repro/internal/query"
)

// The frames codec serializes a pre-built query.FrameSet so warm boots
// skip the columnar flattening pass too. Each column is stored in its
// native representation — zigzag varints for ints, fixed 64-bit patterns
// for floats, bitmap words for booleans and validity, dictionary values
// in code order plus a code column for strings — so a deserialized
// FrameSet answers every query byte-identically to a freshly built one.
//
// The section opens with one value table per entity (query.Entities): the
// sorted union of the values of every column holding that entity's IDs
// (query.Column.Entity). Such a column stores its dictionary as positions
// into the table, in code order, so an ID shared by several columns is
// stored, and decoded, once. Every other string column stores its own
// dictionary values. A string column's dictionary is prefixed by its
// source: 0 for its own values, k for the k-th entity table.

// dictOwn is the dictionary source of a string column that stores its own
// values; source k > 0 names the k-th entity table.
const dictOwn = 0

func encodeFrames(frames []query.FrameData) []byte {
	e := &enc{}
	entities := query.Entities()
	tables := make([][]string, len(entities))
	for _, f := range frames {
		for _, c := range f.Columns {
			if k := slices.Index(entities, c.Entity); k >= 0 {
				tables[k] = append(tables[k], c.Dict.Values()...)
			}
		}
	}
	e.uvarint(uint64(len(entities)))
	for k, name := range entities {
		slices.Sort(tables[k])
		tables[k] = slices.Compact(tables[k])
		e.str(name)
		e.strDict(tables[k])
	}
	e.uvarint(uint64(len(frames)))
	for _, f := range frames {
		e.str(f.Name)
		e.uvarint(uint64(f.NumRows))
		e.uvarint(uint64(len(f.Columns)))
		for _, c := range f.Columns {
			e.str(c.Name)
			e.u8(uint8(c.Type))
			if c.Valid == nil {
				e.bool(false)
			} else {
				e.bool(true)
				e.words(canonicalBitmap(c.Valid, f.NumRows))
			}
			switch c.Type {
			case query.TInt:
				e.intCol(c.Ints)
			case query.TFloat:
				e.floatCol(c.Floats)
			case query.TBool:
				e.words(canonicalBitmap(c.Bools, f.NumRows))
			case query.TStr:
				vals := c.Dict.Values()
				if k := slices.Index(entities, c.Entity); k >= 0 {
					e.uvarint(uint64(k + 1))
					e.uvarint(uint64(len(vals)))
					for _, v := range vals {
						pos, _ := slices.BinarySearch(tables[k], v)
						e.uvarint(uint64(pos))
					}
				} else {
					e.uvarint(dictOwn)
					e.strDict(vals)
				}
				e.codeCol(c.Codes)
			}
		}
	}
	return e.bytesOut()
}

// canonicalBitmap returns b as exactly one word per 64 rows with any bits
// at or beyond row n cleared. The query package's one frame writer leaves
// no bit set past the row count, but the engine never reads rows >= n, so
// the codec does not rely on that: the serialized form gives every
// logical bitmap exactly one byte representation (which the decoder then
// enforces).
func canonicalBitmap(b []uint64, n int) []uint64 {
	out := query.NewBitmap(n)
	copy(out, b)
	if n%64 != 0 && len(out) > 0 {
		out[len(out)-1] &= (1 << uint(n%64)) - 1
	}
	return out
}

// entityTable is one decoded entity value table. seen is the decoder's
// scratch bitmap over it, clear between columns.
type entityTable struct {
	name string
	vals []string
	seen query.Bitmap
}

// decodeFrames reads the frames section, proving each column whole: its
// row count, dictionary codes in range, bitmaps sized to the rows,
// dictionaries repeat-free. query.FrameSetOf then proves the frames'
// shape against the corpus.
func decodeFrames(data []byte) ([]query.FrameData, error) {
	dc := newDec(SectionFrames, data)
	tables, err := decodeEntityTables(dc)
	if err != nil {
		return nil, err
	}
	nFrames, err := dc.length("frame", 1)
	if err != nil {
		return nil, err
	}
	frames := make([]query.FrameData, 0, nFrames)
	for fi := 0; fi < nFrames; fi++ {
		name, err := dc.str("frame name")
		if err != nil {
			return nil, err
		}
		rows64, err := dc.uvarint(fmt.Sprintf("frame %q row count", name))
		if err != nil {
			return nil, err
		}
		if rows64 > uint64(len(data))*64 {
			// Even a single one-bit-per-row column would need more bytes
			// than the whole payload holds.
			return nil, dc.err(fmt.Sprintf("frame %q declares %d rows, more than the payload could hold", name, rows64), ErrCorrupt)
		}
		n := int(rows64)
		nCols, err := dc.length(fmt.Sprintf("frame %q column", name), 1)
		if err != nil {
			return nil, err
		}
		cols := make([]*query.Column, 0, nCols)
		for ci := 0; ci < nCols; ci++ {
			c, err := decodeColumn(dc, tables, name, n)
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
		}
		frames = append(frames, query.FrameData{Name: name, NumRows: n, Columns: cols})
	}
	if err := dc.finished("frames"); err != nil {
		return nil, err
	}
	return frames, nil
}

// decodeEntityTables reads the entity value tables. A table must be
// strictly ascending, which proves it repeats no value without hashing
// one.
func decodeEntityTables(dc *dec) ([]entityTable, error) {
	n, err := dc.length("entity table", 1)
	if err != nil {
		return nil, err
	}
	tables := make([]entityTable, n)
	for k := range tables {
		t := &tables[k]
		if t.name, err = dc.str("entity table name"); err != nil {
			return nil, err
		}
		what := fmt.Sprintf("entity table %q", t.name)
		if t.vals, err = dc.strDict(what); err != nil {
			return nil, err
		}
		for i := 1; i < len(t.vals); i++ {
			if t.vals[i-1] >= t.vals[i] {
				return nil, dc.err(fmt.Sprintf("%s not strictly ascending at value %d", what, i), ErrCorrupt)
			}
		}
		t.seen = query.NewBitmap(len(t.vals))
	}
	return tables, nil
}

func decodeColumn(dc *dec, tables []entityTable, frame string, n int) (*query.Column, error) {
	colName, err := dc.str(fmt.Sprintf("frame %q column name", frame))
	if err != nil {
		return nil, err
	}
	what := fmt.Sprintf("frame %q column %q", frame, colName)
	typ, err := dc.u8(what + " type")
	if err != nil {
		return nil, err
	}
	c := &query.Column{Name: colName, Type: query.ColType(typ)}
	hasValid, err := dc.bool(what + " validity flag")
	if err != nil {
		return nil, err
	}
	if hasValid {
		w, err := dc.words(what + " validity bitmap")
		if err != nil {
			return nil, err
		}
		if err := checkBitmap(dc, what+" validity", w, n); err != nil {
			return nil, err
		}
		c.Valid = w
	}
	switch c.Type {
	case query.TInt:
		if c.Ints, err = dc.intCol(what); err != nil {
			return nil, err
		}
		if len(c.Ints) != n {
			return nil, dc.err(fmt.Sprintf("%s has %d rows, want %d", what, len(c.Ints), n), ErrCorrupt)
		}
	case query.TFloat:
		if c.Floats, err = dc.floatCol(what); err != nil {
			return nil, err
		}
		if len(c.Floats) != n {
			return nil, dc.err(fmt.Sprintf("%s has %d rows, want %d", what, len(c.Floats), n), ErrCorrupt)
		}
	case query.TBool:
		w, err := dc.words(what + " bitmap")
		if err != nil {
			return nil, err
		}
		if err := checkBitmap(dc, what, w, n); err != nil {
			return nil, err
		}
		c.Bools = w
	case query.TStr:
		vals, entity, err := decodeDict(dc, tables, what)
		if err != nil {
			return nil, err
		}
		c.Entity = entity
		c.Dict = query.DictOf(vals)
		if c.Codes, err = dc.codeCol(what+" codes", len(vals)); err != nil {
			return nil, err
		}
		if len(c.Codes) != n {
			return nil, dc.err(fmt.Sprintf("%s has %d rows, want %d", what, len(c.Codes), n), ErrCorrupt)
		}
	default:
		return nil, dc.err(fmt.Sprintf("%s has unknown column type %d", what, typ), ErrCorrupt)
	}
	return c, nil
}

// decodeDict reads a string column's dictionary values in code order,
// proving they hold no value twice, and the entity whose table they were
// drawn from ("" for the column's own values). Values drawn from an entity
// table are the table's strings, positions checked in range and unrepeated
// against the table's bitmap; a column's own values are checked on a
// sorted copy. Neither check hashes a string.
func decodeDict(dc *dec, tables []entityTable, what string) ([]string, string, error) {
	src, err := dc.uvarint(what + " dictionary source")
	if err != nil {
		return nil, "", err
	}
	if src == dictOwn {
		vals, err := dc.strDict(what + " dictionary")
		if err != nil {
			return nil, "", err
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1] == sorted[i] {
				return nil, "", dc.err(what+": dictionary repeats a value", ErrCorrupt)
			}
		}
		return vals, "", nil
	}
	if src > uint64(len(tables)) {
		return nil, "", dc.err(fmt.Sprintf("%s: dictionary source %d names no entity table (%d tables)", what, src, len(tables)), ErrCorrupt)
	}
	t := &tables[src-1]
	n, err := dc.length(what+" dictionary positions", 1)
	if err != nil {
		return nil, "", err
	}
	vals := make([]string, n)
	posWhat := what + " dictionary position"
	for i := range vals {
		pos, err := dc.uvarint(posWhat)
		if err != nil {
			return nil, "", err
		}
		if pos >= uint64(len(t.vals)) {
			return nil, "", dc.err(fmt.Sprintf("%s: dictionary position %d outside entity table %q of %d values", what, pos, t.name, len(t.vals)), ErrCorrupt)
		}
		if t.seen.Get(int(pos)) {
			return nil, "", dc.err(fmt.Sprintf("%s: dictionary repeats entity table %q position %d", what, t.name, pos), ErrCorrupt)
		}
		t.seen.Set(int(pos))
		vals[i] = t.vals[pos]
	}
	clear(t.seen)
	return vals, t.name, nil
}
