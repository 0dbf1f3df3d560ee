package snap

import (
	"encoding/binary"
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
	nFrames, err := dc.count("frame count", anyCount, 1)
	if err != nil {
		return nil, err
	}
	frames := make([]query.FrameData, nFrames)
	for fi := range frames {
		f := &frames[fi]
		dc.in = scope{}
		if f.Name, err = dc.str("frame name"); err != nil {
			return nil, err
		}
		dc.in.frame = f.Name
		rows, err := dc.uvarint("row count")
		if err != nil {
			return nil, err
		}
		if rows > uint64(len(data))*64 {
			// Even a single one-bit-per-row column would need more bytes
			// than the whole payload holds.
			return nil, dc.err("row count", ErrCorrupt, "%d rows, more than the payload could hold", rows)
		}
		f.NumRows = int(rows)
		nCols, err := dc.count("column count", anyCount, 1)
		if err != nil {
			return nil, err
		}
		f.Columns = make([]*query.Column, nCols)
		for ci := range f.Columns {
			if f.Columns[ci], err = decodeColumn(dc, tables, f.NumRows); err != nil {
				return nil, err
			}
		}
	}
	if err := dc.finished(); err != nil {
		return nil, err
	}
	return frames, nil
}

// decodeEntityTables reads the entity value tables. A table must be
// strictly ascending, which proves it repeats no value without hashing
// one.
func decodeEntityTables(dc *dec) ([]entityTable, error) {
	n, err := dc.count("entity table count", anyCount, 1)
	if err != nil {
		return nil, err
	}
	tables := make([]entityTable, n)
	for k := range tables {
		t := &tables[k]
		dc.in = scope{}
		if t.name, err = dc.str("entity table name"); err != nil {
			return nil, err
		}
		dc.in.table = t.name
		if t.vals, err = dc.strs("values", anyCount); err != nil {
			return nil, err
		}
		for i := 1; i < len(t.vals); i++ {
			if t.vals[i-1] >= t.vals[i] {
				return nil, dc.err("values", ErrCorrupt, "not strictly ascending at value %d", i)
			}
		}
		t.seen = query.NewBitmap(len(t.vals))
	}
	dc.in = scope{}
	return tables, nil
}

// decodeColumn reads one column of a frame of n rows, every part checked
// against n by its reader.
func decodeColumn(dc *dec, tables []entityTable, n int) (*query.Column, error) {
	dc.in.column = ""
	name, err := dc.str("column name")
	if err != nil {
		return nil, err
	}
	dc.in.column = name
	typ, err := dc.u8("type")
	if err != nil {
		return nil, err
	}
	c := &query.Column{Name: name, Type: query.ColType(typ)}
	hasValid, err := dc.bool("validity flag")
	if err != nil {
		return nil, err
	}
	if hasValid {
		if c.Valid, err = dc.bitmap("validity bitmap", n); err != nil {
			return nil, err
		}
	}
	switch c.Type {
	case query.TInt:
		c.Ints, err = dc.ints("ints", n)
	case query.TFloat:
		c.Floats, err = dc.floats("floats", n)
	case query.TBool:
		c.Bools, err = dc.bitmap("bitmap", n)
	case query.TStr:
		var vals []string
		if vals, c.Entity, err = decodeDict(dc, tables); err == nil {
			c.Dict = query.DictOf(vals)
			c.Codes, err = dc.codes("codes", n, len(vals))
		}
	default:
		err = dc.err("type", ErrCorrupt, "unknown column type %d", typ)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// decodeDict reads a string column's dictionary values in code order,
// proving they hold no value twice, and the entity whose table they were
// drawn from ("" for the column's own values). Values drawn from an entity
// table are the table's strings, positions checked in range and unrepeated
// against the table's bitmap; a column's own values are checked on a
// sorted copy. Neither check hashes a string.
func decodeDict(dc *dec, tables []entityTable) ([]string, string, error) {
	src, err := dc.uvarint("dictionary source")
	if err != nil {
		return nil, "", err
	}
	if src == dictOwn {
		vals, err := dc.strs("dictionary", anyCount)
		if err != nil {
			return nil, "", err
		}
		if _, ok := repeated(vals); ok {
			return nil, "", dc.err("dictionary", ErrCorrupt, "repeats a value")
		}
		return vals, "", nil
	}
	if src > uint64(len(tables)) {
		return nil, "", dc.err("dictionary source", ErrCorrupt, "%d names no entity table (%d tables)", src, len(tables))
	}
	t := &tables[src-1]
	n, err := dc.count("dictionary positions", anyCount, 1)
	if err != nil {
		return nil, "", err
	}
	vals := make([]string, n)
	data, off := dc.data, dc.off
	for i := range vals {
		pos, adv := uint64(0), 1
		if off < len(data) && data[off] < 0x80 {
			pos = uint64(data[off])
		} else if pos, adv = binary.Uvarint(data[off:]); adv <= 0 {
			dc.off = off
			return nil, "", dc.err("dictionary position", ErrTruncated, "")
		}
		off += adv
		if pos >= uint64(len(t.vals)) {
			dc.off = off
			return nil, "", dc.err("dictionary position", ErrCorrupt, "%d outside entity table %q of %d values", pos, t.name, len(t.vals))
		}
		if t.seen.Get(int(pos)) {
			dc.off = off
			return nil, "", dc.err("dictionary position", ErrCorrupt, "repeats entity table %q position %d", t.name, pos)
		}
		t.seen.Set(int(pos))
		vals[i] = t.vals[pos]
	}
	dc.off = off
	clear(t.seen)
	return vals, t.name, nil
}
