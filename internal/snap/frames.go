package snap

import (
	"fmt"

	"repro/internal/query"
)

// The frames codec serializes a pre-built query.FrameSet so warm boots
// skip the columnar flattening pass too. Each column is stored in its
// native representation — zigzag varints for ints, fixed 64-bit patterns
// for floats, bitmap words for booleans and validity, dictionary values
// in code order plus a code column for strings — so a deserialized
// FrameSet answers every query byte-identically to a freshly built one.

func encodeFrames(fs *query.FrameSet) []byte {
	e := &enc{}
	names := fs.Names()
	e.uvarint(uint64(len(names)))
	for _, name := range names {
		f, _ := fs.Frame(name)
		e.str(f.Name)
		cols := f.Columns()
		e.uvarint(uint64(f.NumRows))
		e.uvarint(uint64(len(cols)))
		for _, c := range cols {
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
				e.strDict(c.Dict.Values())
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
	want := bitmapWords(n)
	out := make([]uint64, want)
	copy(out, b)
	if n%64 != 0 && want > 0 {
		out[want-1] &= (1 << uint(n%64)) - 1
	}
	return out
}

func decodeFrames(data []byte) (*query.FrameSet, error) {
	dc := newDec(SectionFrames, data)
	nFrames, err := dc.length("frame", 1)
	if err != nil {
		return nil, err
	}
	frames := make([]*query.Frame, 0, nFrames)
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
			c, err := decodeColumn(dc, name, n)
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
		}
		frames = append(frames, query.AssembleFrame(name, n, cols))
	}
	if err := dc.finished("frames"); err != nil {
		return nil, err
	}
	return query.AssembleFrameSet(frames), nil
}

func decodeColumn(dc *dec, frame string, n int) (*query.Column, error) {
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
		c.Valid = query.Bitmap(w)
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
		c.Bools = query.Bitmap(w)
	case query.TStr:
		vals, err := dc.strDict(what + " dictionary")
		if err != nil {
			return nil, err
		}
		dict := query.NewDict(vals...)
		if dict.Len() != len(vals) {
			return nil, dc.err(what+": dictionary repeats a value", ErrCorrupt)
		}
		c.Dict = dict
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
