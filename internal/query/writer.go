package query

import (
	"fmt"

	"repro/internal/dataset"
)

// This file is the one way rows enter a frame. Each frame's columns are
// declared once, as a schema of colDefs; NewFrameSet builds every frame by
// writing rows into its empty form, and AppendConference grows a built
// frame by writing more rows through the same writer.

// colDef declares one frame column: its name, its storage type and, for a
// string column with a presentation order, the values its dictionary is
// seeded with before any row is written. Seeding fixes "appearance" order
// independently of row order (conference dictionaries follow Table 1
// order); re-seeding a grown frame interns only values it lacks, at the
// tail, exactly where a rebuild over the grown corpus puts them.
type colDef struct {
	name string
	typ  ColType
	seed func(*dataset.Dataset) []string
}

func intCol(name string) colDef   { return colDef{name: name, typ: TInt} }
func floatCol(name string) colDef { return colDef{name: name, typ: TFloat} }
func boolCol(name string) colDef  { return colDef{name: name, typ: TBool} }

func strCol(name string, seed func(*dataset.Dataset) []string) colDef {
	return colDef{name: name, typ: TStr, seed: seed}
}

// fixed seeds a dictionary with the same values whatever the corpus.
func fixed(vals ...string) func(*dataset.Dataset) []string {
	return func(*dataset.Dataset) []string { return vals }
}

// concat joins schema fragments into one schema.
func concat(parts ...[]colDef) []colDef {
	var out []colDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// emptyFrame returns a frame with the schema's columns and no rows. String
// columns get empty dictionaries; the writer seeds them.
func emptyFrame(name string, schema []colDef) *Frame {
	cols := make([]*Column, len(schema))
	for i, def := range schema {
		cols[i] = &Column{Name: def.name, Type: def.typ}
		if def.typ == TStr {
			cols[i].Dict = NewDict()
		}
	}
	return newFrame(name, 0, cols)
}

// checkSchema reports whether f's columns are exactly the schema's, in
// order and with the same types (a frame set from an older snapshot
// generation may predate a column).
func checkSchema(f *Frame, schema []colDef) error {
	if len(f.cols) != len(schema) {
		return fmt.Errorf("query: frame %q has %d columns, want %d", f.Name, len(f.cols), len(schema))
	}
	for i, def := range schema {
		if c := f.cols[i]; c.Name != def.name || c.Type != def.typ {
			return fmt.Errorf("query: frame %q column %d is %s:%s, want %s:%s", f.Name, i, c.Name, c.Type, def.name, def.typ)
		}
	}
	return nil
}

// frameWriter appends rows to a frame, one value per column in schema
// order, each row closed by endRow. A null is recorded rather than written
// into the validity bitmap; close seals every column's validity in one
// pass. Writing a row therefore costs the same whether the frame started
// empty or already held rows, and writing n rows in one session leaves the
// same frame as writing them over several.
type frameWriter struct {
	f     *Frame
	nulls [][]int32 // per column, the rows written null since the writer opened
	col   int       // column the next value goes to
	start int       // f.NumRows when the writer opened
}

// newFrameWriter binds a writer to f, whose columns must match schema (the
// caller checks), and seeds its string columns' dictionaries from d.
func newFrameWriter(f *Frame, schema []colDef, d *dataset.Dataset) *frameWriter {
	for i, def := range schema {
		if def.seed == nil {
			continue
		}
		for _, v := range def.seed(d) {
			f.cols[i].Dict.Code(v)
		}
	}
	return &frameWriter{f: f, nulls: make([][]int32, len(f.cols)), start: f.NumRows}
}

// next returns the column the next value goes to and advances past it.
func (w *frameWriter) next(t ColType) *Column {
	c := w.f.cols[w.col]
	if c.Type != t {
		panic("query: frame " + w.f.Name + " column " + c.Name + " is " + c.Type.String() + ", written as " + t.String())
	}
	w.col++
	return c
}

func (w *frameWriter) addInt(v int64) {
	c := w.next(TInt)
	c.Ints = append(c.Ints, v)
}

func (w *frameWriter) addFloat(v float64) {
	c := w.next(TFloat)
	c.Floats = append(c.Floats, v)
}

func (w *frameWriter) addStr(s string) {
	c := w.next(TStr)
	c.Codes = append(c.Codes, c.Dict.Code(s))
}

// addBool grows the bitmap a word at a time and sets true bits only: bits
// past a frame's row count are zero in every frame this writer or the
// snapshot decoder (which rejects any other) produces.
func (w *frameWriter) addBool(v bool) {
	c := w.next(TBool)
	i := w.f.NumRows
	if len(c.Bools)*64 <= i {
		c.Bools = append(c.Bools, 0)
	}
	if v {
		c.Bools.Set(i)
	}
}

// addNull writes the column's zero value (the empty string, interned, for
// strings) and records the row as null.
func (w *frameWriter) addNull() {
	w.nulls[w.col] = append(w.nulls[w.col], int32(w.f.NumRows))
	switch w.f.cols[w.col].Type {
	case TInt:
		w.addInt(0)
	case TFloat:
		w.addFloat(0)
	case TStr:
		w.addStr("")
	case TBool:
		w.addBool(false)
	}
}

// endRow closes the current row; every column must have been written.
func (w *frameWriter) endRow() {
	if w.col != len(w.f.cols) {
		panic(fmt.Sprintf("query: frame %s row %d wrote %d of %d columns", w.f.Name, w.f.NumRows, w.col, len(w.f.cols)))
	}
	w.col = 0
	w.f.NumRows++
}

// close seals validity for the rows written. A column that has never held
// a null keeps its nil (all-valid) bitmap; otherwise the bitmap grows to
// the row count, the rows the writer added (every row, for a column that
// had no bitmap) are marked valid, and the recorded nulls are cleared.
func (w *frameWriter) close() {
	if w.col != 0 {
		panic("query: frame " + w.f.Name + " closed mid-row")
	}
	n := w.f.NumRows
	for i, c := range w.f.cols {
		nulls := w.nulls[i]
		if len(nulls) == 0 && c.Valid == nil {
			continue
		}
		lo := w.start
		if c.Valid == nil {
			lo = 0
		}
		c.Valid = setRange(c.Valid, lo, n)
		for _, r := range nulls {
			c.Valid[r>>6] &^= 1 << (uint(r) & 63)
		}
	}
}

// setRange grows b to cover hi bits and sets bits [lo, hi), a whole word
// at a time where it can.
func setRange(b Bitmap, lo, hi int) Bitmap {
	for len(b)*64 < hi {
		b = append(b, 0)
	}
	for i := lo; i < hi; {
		if i&63 == 0 && hi-i >= 64 {
			b[i>>6] = ^uint64(0)
			i += 64
			continue
		}
		b[i>>6] |= 1 << (uint(i) & 63)
		i++
	}
	return b
}
