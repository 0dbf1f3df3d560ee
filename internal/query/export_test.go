package query

import "repro/internal/dataset"

// splitSchema is the one-column schema of the writer split tests; string
// columns are seeded out of value order.
func splitSchema(typ ColType) []colDef {
	if typ == TStr {
		return []colDef{strCol("c", fixed("pear", "fig"))}
	}
	return []colDef{{name: "c", typ: typ}}
}

// NewSplitFrameSet returns a frame set holding one empty frame "split"
// with a single column "c" of type typ.
func NewSplitFrameSet(typ ColType) *FrameSet {
	return &FrameSet{frames: []*Frame{emptyFrame("split", splitSchema(typ))}}
}

// WriteSplitRows appends n rows to the frame of a NewSplitFrameSet (or of
// UncarrySplit) in one writer session. Row i, counted from the frame's
// first row, is null when null(i) and otherwise holds a value derived
// from i.
func WriteSplitRows(fs *FrameSet, n int, null func(int) bool) {
	f, _ := fs.Frame("split")
	typ := f.cols[0].Type
	w := newFrameWriter(f, splitSchema(typ), nil)
	words := []string{"fig", "apple", "", "pear", "kiwi"}
	for end := f.NumRows + n; f.NumRows < end; {
		i := f.NumRows
		switch {
		case null(i):
			w.addNull()
		case typ == TInt:
			w.addInt(int64(i*7 - 300))
		case typ == TFloat:
			w.addFloat(float64(i) / 3)
		case typ == TStr:
			w.addStr(words[i%len(words)])
		default:
			w.addBool(i%3 == 0)
		}
		w.endRow()
	}
	w.close()
}

// splitCarriers names, per column type, the frame and column that carry
// a split frame's column through a snapshot, which carries only the
// schema's frames.
var splitCarriers = map[ColType][2]string{
	TInt:   {FramePapers, "citations36"},
	TFloat: {FrameSlots, "attendance"},
	TStr:   {FrameMembers, "country"},
	TBool:  {FrameMembers, "known"},
}

// CarrySplit returns the frame set of d, a corpus in which nobody holds a
// role, with the carrier frame of split's column type replaced by one of
// split's row count: its carrier column is split's column, its
// conference-ID columns hold d's first conference, and its other columns
// hold zero values.
func CarrySplit(split *FrameSet, d *dataset.Dataset) *FrameSet {
	src := split.frames[0]
	n := src.NumRows
	carrier := splitCarriers[src.cols[0].Type]
	fs := NewFrameSet(d)
	for i, def := range frameDefs {
		if def.name != carrier[0] {
			continue
		}
		cols := make([]*Column, len(def.cols))
		for j, cd := range def.cols {
			c := &Column{Name: cd.name, Type: cd.typ, Entity: cd.entity}
			switch {
			case cd.name == carrier[1]:
				*c = *src.cols[0]
				c.Name = cd.name
			case cd.typ == TInt:
				c.Ints = make([]int64, n)
			case cd.typ == TFloat:
				c.Floats = make([]float64, n)
			case cd.typ == TBool:
				c.Bools = NewBitmap(n)
			case cd.conf:
				c.Dict, c.Codes = DictOf(confIDs(d)), make([]int32, n)
			default:
				c.Dict, c.Codes = NewDict(""), make([]int32, n)
			}
			cols[j] = c
		}
		fs.frames[i] = newFrame(def.name, n, cols)
	}
	return fs
}

// UncarrySplit returns the split frame set whose column is fs's carrier
// column of type typ (CarrySplit).
func UncarrySplit(fs *FrameSet, typ ColType) *FrameSet {
	carrier := splitCarriers[typ]
	f, _ := fs.Frame(carrier[0])
	c := *f.byName[carrier[1]]
	c.Name = "c"
	return &FrameSet{frames: []*Frame{newFrame("split", f.NumRows, []*Column{&c})}}
}

// Indexed reports whether d has built its value→code index.
func (d *Dict) Indexed() bool { return d.idx != nil }
