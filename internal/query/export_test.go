package query

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
	return AssembleFrameSet([]*Frame{emptyFrame("split", splitSchema(typ))})
}

// WriteSplitRows appends n rows to the frame of a NewSplitFrameSet (or its
// snapshot round trip) in one writer session. Row i, counted from the
// frame's first row, is null when null(i) and otherwise holds a value
// derived from i.
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

// Indexed reports whether d has built its value→code index.
func (d *Dict) Indexed() bool { return d.idx != nil }
