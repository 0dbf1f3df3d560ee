package query

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
)

// Projections are late-materialized: the scan keeps only matching row
// indexes, ordering works on those rows through a typed cell comparator,
// and Values are built for the emitted rows alone.

// scanSelect evaluates a projection's filter column-wise, one partition at
// a time, into a frame-wide selection bitmap and returns the matching row
// indexes in frame order. A popcount sizes the index slice first, so the
// fill loop writes into preallocated memory: three allocations per scan
// however many rows match.
//
//whpcvet:hot
func scanSelect(p *plan) []int32 {
	n := p.f.NumRows
	sel := NewBitmap(n)
	tmp := make(Bitmap, partitionRows/64)
	for lo := 0; lo < n; lo += partitionRows {
		hi := min(lo+partitionRows, n)
		w0, w1 := lo>>6, (hi+63)>>6
		filterBits(p.where, lo, hi, sel[w0:w1], tmp[:w1-w0])
	}
	count := 0
	for _, word := range sel {
		count += bits.OnesCount64(word)
	}
	rows := make([]int32, count)
	k := 0
	for w, word := range sel {
		for word != 0 {
			rows[k] = int32(w<<6 + bits.TrailingZeros64(word))
			k++
			word &= word - 1
		}
	}
	return rows
}

// selOrder orders matching rows by a projection's order_by keys.
type selOrder struct {
	keys []orderRef
	cols []*Column // the projected columns, in select order
}

// cmp orders two rows by the order_by keys and breaks every remaining tie
// on row order. A stable sort of the matching rows keeps tied rows in row
// order, so sorting under this total order — with any algorithm —
// reproduces sort.SliceStable row for row.
//
//whpcvet:hot
func (o *selOrder) cmp(a, b int32) int {
	for _, k := range o.keys {
		if c := cmpCell(o.cols[k.slot], int(a), int(b), k.appearance); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a, b)
}

// cmpCell orders rows ra and rb of column c by cmpValue's rules without
// building a Value: nulls first, NaN before any number, strings by
// dictionary value — or by code, which is appearance order, when
// appearance is set — and false before true.
//
//whpcvet:hot
func cmpCell(c *Column, ra, rb int, appearance bool) int {
	va, vb := c.valid(ra), c.valid(rb)
	if va != vb {
		if va {
			return 1
		}
		return -1
	}
	if !va {
		return 0
	}
	switch c.Type {
	case TInt:
		return cmp.Compare(c.Ints[ra], c.Ints[rb])
	case TFloat:
		// cmp.Compare puts NaN first, equates NaNs and equates -0 with +0:
		// cmpValue's float order exactly.
		return cmp.Compare(c.Floats[ra], c.Floats[rb])
	case TStr:
		x, y := c.Codes[ra], c.Codes[rb]
		if appearance || x == y {
			return cmp.Compare(x, y)
		}
		return strings.Compare(c.Dict.Value(x), c.Dict.Value(y))
	default:
		x, y := c.Bools.Get(ra), c.Bools.Get(rb)
		if x == y {
			return 0
		}
		if x {
			return 1
		}
		return -1
	}
}

// finalizeSelect orders, limits and materializes the projection. With an
// order and a cutting limit only the top rows are kept (topK); without an
// order the first matching rows are the result.
func finalizeSelect(p *plan, pt *Partial) *Result {
	o := &selOrder{keys: p.orderBy, cols: pt.cols}
	keep := len(pt.rows)
	if p.limit > 0 && p.limit < keep {
		keep = p.limit
	}
	var rows []int32
	if len(o.keys) > 0 && keep < len(pt.rows) {
		rows = o.topK(pt.rows, keep)
	} else {
		rows = pt.rows[:keep]
		if len(o.keys) > 0 {
			slices.SortFunc(rows, o.cmp)
		}
	}
	return materialize(p, o.cols, rows)
}

// topK returns the k smallest rows under o.cmp, sorted, in O(n log k): a
// bounded max-heap holds the best k seen so far, and a later row enters
// only by ordering before the heap's root.
//
//whpcvet:hot
func (o *selOrder) topK(rows []int32, k int) []int32 {
	h := make([]int32, 0, k)
	for _, r := range rows {
		switch {
		case len(h) < k:
			h = append(h, r)
			o.siftUp(h)
		case o.cmp(r, h[0]) < 0:
			h[0] = r
			o.siftDown(h)
		}
	}
	slices.SortFunc(h, o.cmp)
	return h
}

// siftUp restores the max-heap order after an append to h.
//
//whpcvet:hot
func (o *selOrder) siftUp(h []int32) {
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if o.cmp(h[i], h[parent]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the max-heap order after h's root was replaced.
//
//whpcvet:hot
func (o *selOrder) siftDown(h []int32) {
	for i := 0; ; {
		top := i
		if l := 2*i + 1; l < len(h) && o.cmp(h[l], h[top]) > 0 {
			top = l
		}
		if r := 2*i + 2; r < len(h) && o.cmp(h[r], h[top]) > 0 {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// materialize builds the result cells of the emitted rows only, slicing
// every row from one Value arena.
//
//whpcvet:hot
func materialize(p *plan, cols []*Column, rows []int32) *Result {
	res := newResult(p)
	width := len(p.selects)
	arena := make([]Value, len(rows)*width)
	res.Rows = make([][]Value, len(rows))
	for i, row := range rows {
		vals := arena[i*width : (i+1)*width : (i+1)*width]
		for s := range vals {
			vals[s] = columnValue(cols[s], int(row))
		}
		res.Rows[i] = vals
	}
	return res
}

// columnValue reads one cell of a column.
func columnValue(col *Column, row int) Value {
	if !col.valid(row) {
		return Value{Kind: col.Type, Null: true}
	}
	switch col.Type {
	case TInt:
		return Value{Kind: TInt, I: col.Ints[row]}
	case TFloat:
		return Value{Kind: TFloat, F: col.Floats[row]}
	case TStr:
		return Value{Kind: TStr, S: col.str(row)}
	default:
		return Value{Kind: TBool, B: col.Bools.Get(row)}
	}
}
