package query

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
)

// Projections are late-materialized: the scan keeps only matching row
// indexes, ordering works on (partial, row) refs through a typed cell
// comparator, and Values are built for the emitted rows alone.

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

// ref addresses one projected row across partials: the partial's index in
// the high 32 bits, its frame row in the low 32. Integer order on refs is
// therefore merge order — partials as given, rows in frame order.
func ref(part int, row int32) uint64 { return uint64(part)<<32 | uint64(uint32(row)) }

// selOrder orders refs by a projection's order_by keys.
type selOrder struct {
	keys []orderRef
	cols [][]*Column // per partial, the projected columns in select order
}

// cmp orders two refs by the order_by keys and breaks every remaining tie
// on the refs themselves. A stable sort of the merged rows keeps tied rows
// in merge order, which is ref order, so sorting under this total order —
// with any algorithm — reproduces sort.SliceStable row for row.
//
//whpcvet:hot
func (o *selOrder) cmp(a, b uint64) int {
	ca, cb := o.cols[a>>32], o.cols[b>>32]
	ra, rb := int(uint32(a)), int(uint32(b))
	for _, k := range o.keys {
		if c := cmpCell(ca[k.slot], ra, cb[k.slot], rb, k.appearance); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a, b)
}

// cmpCell orders row ra of column a against row rb of column b (the same
// projected column, possibly of two partials) by cmpValue's rules without
// building a Value: nulls first, NaN before any number, strings by
// dictionary value — or by code, which is appearance order, when
// appearance is set — and false before true.
//
//whpcvet:hot
func cmpCell(a *Column, ra int, b *Column, rb int, appearance bool) int {
	va, vb := a.valid(ra), b.valid(rb)
	if va != vb {
		if va {
			return 1
		}
		return -1
	}
	if !va {
		return 0
	}
	switch a.Type {
	case TInt:
		return cmp.Compare(a.Ints[ra], b.Ints[rb])
	case TFloat:
		// cmp.Compare puts NaN first, equates NaNs and equates -0 with +0:
		// cmpValue's float order exactly.
		return cmp.Compare(a.Floats[ra], b.Floats[rb])
	case TStr:
		x, y := a.Codes[ra], b.Codes[rb]
		if appearance {
			return cmp.Compare(x, y)
		}
		if x == y && a.Dict == b.Dict {
			return 0
		}
		return strings.Compare(a.Dict.Value(x), b.Dict.Value(y))
	default:
		x, y := a.Bools.Get(ra), b.Bools.Get(rb)
		if x == y {
			return 0
		}
		if x {
			return 1
		}
		return -1
	}
}

// finalizeSelect orders, limits and materializes the merged projection.
// With an order and a cutting limit only the top refs are kept (topK);
// without an order the first refs in merge order are the result.
func finalizeSelect(p *plan, partials []*Partial) *Result {
	o := &selOrder{keys: p.orderBy, cols: make([][]*Column, len(partials))}
	total := 0
	for pi, pt := range partials {
		o.cols[pi] = pt.cols
		total += len(pt.rows)
	}
	keep := total
	if p.limit > 0 && p.limit < total {
		keep = p.limit
	}
	var refs []uint64
	if len(o.keys) > 0 && keep < total {
		refs = o.topK(partials, keep)
	} else {
		refs = firstRefs(partials, keep)
		if len(o.keys) > 0 {
			slices.SortFunc(refs, o.cmp)
		}
	}
	return materialize(p, o.cols, refs)
}

// firstRefs returns the first n refs in merge order.
//
//whpcvet:hot
func firstRefs(partials []*Partial, n int) []uint64 {
	refs := make([]uint64, 0, n)
	for pi, pt := range partials {
		for _, row := range pt.rows {
			if len(refs) == n {
				return refs
			}
			refs = append(refs, ref(pi, row))
		}
	}
	return refs
}

// topK returns the k smallest refs under o.cmp, sorted, in O(n log k): a
// bounded max-heap holds the best k seen so far, and a later ref enters
// only by ordering before the heap's root.
//
//whpcvet:hot
func (o *selOrder) topK(partials []*Partial, k int) []uint64 {
	h := make([]uint64, 0, k)
	for pi, pt := range partials {
		for _, row := range pt.rows {
			r := ref(pi, row)
			switch {
			case len(h) < k:
				h = append(h, r)
				o.siftUp(h)
			case o.cmp(r, h[0]) < 0:
				h[0] = r
				o.siftDown(h)
			}
		}
	}
	slices.SortFunc(h, o.cmp)
	return h
}

// siftUp restores the max-heap order after an append to h.
//
//whpcvet:hot
func (o *selOrder) siftUp(h []uint64) {
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
func (o *selOrder) siftDown(h []uint64) {
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
func materialize(p *plan, cols [][]*Column, refs []uint64) *Result {
	res := newResult(p)
	width := len(p.selects)
	arena := make([]Value, len(refs)*width)
	res.Rows = make([][]Value, len(refs))
	for i, r := range refs {
		vals := arena[i*width : (i+1)*width : (i+1)*width]
		pc, row := cols[r>>32], int(uint32(r))
		for s := range vals {
			vals[s] = columnValue(pc[s], row)
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
