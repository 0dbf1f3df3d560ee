package query

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/stats"
)

// partitionRows is the fixed partition width: the unit of the columnar
// filter's bitmaps and of float accumulation. A grouped scan sums each
// partition on its own and merges the partials in partition order, so the
// width fixes the addition tree of every float sum, mean and Welch moment
// (see stats.Moments); changing it changes result bits.
const partitionRows = 1024

// accCell is one aggregate accumulator. The field roles depend on the
// aggregate kind: count uses n; sum/min/max/first use i or f by column
// type; mean uses n+f; ratio uses n (num hits) and i (den hits).
type accCell struct {
	n   int64
	i   int64
	f   float64
	set bool
}

// groupAcc is one group's key tokens plus one accumulator per aggregate.
type groupAcc struct {
	tokens []uint64
	cells  []accCell
}

// accSet accumulates groups for one partition (and, merged, for the whole
// scan). Groups keep first-appearance order; the dense path indexes a flat
// array when the key domain is small, otherwise keys are byte-encoded.
type accSet struct {
	p      *plan
	dense  []*groupAcc // nil when sparse
	sparse map[string]*groupAcc
	order  []*groupAcc
	spare  []*groupAcc // groups released by reset, recycled by newGroup
	// welch sufficient statistics, accumulated in row order within the
	// partition. Moments merge by field-wise addition, so merging the
	// partition sets in partition order fixes the addition tree.
	cmp [2]stats.Moments

	strides []uint64 // dense strides per key
	scratch []byte   // sparse key encoding buffer
}

// denseLimit bounds the flat-array fast path for small key domains.
const denseLimit = 1 << 16

// newAccSet sizes an accumulator set for the plan.
func newAccSet(p *plan) *accSet {
	a := &accSet{p: p}
	if size, strides, ok := denseLayout(p); ok {
		a.dense = make([]*groupAcc, size)
		a.strides = strides
	} else {
		a.sparse = make(map[string]*groupAcc)
		a.scratch = make([]byte, 8*len(p.keys))
	}
	return a
}

// denseLayout computes flat-array strides when every key has a small
// finite token domain (strings: dictionary size + null; bools: 3).
func denseLayout(p *plan) (size int, strides []uint64, ok bool) {
	size = 1
	strides = make([]uint64, len(p.keys))
	for i := len(p.keys) - 1; i >= 0; i-- {
		var domain int
		switch p.keys[i].col.Type {
		case TStr:
			domain = p.keys[i].col.Dict.Len() + 1
		case TBool:
			domain = 3
		default:
			return 0, nil, false
		}
		strides[i] = uint64(size)
		size *= domain
		if size > denseLimit {
			return 0, nil, false
		}
	}
	return size, strides, true
}

// token computes the group-key token of one row: 0 for null, otherwise a
// value-stable non-zero token per column type. Float columns are never
// group keys (compile rejects them), so there is no float token.
//
//whpcvet:hot
func token(col *Column, row int) uint64 {
	if !col.valid(row) {
		return 0
	}
	switch col.Type {
	case TStr:
		return uint64(col.Codes[row]) + 1
	case TBool:
		if col.Bools.Get(row) {
			return 2
		}
		return 1
	default:
		return intToken(col.Ints[row])
	}
}

// slot is a token tuple's index in the dense array.
func (a *accSet) slot(tokens []uint64) uint64 {
	idx := uint64(0)
	for i, t := range tokens {
		idx += t * a.strides[i]
	}
	return idx
}

// newGroup appends a zeroed accumulator for a token tuple to the group
// order, recycling a group released by reset when there is one. The caller
// indexes it.
func (a *accSet) newGroup(tokens []uint64) *groupAcc {
	var g *groupAcc
	if n := len(a.spare); n > 0 {
		g = a.spare[n-1]
		a.spare = a.spare[:n-1]
		copy(g.tokens, tokens)
		clear(g.cells)
	} else {
		g = &groupAcc{tokens: append([]uint64(nil), tokens...), cells: make([]accCell, len(a.p.aggs))}
	}
	a.order = append(a.order, g)
	return g
}

// group finds or creates the accumulator for a token tuple.
func (a *accSet) group(tokens []uint64) *groupAcc {
	if a.dense != nil {
		idx := a.slot(tokens)
		g := a.dense[idx]
		if g == nil {
			g = a.newGroup(tokens)
			a.dense[idx] = g
		}
		return g
	}
	for i, t := range tokens {
		binary.LittleEndian.PutUint64(a.scratch[i*8:], t)
	}
	g := a.sparse[string(a.scratch)]
	if g == nil {
		g = a.newGroup(tokens)
		a.sparse[string(a.scratch)] = g
	}
	return g
}

// lookup finds an existing group without creating one.
func (a *accSet) lookup(tokens []uint64) *groupAcc {
	if a.dense != nil {
		return a.dense[a.slot(tokens)]
	}
	for i, t := range tokens {
		binary.LittleEndian.PutUint64(a.scratch[i*8:], t)
	}
	return a.sparse[string(a.scratch)]
}

// reset empties the set for the next partition, keeping its index and its
// groups for reuse.
func (a *accSet) reset() {
	if a.dense != nil {
		for _, g := range a.order {
			a.dense[a.slot(g.tokens)] = nil
		}
	} else {
		clear(a.sparse)
	}
	a.spare = append(a.spare, a.order...)
	a.order = a.order[:0]
	a.cmp = [2]stats.Moments{}
}

// setPrefix sets the first n bits of out.
//
//whpcvet:hot
func setPrefix(out Bitmap, n int) {
	for w := 0; w*64 < n; w++ {
		out[w] = ^uint64(0)
	}
	maskTail(out, n)
}

// maskTail clears bits at positions >= n.
//
//whpcvet:hot
func maskTail(out Bitmap, n int) {
	if rem := n & 63; rem != 0 {
		out[n>>6] &= (1 << uint(rem)) - 1
	}
	for w := (n + 63) / 64; w < len(out); w++ {
		out[w] = 0
	}
}

// leafBits ORs the rows of [lo, hi) matching l into out (bit i-lo).
// Columnar evaluation: each leaf is one tight loop over its column — the
// typed switch runs once per partition, not once per row. lo is always a
// multiple of 64 (partitionRows is), so bool columns reduce to word ops.
//
//whpcvet:hot
func leafBits(l *leaf, lo, hi int, out Bitmap) {
	n := hi - lo
	switch {
	case l.op == opNull:
		if l.col.Valid == nil {
			return
		}
		for i := lo; i < hi; i++ {
			if !l.col.Valid.Get(i) {
				out.Set(i - lo)
			}
		}
	case l.op == opNotNull:
		if l.col.Valid == nil {
			setPrefix(out, n)
			return
		}
		for i := lo; i < hi; i++ {
			if l.col.Valid.Get(i) {
				out.Set(i - lo)
			}
		}
	case l.col.Type == TBool:
		want := l.b
		if l.op == opNe {
			want = !want
		}
		base := lo >> 6
		for w := 0; w*64 < n; w++ {
			word := l.col.Bools[base+w]
			if !want {
				word = ^word
			}
			if l.col.Valid != nil {
				word &= l.col.Valid[base+w]
			}
			out[w] |= word
		}
		// Complementing may set garbage past row n-1; no other leaf sets
		// bits there, so masking restores the invariant.
		maskTail(out, n)
	case l.col.Type == TStr:
		strBits(l, lo, n, out)
	case l.col.Type == TFloat:
		ordBits(l.col.Floats, l.op, l.f, lo, n, l.col.Valid, out)
	case l.op != opIn:
		ordBits(l.col.Ints, l.op, l.i, lo, n, l.col.Valid, out)
	default:
		// Int in-lists are the one shape left on the per-row fallback.
		for i := lo; i < hi; i++ {
			if l.match(i) {
				out.Set(i - lo)
			}
		}
	}
}

// strBits ORs the rows of [lo, lo+n) matching a string eq, ne or in leaf
// into out. Each 64-row word is built in a register from the code vector
// and masked with the column's validity word once, so the per-row work is
// one code comparison (or one table load for in).
//
//whpcvet:hot
func strBits(l *leaf, lo, n int, out Bitmap) {
	if l.op == opEq && !l.codeOK {
		return
	}
	code := l.code
	if !l.codeOK {
		// ne against a value absent from the dictionary: every valid row
		// matches, and no code is negative.
		code = -1
	}
	member := l.member
	codes := l.col.Codes[lo : lo+n]
	for w := 0; w*64 < n; w++ {
		seg := codes[w*64 : min(n, w*64+64)]
		var word uint64
		switch l.op {
		case opEq:
			for j, c := range seg {
				if c == code {
					word |= 1 << uint(j)
				}
			}
		case opNe:
			for j, c := range seg {
				if c != code {
					word |= 1 << uint(j)
				}
			}
		default: // opIn
			for j, c := range seg {
				if int(c) < len(member) && member[c] {
					word |= 1 << uint(j)
				}
			}
		}
		if l.col.Valid != nil {
			word &= l.col.Valid[lo>>6+w]
		}
		out[w] |= word
	}
}

// ordBits ORs the rows of [lo, lo+n) whose value compares to x under op
// (eq, ne, lt, le, gt, ge) into out, one 64-row word at a time like
// strBits. Float leaves only compile to the range ops, and NaN cells fail
// every range comparison, as they do in leaf.match.
//
//whpcvet:hot
func ordBits[T int64 | float64](vals []T, op int, x T, lo, n int, valid Bitmap, out Bitmap) {
	vals = vals[lo : lo+n]
	for w := 0; w*64 < n; w++ {
		seg := vals[w*64 : min(n, w*64+64)]
		var word uint64
		switch op {
		case opEq:
			for j, v := range seg {
				if v == x {
					word |= 1 << uint(j)
				}
			}
		case opNe:
			for j, v := range seg {
				if v != x {
					word |= 1 << uint(j)
				}
			}
		case opLt:
			for j, v := range seg {
				if v < x {
					word |= 1 << uint(j)
				}
			}
		case opLe:
			for j, v := range seg {
				if v <= x {
					word |= 1 << uint(j)
				}
			}
		case opGt:
			for j, v := range seg {
				if v > x {
					word |= 1 << uint(j)
				}
			}
		case opGe:
			for j, v := range seg {
				if v >= x {
					word |= 1 << uint(j)
				}
			}
		}
		if valid != nil {
			word &= valid[lo>>6+w]
		}
		out[w] |= word
	}
}

// filterBits evaluates an AND-of-ORs filter over [lo, hi) into sel, using
// tmp as scratch. A nil/empty filter selects every row.
//
//whpcvet:hot
func filterBits(filter []orGroup, lo, hi int, sel, tmp Bitmap) {
	n := hi - lo
	setPrefix(sel, n)
	for gi := range filter {
		for w := range tmp {
			tmp[w] = 0
		}
		g := filter[gi]
		for li := range g {
			leafBits(&g[li], lo, hi, tmp)
		}
		for w := range sel {
			sel[w] &= tmp[w]
		}
	}
}

// denseIndex computes each row's flat dense-array index for rows [lo, hi)
// by folding stride-weighted key tokens one column at a time — the typed
// switch runs per key, not per row, and the selected-row loop then groups
// with a single slice index. Dense layout admits only string and bool keys.
//
//whpcvet:hot
func denseIndex(p *plan, strides []uint64, lo, hi int, idx []uint32) {
	for ki := range p.keys {
		col := p.keys[ki].col
		stride := uint32(strides[ki])
		switch col.Type {
		case TStr:
			codes := col.Codes
			if col.Valid == nil {
				for i := range idx {
					idx[i] += uint32(codes[lo+i]+1) * stride
				}
				continue
			}
			for i := range idx {
				if col.Valid.Get(lo + i) {
					idx[i] += uint32(codes[lo+i]+1) * stride
				}
			}
		case TBool:
			for i := range idx {
				row := lo + i
				if col.Valid != nil && !col.Valid.Get(row) {
					continue
				}
				t := uint32(1)
				if col.Bools.Get(row) {
					t = 2
				}
				idx[i] += t * stride
			}
		}
	}
}

// accumulate folds row into one group's cells. rel is the row's bit index
// within the partition; aggSel[i], when non-nil, is the pre-evaluated
// bitmap of agg i's where-filter.
//
//whpcvet:hot
func accumulate(aggs []aggOp, aggSel []Bitmap, g *groupAcc, row, rel int) {
	for ai := range aggs {
		op := &aggs[ai]
		if aggSel[ai] != nil && !aggSel[ai].Get(rel) {
			continue
		}
		c := &g.cells[ai]
		switch op.kind {
		case aCount:
			if op.col == nil || op.col.valid(row) {
				c.n++
			}
		case aRatio:
			if op.den.valid(row) && op.den.Bools.Get(row) {
				c.i++
			}
			if op.num.valid(row) && op.num.Bools.Get(row) {
				c.n++
			}
		case aSum:
			if !op.col.valid(row) {
				continue
			}
			if op.col.Type == TInt {
				c.i += op.col.Ints[row]
			} else {
				c.f += op.col.Floats[row]
			}
		case aMean:
			if !op.col.valid(row) {
				continue
			}
			c.n++
			if op.col.Type == TInt {
				c.f += float64(op.col.Ints[row])
			} else {
				c.f += op.col.Floats[row]
			}
		case aMin, aMax:
			if !op.col.valid(row) {
				continue
			}
			if op.col.Type == TInt {
				v := op.col.Ints[row]
				if !c.set || (op.kind == aMin && v < c.i) || (op.kind == aMax && v > c.i) {
					c.i, c.set = v, true
				}
			} else {
				v := op.col.Floats[row]
				if !c.set || (op.kind == aMin && v < c.f) || (op.kind == aMax && v > c.f) {
					c.f, c.set = v, true
				}
			}
		case aFirst:
			if c.set || !op.col.valid(row) {
				continue
			}
			c.set = true
			switch op.col.Type {
			case TInt:
				c.i = op.col.Ints[row]
			case TFloat:
				c.f = op.col.Floats[row]
			case TStr:
				c.i = int64(op.col.Codes[row])
			case TBool:
				if op.col.Bools.Get(row) {
					c.i = 1
				}
			}
		}
	}
}

// mergeCell folds a partition cell into the global cell, kind-aware.
func mergeCell(kind int, dst, src *accCell) {
	switch kind {
	case aCount:
		dst.n += src.n
	case aRatio:
		dst.n += src.n
		dst.i += src.i
	case aSum:
		dst.i += src.i
		dst.f += src.f
	case aMean:
		dst.n += src.n
		dst.f += src.f
	case aMin:
		if src.set && (!dst.set || src.i < dst.i || src.f < dst.f) {
			*dst = *src
		}
	case aMax:
		if src.set && (!dst.set || src.i > dst.i || src.f > dst.f) {
			*dst = *src
		}
	case aFirst:
		if !dst.set && src.set {
			*dst = *src
		}
	}
}

// merge folds a partition accumulator set into the global one, preserving
// the partition's first-appearance group order.
func (a *accSet) merge(part *accSet) {
	for _, pg := range part.order {
		g := a.group(pg.tokens)
		for ai := range a.p.aggs {
			mergeCell(a.p.aggs[ai].kind, &g.cells[ai], &pg.cells[ai])
		}
	}
	a.cmp[0].Merge(part.cmp[0])
	a.cmp[1].Merge(part.cmp[1])
}

// partScratch is scanPartition's working memory, sized once per query at
// partition width and reused by every partition.
type partScratch struct {
	sel, tmp Bitmap
	aggSel   []Bitmap // per-aggregate where-filter bitmaps, nil when unfiltered
	tokens   []uint64
	denseIdx []uint32 // nil unless the set is dense and has keys
}

// newPartScratch sizes the scratch of a scan of p into a for partitions of
// at most width rows. The per-aggregate bitmaps share one backing arena.
func newPartScratch(p *plan, a *accSet, width int) *partScratch {
	words := (width + 63) / 64
	s := &partScratch{
		sel:    make(Bitmap, words),
		tmp:    make(Bitmap, words),
		aggSel: make([]Bitmap, len(p.aggs)),
		tokens: make([]uint64, len(p.keys)),
	}
	nsel := 0
	for ai := range p.aggs {
		if len(p.aggs[ai].where) != 0 {
			nsel++
		}
	}
	arena := make(Bitmap, nsel*words)
	for ai := range p.aggs {
		if len(p.aggs[ai].where) != 0 {
			s.aggSel[ai] = arena[:words:words]
			arena = arena[words:]
		}
	}
	if a.dense != nil && len(p.keys) > 0 {
		s.denseIdx = make([]uint32, width)
	}
	return s
}

// scanPartition runs the grouped scan over rows [lo, hi) into the empty
// set a: the filter and every aggregate where-filter evaluate column-wise
// into bitmaps first, then a single pass over the selected bits groups and
// accumulates.
//
//whpcvet:hot
func scanPartition(p *plan, a *accSet, s *partScratch, lo, hi int) {
	n := hi - lo
	words := (n + 63) / 64
	sel, tmp := s.sel[:words], s.tmp[:words]
	filterBits(p.where, lo, hi, sel, tmp)
	for ai, b := range s.aggSel {
		if b != nil {
			filterBits(p.aggs[ai].where, lo, hi, b[:words], tmp)
		}
	}
	tokens := s.tokens
	var denseIdx []uint32
	if s.denseIdx != nil {
		denseIdx = s.denseIdx[:n]
		clear(denseIdx)
		denseIndex(p, a.strides, lo, hi, denseIdx)
	}
	welch := p.compare != nil && p.compare.test == "welch"
	var cmpIdx [2]uint32
	if welch && denseIdx != nil {
		for gi := 0; gi < 2; gi++ {
			cmpIdx[gi] = uint32(a.slot(p.compare.tokens[gi]))
		}
	}
	for w := 0; w < words; w++ {
		word := sel[w]
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			rel := w*64 + bit
			row := lo + rel
			var g *groupAcc
			if denseIdx != nil {
				di := denseIdx[rel]
				g = a.dense[di]
				if g == nil {
					// Group creation is rare (once per group per partition):
					// only here are the key tokens materialized per row.
					for ki := range p.keys {
						tokens[ki] = token(p.keys[ki].col, row)
					}
					//whpcvet:ignore hotalloc group construction happens once per group per partition, not per row; the common path above is a plain slice index
					g = a.newGroup(tokens)
					a.dense[di] = g
				}
			} else {
				for ki := range p.keys {
					tokens[ki] = token(p.keys[ki].col, row)
				}
				g = a.group(tokens)
			}
			accumulate(p.aggs, s.aggSel, g, row, rel)
			if welch && p.compare.col.valid(row) {
				for gi := 0; gi < 2; gi++ {
					match := false
					if denseIdx != nil {
						match = denseIdx[rel] == cmpIdx[gi]
					} else {
						match = slices.Equal(g.tokens, p.compare.tokens[gi])
					}
					if match {
						if p.compare.col.Type == TInt {
							a.cmp[gi].Add(float64(p.compare.col.Ints[row]))
						} else {
							a.cmp[gi].Add(p.compare.col.Floats[row])
						}
					}
				}
			}
		}
	}
}

// scanGrouped scans the frame's fixed-width partitions in index order on
// the caller's goroutine and returns the merged accumulator set. Each
// partition accumulates into one reused partition set, which is merged
// into the global set and reset; merging in partition order fixes the
// float addition tree (see partitionRows). The largest frame of the
// study's corpora is about ten partitions, too few for a worker pool to
// pay for itself (DESIGN §11).
func scanGrouped(p *plan) *accSet {
	n := p.f.NumRows
	global, part := newAccSet(p), newAccSet(p)
	s := newPartScratch(p, part, min(n, partitionRows))
	for lo := 0; lo < n; lo += partitionRows {
		scanPartition(p, part, s, lo, min(lo+partitionRows, n))
		global.merge(part)
		part.reset()
	}
	return global
}

// completeGroups replaces the observed group list with the full cross
// product of the key domains (see domainSize), zero-filling cells for
// unobserved combinations.
func completeGroups(p *plan, a *accSet) []*groupAcc {
	// compile bounded p.cells by MaxCompleteGroups.
	out := make([]*groupAcc, 0, p.cells)
	tokens := make([]uint64, len(p.keys))
	var walk func(ki int)
	walk = func(ki int) {
		if ki == len(p.keys) {
			if g := a.lookup(tokens); g != nil {
				out = append(out, g)
			} else {
				out = append(out, &groupAcc{
					tokens: append([]uint64(nil), tokens...),
					cells:  make([]accCell, len(p.aggs)),
				})
			}
			return
		}
		for t := uint64(1); t <= domainSize(p.keys[ki].col); t++ {
			tokens[ki] = t
			walk(ki + 1)
		}
	}
	walk(0)
	return out
}

// domainSize is the number of group tokens of a completable key column:
// tokens run 1..domainSize, in dictionary order for strings and
// false/true for bools.
func domainSize(c *Column) uint64 {
	if c.Type != TStr {
		return 2
	}
	return uint64(c.Dict.Len())
}

// cellValue renders an accumulator cell as an output value.
func cellValue(op *aggOp, c *accCell) Value {
	switch op.kind {
	case aCount:
		return Value{Kind: TInt, I: c.n}
	case aSum:
		if op.out == TInt {
			return Value{Kind: TInt, I: c.i}
		}
		return Value{Kind: TFloat, F: c.f}
	case aMean:
		if c.n == 0 {
			return Value{Kind: TFloat, Null: true}
		}
		return Value{Kind: TFloat, F: c.f / float64(c.n)}
	case aMin, aMax:
		if !c.set {
			return Value{Kind: op.out, Null: true}
		}
		if op.out == TInt {
			return Value{Kind: TInt, I: c.i}
		}
		return Value{Kind: TFloat, F: c.f}
	case aFirst:
		if !c.set {
			return Value{Kind: op.out, Null: true}
		}
		switch op.out {
		case TInt:
			return Value{Kind: TInt, I: c.i}
		case TFloat:
			return Value{Kind: TFloat, F: c.f}
		case TStr:
			return Value{Kind: TStr, S: op.col.Dict.Value(int32(c.i))}
		default:
			return Value{Kind: TBool, B: c.i != 0}
		}
	case aRatio:
		// The FAR kernel mirrors stats.Proportion.Ratio: 0/0 is NaN, which
		// the CSV encoder renders as "NaN" exactly like the exhibit path.
		pr := stats.Proportion{K: int(c.n), N: int(c.i)}
		return Value{Kind: TFloat, F: pr.Ratio()}
	}
	return Value{Kind: TInt, Null: true}
}

// keyValue renders one key token as an output value.
func keyValue(col *Column, tok uint64) Value {
	if tok == 0 {
		return Value{Kind: col.Type, Null: true}
	}
	switch col.Type {
	case TStr:
		return Value{Kind: TStr, S: col.Dict.Value(int32(tok - 1))}
	case TBool:
		return Value{Kind: TBool, B: tok == 2}
	default:
		// Arithmetic shift inverts intToken exactly, including negatives.
		return Value{Kind: TInt, I: int64(tok) >> 1}
	}
}

// execRow is one grouped output row: key cells then aggregate cells, with
// the raw key tokens retained for appearance-order sorting. Projections
// never build one; they order row indexes instead (see project.go).
type execRow struct {
	vals   []Value
	tokens []uint64
}

// Run executes q against fs. The result is deterministic: identical input
// bytes yield identical output bytes, because the scan merges its
// per-partition state in partition order before any order-sensitive step
// runs.
func Run(fs *FrameSet, q *Query) (*Result, error) {
	p, err := compile(fs, q)
	if err != nil {
		return nil, err
	}
	pt := execPartial(p)
	if !p.grouped {
		return finalizeSelect(p, pt), nil
	}
	return finalizeGrouped(p, pt.acc)
}

// finalizeGrouped renders a merged accumulator set: the empty-result
// rules, optional domain completion, sort, limit, totals, compare.
func finalizeGrouped(p *plan, acc *accSet) (*Result, error) {
	if len(acc.order) == 0 && len(p.keys) > 0 && !p.complete {
		return nil, fmt.Errorf("%w (frame %q)", ErrEmpty, p.f.Name)
	}
	if len(p.keys) == 0 {
		// Global aggregation: guarantee the single output row even when
		// nothing matched.
		acc.group(nil)
	}
	groups := acc.order
	if p.complete {
		groups = completeGroups(p, acc)
	}

	rows := make([]execRow, 0, len(groups))
	for _, g := range groups {
		vals := make([]Value, 0, len(p.keys)+len(p.aggs))
		for ki, k := range p.keys {
			vals = append(vals, keyValue(k.col, g.tokens[ki]))
		}
		for ai := range p.aggs {
			vals = append(vals, cellValue(&p.aggs[ai], &g.cells[ai]))
		}
		rows = append(rows, execRow{vals: vals, tokens: g.tokens})
	}
	sortRows(p, rows)
	if p.limit > 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}

	res := newResult(p)
	for _, r := range rows {
		res.addRow(p, r.vals)
	}
	if p.totals != "" {
		// Every matched row lands in exactly one group, and the merged
		// group order is global first-appearance order — so folding the
		// group cells reproduces a whole-scan accumulation for every
		// aggregate kind, including first.
		tot := groupAcc{cells: make([]accCell, len(p.aggs))}
		for _, g := range acc.order {
			for ai := range p.aggs {
				mergeCell(p.aggs[ai].kind, &tot.cells[ai], &g.cells[ai])
			}
		}
		vals := make([]Value, 0, len(p.keys)+len(p.aggs))
		labeled := false
		for _, k := range p.keys {
			if !k.hide && !labeled {
				vals = append(vals, Value{Kind: TStr, S: p.totals})
				labeled = true
				continue
			}
			vals = append(vals, Value{Kind: k.col.Type, Null: true})
		}
		for ai := range p.aggs {
			vals = append(vals, cellValue(&p.aggs[ai], &tot.cells[ai]))
		}
		res.addRow(p, vals)
	}
	if p.compare != nil {
		cr, err := runCompare(p, acc)
		if err != nil {
			return nil, err
		}
		res.Compare = cr
	}
	return res, nil
}

// runCompare evaluates the two-group test over the merged accumulators.
func runCompare(p *plan, acc *accSet) (*CompareResult, error) {
	cp := p.compare
	cr := &CompareResult{Test: cp.test, Groups: cp.labels}
	for gi := 0; gi < 2; gi++ {
		if cp.missing[gi] || acc.lookup(cp.tokens[gi]) == nil {
			return nil, fmt.Errorf("%w: compare group %v not found in result", ErrEmpty, cp.rawSpecs[gi])
		}
	}
	switch cp.test {
	case "welch":
		t, err := stats.WelchTTestFromMoments(acc.cmp[0], acc.cmp[1])
		if err != nil {
			// Too few observations is a property of the data slice, not of
			// the query shape: surface it as the empty-result condition.
			return nil, fmt.Errorf("%w: %v", ErrEmpty, err)
		}
		cr.N = [2]int{acc.cmp[0].N, acc.cmp[1].N}
		cr.Stat, cr.DF, cr.P, cr.Method = t.T, t.DF, t.P, "welch-t"
	case "chisq":
		g0 := acc.lookup(cp.tokens[0])
		g1 := acc.lookup(cp.tokens[1])
		k0, n0 := int(g0.cells[cp.numIdx].n), int(g0.cells[cp.denIdx].n)
		k1, n1 := int(g1.cells[cp.numIdx].n), int(g1.cells[cp.denIdx].n)
		chi, err := stats.TwoProportionChiSq(k0, n0, k1, n1)
		if err != nil {
			// K > N means the num count is not a subset of the den count —
			// a query-shape mistake.
			return nil, invalidf("compare: %v", err)
		}
		cr.N = [2]int{n0, n1}
		cr.Stat, cr.DF, cr.P, cr.Method = chi.ChiSq, chi.DF, chi.P, "chi-squared"
	}
	return cr, nil
}

// sortRows stable-sorts grouped rows per the plan's order_by; with no
// order_by the merged first-appearance order stands.
func sortRows(p *plan, rows []execRow) {
	if len(p.orderBy) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, o := range p.orderBy {
			var c int
			if o.appearance {
				c = cmp.Compare(rows[i].tokens[o.slot], rows[j].tokens[o.slot])
			} else {
				c = cmpValue(rows[i].vals[o.slot], rows[j].vals[o.slot])
			}
			if c == 0 {
				continue
			}
			if o.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// cmpValue orders two cells of the same kind: nulls first, NaN before any
// number (cmp.Compare's float order), otherwise natural order.
func cmpValue(a, b Value) int {
	if a.Null || b.Null {
		if a.Null && b.Null {
			return 0
		}
		if a.Null {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case TInt:
		return cmp.Compare(a.I, b.I)
	case TFloat:
		return cmp.Compare(a.F, b.F)
	case TStr:
		return cmp.Compare(a.S, b.S)
	default:
		if a.B == b.B {
			return 0
		}
		if !a.B {
			return -1
		}
		return 1
	}
}
