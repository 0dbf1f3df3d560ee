package query

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// matchFilter is the row-at-a-time filter evaluation the columnar kernels
// replace: every leaf through leaf.match, one row at a time.
func matchFilter(filter []orGroup, row int) bool {
	for gi := range filter {
		ok := false
		for li := range filter[gi] {
			if filter[gi][li].match(row) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// naiveProject is the reference projection: evaluate the filter row by
// row, materialize every matching row's cells, stable-sort them with
// cmpValue (dictionary codes for appearance keys), then truncate.
func naiveProject(fs *FrameSet, q *Query) ([][]Value, error) {
	p, err := compile(fs, q)
	if err != nil {
		return nil, err
	}
	type row struct {
		vals  []Value
		codes []int32
	}
	var rows []row
	for i := 0; i < p.f.NumRows; i++ {
		if !matchFilter(p.where, i) {
			continue
		}
		r := row{vals: make([]Value, len(p.selects)), codes: make([]int32, len(p.selects))}
		for si, s := range p.selects {
			r.vals[si] = columnValue(s.col, i)
			if s.col.Type == TStr {
				r.codes[si] = s.col.Codes[i]
			}
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, o := range p.orderBy {
			var c int
			if o.appearance {
				a, b := rows[i].vals[o.slot], rows[j].vals[o.slot]
				switch {
				case a.Null || b.Null:
					c = cmpValue(a, b)
				case rows[i].codes[o.slot] < rows[j].codes[o.slot]:
					c = -1
				case rows[i].codes[o.slot] > rows[j].codes[o.slot]:
					c = 1
				}
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
	if p.limit > 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	out := make([][]Value, len(rows))
	for i, r := range rows {
		out[i] = r.vals
	}
	return out, nil
}

// sameCell compares two cells exactly, floats by bit pattern so NaN
// matches NaN and -0 differs from +0.
func sameCell(a, b Value) bool {
	return a.Kind == b.Kind && a.Null == b.Null && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func diffRows(got, want [][]Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCell(got[i][j], want[i][j]) {
				return fmt.Sprintf("row %d cell %d: %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// mixedFrames builds a frame "mixed" of every column type, three and a
// bit partitions long, with nulls in every column, NaN, ±Inf and -0 among
// the floats, int extremes, a dictionary seeded out of alphabetical order
// (so appearance and value order disagree) and a low-cardinality column
// for tie-heavy orders.
func mixedFrames() *FrameSet {
	const n = 3*partitionRows + 77
	rng := rand.New(rand.NewPCG(14, 2021))
	words := []string{"pear", "apple", "fig", "", "Zebra", "apple pie", "é", "<b>"}
	schema := []colDef{
		intCol("i"), floatCol("f"), strCol("s", fixed("pear", "fig", "apple")),
		boolCol("b"), strCol("tie", fixed("x", "y")),
	}
	f := emptyFrame("mixed", schema)
	w := newFrameWriter(f, schema, nil)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-7, 5e-324}
	for i := 0; i < n; i++ {
		switch r := rng.IntN(20); {
		case r == 0:
			w.addNull()
		case r == 1:
			w.addInt(math.MinInt64)
		case r == 2:
			w.addInt(math.MaxInt64)
		default:
			w.addInt(int64(rng.IntN(200)) - 100)
		}
		switch r := rng.IntN(10); {
		case r == 0:
			w.addNull()
		case r < 3:
			w.addFloat(specials[rng.IntN(len(specials))])
		default:
			w.addFloat(float64(rng.IntN(1000))/8 - 40)
		}
		if rng.IntN(12) == 0 {
			w.addNull()
		} else {
			w.addStr(words[rng.IntN(len(words))])
		}
		if rng.IntN(9) == 0 {
			w.addNull()
		} else {
			w.addBool(rng.IntN(2) == 0)
		}
		if rng.IntN(50) == 0 {
			w.addNull()
		} else {
			w.addStr([]string{"x", "y"}[rng.IntN(2)])
		}
		w.endRow()
	}
	w.close()
	return AssembleFrameSet([]*Frame{f})
}

// TestProjectionMatchesNaiveReference holds Run's late-materialized
// projections to the materialize-everything, stable-sort, truncate
// reference over every column type, filter shape, multi-key and
// tie-heavy order, and every limit around the match count.
func TestProjectionMatchesNaiveReference(t *testing.T) {
	mixed := mixedFrames()
	all := []Key{{Col: "i"}, {Col: "f"}, {Col: "s"}, {Col: "b"}, {Col: "tie"}}
	cases := []struct {
		name string
		fs   *FrameSet
		q    Query
	}{
		{"int asc", mixed, Query{Frame: "mixed", Select: all, OrderBy: []Order{{Key: "i"}}}},
		{"int desc", mixed, Query{Frame: "mixed", Select: all, OrderBy: []Order{{Key: "i", Desc: true}}}},
		{"float asc", mixed, Query{Frame: "mixed", Select: all, OrderBy: []Order{{Key: "f"}}}},
		{"float desc", mixed, Query{Frame: "mixed", Select: all, OrderBy: []Order{{Key: "f", Desc: true}}}},
		{"string by value", mixed, Query{Frame: "mixed", Select: all, OrderBy: []Order{{Key: "s"}}}},
		{"string by appearance desc", mixed, Query{Frame: "mixed", Select: all,
			OrderBy: []Order{{Key: "s", Appearance: true, Desc: true}}}},
		{"bool", mixed, Query{Frame: "mixed", Select: all, OrderBy: []Order{{Key: "b"}}}},
		{"multi-key", mixed, Query{Frame: "mixed", Select: all,
			OrderBy: []Order{{Key: "tie", Appearance: true}, {Key: "b", Desc: true}, {Key: "f"}}}},
		{"tie-heavy", mixed, Query{Frame: "mixed", Select: all, OrderBy: []Order{{Key: "tie"}}}},
		{"no order", mixed, Query{Frame: "mixed", Select: all}},
		{"filtered ranges", mixed, Query{Frame: "mixed", Select: all,
			Where: []Pred{
				{Col: "i", Op: "ge", Value: float64(-50)},
				{Col: "i", Op: "lt", Value: float64(50)},
				{Col: "f", Op: "lt", Value: float64(60)},
				{Col: "f", Op: "gt", Value: float64(-20)},
				{Col: "s", Op: "ne", Value: "fig"},
			},
			OrderBy: []Order{{Key: "f", Desc: true}}}},
		{"filtered any", mixed, Query{Frame: "mixed", Select: all,
			Where: []Pred{
				{Any: []Pred{
					{Col: "s", Op: "in", Values: []any{"apple", "é", "absent"}},
					{Col: "i", Op: "in", Values: []any{float64(7), float64(-3)}},
					{Col: "b", Op: "null"},
				}},
				{Col: "f", Op: "notnull"},
				{Col: "tie", Op: "ne", Value: "absent"},
			},
			OrderBy: []Order{{Key: "s"}, {Key: "i", Desc: true}}}},
		{"filtered int ops", mixed, Query{Frame: "mixed", Select: all,
			Where: []Pred{
				{Any: []Pred{
					{Col: "i", Op: "eq", Value: float64(3)},
					{Col: "i", Op: "le", Value: float64(-90)},
					{Col: "i", Op: "gt", Value: float64(90)},
				}},
				{Col: "i", Op: "ne", Value: float64(-95)},
				{Col: "f", Op: "le", Value: float64(0)},
				{Col: "f", Op: "ge", Value: float64(-30)},
				{Col: "b", Op: "eq", Value: true},
			},
			OrderBy: []Order{{Key: "i"}}}},
		{"papers by citations", testFrames, Query{Frame: FramePapers,
			Select:  []Key{{Col: "paper"}, {Col: "conference"}, {Col: "citations36"}, {Col: "lead_gender"}},
			OrderBy: []Order{{Key: "citations36", Desc: true}}}},
		{"slots by gender", testFrames, Query{Frame: FrameSlots,
			Select:  []Key{{Col: "gender"}, {Col: "person"}, {Col: "attendance"}},
			Where:   []Pred{{Col: "role", Op: "in", Values: []any{"author", "PC member"}}},
			OrderBy: []Order{{Key: "gender"}}}},
	}
	for _, tc := range cases {
		full, err := naiveProject(tc.fs, &tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		k := len(full)
		if k < 2 {
			t.Fatalf("%s: only %d rows match; the case tests nothing", tc.name, k)
		}
		// Mid-range limits make the top-k heap replace its root many times.
		for _, limit := range []int{0, 1, 3, 37, k / 2, k - 1, k, k + 1, 10 * k} {
			q := tc.q
			q.Limit = limit
			want, err := naiveProject(tc.fs, &q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(tc.fs, &q)
			if err != nil {
				t.Fatalf("%s limit %d: %v", tc.name, limit, err)
			}
			if d := diffRows(res.Rows, want); d != "" {
				t.Errorf("%s limit %d (of %d matches): %s", tc.name, limit, k, d)
			}
		}
	}
}
