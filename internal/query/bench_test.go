package query

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/perffloor"
)

// farQuery is the far_per_conference exhibit query verbatim: filter to
// author slots, group by conference, count women/known/unknown, take the
// ratio, and append the overall totals row.
func farQuery() *Query {
	return &Query{
		Frame:   FrameSlots,
		Where:   []Pred{{Col: "role", Op: "eq", Value: "author"}},
		GroupBy: []Key{{Col: "conference"}},
		Aggs: []Agg{
			{Op: "count", As: "women", Where: []Pred{{Col: "female", Op: "eq", Value: true}}},
			{Op: "count", As: "known", Where: []Pred{{Col: "known", Op: "eq", Value: true}}},
			{Op: "ratio", Num: "female", Den: "known", As: "far"},
			{Op: "count", As: "unknown", Where: []Pred{{Col: "known", Op: "eq", Value: false}}},
		},
		Totals:   "ALL",
		Complete: true,
	}
}

// BenchmarkQueryFAR measures the columnar FAR-by-conference slice.
func BenchmarkQueryFAR(b *testing.B) {
	q := farQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(testFrames, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveFAR is the row-at-a-time baseline the columnar path must
// beat: the fixed exhibit code's own shape (core.AuthorFAR) — materialize
// the author-slot list overall and per conference, then resolve each slot
// against the person table. The unique-author census AuthorFAR also runs
// is left out, in the baseline's favor.
func BenchmarkNaiveFAR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		type confFAR struct {
			name                  string
			women, known, unknown int
		}
		all := testData.CountGenders(testData.AuthorSlots())
		rows := make([]confFAR, 0, len(testData.Conferences))
		for _, c := range testData.Conferences {
			gc := testData.CountGenders(testData.AuthorSlots(c.ID))
			rows = append(rows, confFAR{c.Name, gc.Women, gc.Women + gc.Men, gc.Unknown})
		}
		if len(rows) == 0 || all.Women+all.Men == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkQueryGroupBy measures a two-key columnar group-by over every
// slot row (conference x role, count + citation sum).
func BenchmarkQueryGroupBy(b *testing.B) {
	q := &Query{
		Frame:   FrameSlots,
		GroupBy: []Key{{Col: "conference"}, {Col: "role"}},
		Aggs: []Agg{
			{Op: "count", As: "n"},
			{Op: "count", As: "women", Where: []Pred{{Col: "female", Op: "eq", Value: true}}},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(testFrames, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveGroupBy is the equivalent row-loop: re-walk the role
// graph, concatenate string keys, and tally into a map — the idiomatic
// quick-and-dirty cut the query engine replaces.
func BenchmarkNaiveGroupBy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		type cell struct{ n, women int }
		cells := make(map[string]*cell)
		tally := func(name string, role dataset.Role, id dataset.PersonID) {
			key := name + "|" + role.String()
			cc := cells[key]
			if cc == nil {
				cc = &cell{}
				cells[key] = cc
			}
			cc.n++
			if p, ok := testData.Person(id); ok && p.Gender == gender.Female {
				cc.women++
			}
		}
		for _, r := range dataset.Roles() {
			for _, c := range testData.Conferences {
				if r == dataset.RoleAuthor {
					for _, p := range testData.PapersOf(c.ID) {
						for _, id := range p.Authors {
							tally(c.Name, r, id)
						}
					}
					continue
				}
				for _, id := range c.RoleHolders(r) {
					tally(c.Name, r, id)
				}
			}
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// Work budgets of one run of the columnar benchmarks, checked by the
// floors below beside their timing bounds; unlike the timing ratios they
// do not depend on what else shares the CPUs. A grouped scan runs on the
// caller's goroutine and reuses one partition's accumulator set and
// scratch, so the counts do not depend on GOMAXPROCS. Measured on
// linux/amd64 with Go 1.24 at -cpu 1,2 as 395 allocations and 45.7 KB per
// group-by and 129 and 16.3 KB per FAR query, and at -cpu 1,2,4 as at most
// 27 and 22.1 KB per projection; the budgets leave about 5% headroom.
const (
	groupByAllocs    = 415
	groupByBytes     = 48_000
	farAllocs        = 136
	farBytes         = 17_100
	projectionAllocs = 29
	projectionBytes  = 23_300
)

// checkWork fails t if the median round res of the named benchmark
// allocated more often or more bytes per op than its budgets.
func checkWork(t *testing.T, name string, res testing.BenchmarkResult, maxAllocs, maxBytes int64) {
	t.Helper()
	if n := res.AllocsPerOp(); n > maxAllocs {
		t.Errorf("%s allocates %d times per op, budget %d", name, n, maxAllocs)
	}
	if n := res.AllocedBytesPerOp(); n > maxBytes {
		t.Errorf("%s allocates %d B per op, budget %d B", name, n, maxBytes)
	}
}

// TestColumnarBeatsNaive is the acceptance gate behind the benchmarks: the
// columnar group-by must be at least 2x faster than the naive row loop,
// and the columnar FAR query no slower than its naive cut, in the medians
// of alternating rounds (perffloor.MedianResults); the median columnar
// rounds must also stay within their work budgets. It runs the benchmark
// bodies so `go test` enforces the perf floor without a -bench run.
func TestColumnarBeatsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("perf floor skipped in -short")
	}
	if perffloor.RaceEnabled {
		t.Skip("perf floor not meaningful under the race detector's instrumentation")
	}
	colRes, naiveRes := perffloor.MedianResults(t, BenchmarkQueryGroupBy, BenchmarkNaiveGroupBy)
	col, naive := float64(colRes.NsPerOp()), float64(naiveRes.NsPerOp())
	t.Logf("columnar %.0f ns/op, %d allocs, %d B; naive %.0f ns/op (%.1fx)",
		col, colRes.AllocsPerOp(), colRes.AllocedBytesPerOp(), naive, naive/col)
	if col*2 > naive {
		t.Errorf("columnar group-by %.0f ns/op not 2x faster than naive %.0f ns/op", col, naive)
	}
	checkWork(t, "columnar group-by", colRes, groupByAllocs, groupByBytes)
	farRes, naiveFARRes := perffloor.MedianResults(t, BenchmarkQueryFAR, BenchmarkNaiveFAR)
	colFAR, naiveFAR := float64(farRes.NsPerOp()), float64(naiveFARRes.NsPerOp())
	t.Logf("FAR: columnar %.0f ns/op, %d allocs, %d B; naive %.0f ns/op (%.1fx)",
		colFAR, farRes.AllocsPerOp(), farRes.AllocedBytesPerOp(), naiveFAR, naiveFAR/colFAR)
	if colFAR > naiveFAR {
		t.Errorf("columnar FAR %.0f ns/op slower than naive %.0f ns/op", colFAR, naiveFAR)
	}
	checkWork(t, "columnar FAR", farRes, farAllocs, farBytes)
}

// projectionQuery is an ordered, limited projection over slots: the most
// cited author slots (the citation-imbalance slice), ties by person.
func projectionQuery() *Query {
	return &Query{
		Frame:   FrameSlots,
		Where:   []Pred{{Col: "role", Op: "eq", Value: "author"}},
		Select:  []Key{{Col: "person"}, {Col: "conference"}, {Col: "gender"}, {Col: "citations36"}},
		OrderBy: []Order{{Key: "citations36", Desc: true}, {Key: "person"}},
		Limit:   50,
	}
}

// BenchmarkQueryProjection measures the late-materialized projection:
// bitmap filter to row indexes, top-k refs, Values for the emitted rows.
func BenchmarkQueryProjection(b *testing.B) {
	q := projectionQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(testFrames, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveProjection is the reference the projection path must
// beat: filter row by row, materialize every matching row, stable-sort,
// truncate.
func BenchmarkNaiveProjection(b *testing.B) {
	q := projectionQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := naiveProject(testFrames, q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProjectionBeatsNaive is the perf floor for projections: the
// late-materialized path must be at least 2x faster than the naive
// materialize-then-sort reference, in the medians of alternating rounds
// (perffloor.MedianResults), and its median round must stay within its
// work budgets.
func TestProjectionBeatsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("perf floor skipped in -short")
	}
	if perffloor.RaceEnabled {
		t.Skip("perf floor not meaningful under the race detector's instrumentation")
	}
	projRes, naiveRes := perffloor.MedianResults(t, BenchmarkQueryProjection, BenchmarkNaiveProjection)
	proj, naive := float64(projRes.NsPerOp()), float64(naiveRes.NsPerOp())
	t.Logf("projection %.0f ns/op, %d allocs, %d B; naive %.0f ns/op (%.1fx)",
		proj, projRes.AllocsPerOp(), projRes.AllocedBytesPerOp(), naive, naive/proj)
	if proj*2 > naive {
		t.Errorf("projection %.0f ns/op not 2x faster than naive %.0f ns/op", proj, naive)
	}
	checkWork(t, "projection", projRes, projectionAllocs, projectionBytes)
}
