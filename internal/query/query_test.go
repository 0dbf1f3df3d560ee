package query

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

// testFrames builds the frame set for the default 2017 corpus once.
var testFrames, testData = func() (*FrameSet, *dataset.Dataset) {
	corpus, err := synth.Generate(synth.Default2017(2021))
	if err != nil {
		panic(err)
	}
	return NewFrameSet(corpus.Data), corpus.Data
}()

func mustRun(t *testing.T, q *Query) *Result {
	t.Helper()
	res, err := Run(testFrames, q)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	return res
}

func TestFrameShapes(t *testing.T) {
	slots, ok := testFrames.Frame(FrameSlots)
	if !ok {
		t.Fatal("no slots frame")
	}
	if slots.NumRows != len(testData.AuthorSlots())+nonAuthorRoster(testData) {
		t.Errorf("slots rows = %d, want author slots + rosters", slots.NumRows)
	}
	people, _ := testFrames.Frame(FramePeople)
	members, _ := testFrames.Frame(FrameMembers)
	papers, _ := testFrames.Frame(FramePapers)
	wantMembers := len(testData.UniqueAuthors()) + len(testData.UniqueRoleHolders(dataset.RolePCMember))
	if members.NumRows != wantMembers {
		t.Errorf("members rows = %d, want %d", members.NumRows, wantMembers)
	}
	if papers.NumRows != len(testData.Papers) {
		t.Errorf("papers rows = %d, want %d", papers.NumRows, len(testData.Papers))
	}
	// People covers holders of any role — at least the §5 authors+PC
	// union, at most the person table.
	if people.NumRows < len(testData.UniqueAuthorsAndPC()) || people.NumRows > len(testData.Persons) {
		t.Errorf("people rows = %d outside [%d, %d]",
			people.NumRows, len(testData.UniqueAuthorsAndPC()), len(testData.Persons))
	}
	for _, name := range testFrames.Names() {
		if len(testFrames.Schema(name)) == 0 {
			t.Errorf("frame %q has empty schema", name)
		}
	}
}

func nonAuthorRoster(d *dataset.Dataset) int {
	n := 0
	for _, r := range dataset.Roles() {
		if r == dataset.RoleAuthor {
			continue
		}
		n += len(d.RoleSlots(r))
	}
	return n
}

func TestGlobalAggregateCountsFrame(t *testing.T) {
	res := mustRun(t, &Query{
		Frame: FrameSlots,
		Aggs:  []Agg{{Op: "count", As: "n"}},
	})
	slots, _ := testFrames.Frame(FrameSlots)
	if len(res.Rows) != 1 || res.Rows[0][0].I != int64(slots.NumRows) {
		t.Errorf("global count = %v, want one row with %d", res.Rows, slots.NumRows)
	}
}

func TestSelectProjectionWithOrderAndLimit(t *testing.T) {
	res := mustRun(t, &Query{
		Frame:   FramePapers,
		Select:  []Key{{Col: "paper"}, {Col: "citations36", As: "c36"}},
		OrderBy: []Order{{Key: "c36", Desc: true}, {Key: "paper"}},
		Limit:   5,
	})
	if len(res.Rows) != 5 {
		t.Fatalf("limit ignored: %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].I > res.Rows[i-1][1].I {
			t.Errorf("rows not sorted desc by citations: %v then %v", res.Rows[i-1], res.Rows[i])
		}
	}
	if res.Columns[1] != "c36" {
		t.Errorf("rename lost: columns %v", res.Columns)
	}
}

func TestHiddenKeyGroupsWithoutSurfacing(t *testing.T) {
	res := mustRun(t, &Query{
		Frame:   FrameSlots,
		Where:   []Pred{{Col: "role", Op: "eq", Value: "author"}},
		GroupBy: []Key{{Col: "conference"}, {Col: "conf", Hide: true}},
		Aggs:    []Agg{{Op: "count", As: "n"}},
	})
	if len(res.Columns) != 2 || res.Columns[0] != "conference" || res.Columns[1] != "n" {
		t.Errorf("hidden key leaked into output: %v", res.Columns)
	}
}

func TestInAndRangePredicates(t *testing.T) {
	res := mustRun(t, &Query{
		Frame: FramePapers,
		Where: []Pred{
			{Col: "citations36", Op: "ge", Value: float64(10)},
			{Col: "lead_gender", Op: "in", Values: []any{"female", "male"}},
		},
		Aggs: []Agg{{Op: "count", As: "n"}, {Op: "min", Col: "citations36", As: "lo"}},
	})
	if res.Rows[0][0].I == 0 {
		t.Fatal("predicate matched nothing on the default corpus")
	}
	if res.Rows[0][1].I < 10 {
		t.Errorf("min citations %d below ge-10 filter", res.Rows[0][1].I)
	}
}

func TestEmptyGroupedResultIsErrEmpty(t *testing.T) {
	_, err := Run(testFrames, &Query{
		Frame:   FrameSlots,
		Where:   []Pred{{Col: "conference", Op: "eq", Value: "no-such-conference"}},
		GroupBy: []Key{{Col: "role"}},
		Aggs:    []Agg{{Op: "count", As: "n"}},
	})
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		q    *Query
		want string
	}{
		{"unknown frame", &Query{Frame: "nope", Select: []Key{{Col: "x"}}}, "unknown frame"},
		{"unknown column", &Query{Frame: FrameSlots, Select: []Key{{Col: "no_such_col"}}}, "unknown column"},
		{"unknown op", &Query{Frame: FrameSlots, Where: []Pred{{Col: "role", Op: "matches", Value: "x"}},
			Select: []Key{{Col: "role"}}}, "unknown operator"},
		{"unknown agg", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "median", Col: "year", As: "m"}}}, "unknown aggregate"},
		{"float eq", &Query{Frame: FrameSlots, Where: []Pred{{Col: "attendance", Op: "eq", Value: 0.2}},
			Select: []Key{{Col: "role"}}}, "not supported on float"},
		{"float group key", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "attendance"}},
			Aggs: []Agg{{Op: "count", As: "n"}}}, "cannot group by float"},
		{"agg without name", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "count"}}}, "output name"},
		{"duplicate output", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "count", As: "role"}}}, "duplicate output"},
		{"select and group", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "count", As: "n"}}, Select: []Key{{Col: "role"}}}, "mutually exclusive"},
		{"selects nothing", &Query{Frame: FrameSlots}, "selects nothing"},
		{"group without aggs", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}}}, "without aggregates"},
		{"negative limit", &Query{Frame: FrameSlots, Select: []Key{{Col: "role"}}, Limit: -1}, "negative limit"},
		{"bad format", &Query{Frame: FrameSlots, Select: []Key{{Col: "role"}}, Format: "xml"}, "unknown format"},
		{"totals ungrouped", &Query{Frame: FrameSlots, Select: []Key{{Col: "role"}}, Totals: "ALL"}, "totals needs"},
		{"complete int key", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "year"}},
			Aggs: []Agg{{Op: "count", As: "n"}}, Complete: true}, "cannot complete over int"},
		{"unknown sort key", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "count", As: "n"}}, OrderBy: []Order{{Key: "ghost"}}}, "unknown sort key"},
		{"appearance on agg", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "count", As: "n"}}, OrderBy: []Order{{Key: "n", Appearance: true}}}, "appearance order"},
		{"ratio non-bool", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "ratio", Num: "year", Den: "known", As: "r"}}}, "bool flag columns"},
		{"mean on string", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs: []Agg{{Op: "mean", Col: "person", As: "m"}}}, "numeric column"},
		{"nested any", &Query{Frame: FrameSlots,
			Where:  []Pred{{Any: []Pred{{Any: []Pred{{Col: "role", Op: "eq", Value: "author"}}}}}},
			Select: []Key{{Col: "role"}}}, "do not nest"},
		{"compare bad test", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs:    []Agg{{Op: "count", As: "n"}},
			Compare: &Compare{Test: "anova", Groups: [][]any{{"author"}, {"PC member"}}}}, "unknown test"},
		{"compare group arity", &Query{Frame: FrameSlots, GroupBy: []Key{{Col: "role"}},
			Aggs:    []Agg{{Op: "count", As: "n"}},
			Compare: &Compare{Test: "welch", Col: "citations36", Groups: [][]any{{"author", "extra"}, {"PC member"}}}}, "group keys"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(testFrames, tc.q)
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseStrictness(t *testing.T) {
	if _, err := Parse([]byte(`{"frame": "slots", "aggz": []}`)); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown field accepted: %v", err)
	}
	if _, err := Parse([]byte(`{"frame": "slots"} {"frame": "papers"}`)); !errors.Is(err, ErrInvalid) {
		t.Errorf("trailing document accepted: %v", err)
	}
	if _, err := Parse([]byte(`{]`)); !errors.Is(err, ErrInvalid) {
		t.Errorf("malformed JSON accepted: %v", err)
	}
	q, err := Parse([]byte(`{"frame":"slots","group_by":["role"],"aggs":[{"op":"count","as":"n"}]}`))
	if err != nil {
		t.Fatalf("bare-string key rejected: %v", err)
	}
	if q.GroupBy[0].Col != "role" {
		t.Errorf("bare-string key parsed as %+v", q.GroupBy[0])
	}
}

func TestCanonicalizationIgnoresSpelling(t *testing.T) {
	a, err := Parse([]byte(`{"frame":"slots","group_by":["role"],"aggs":[{"op":"count","as":"n"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{
		"aggs": [ {"as": "n", "op": "count"} ],
		"group_by": [ {"col": "role"} ],
		"frame": "slots"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("equivalent specs hash differently:\n%s\n%s", a.Canonical(), b.Canonical())
	}
}

func TestWelchCompareMatchesStats(t *testing.T) {
	// Lead-author citations, women vs men — computed directly from the
	// papers frame and through the compare kernel.
	res := mustRun(t, &Query{
		Frame:   FramePapers,
		Where:   []Pred{{Col: "lead_known", Op: "eq", Value: true}},
		GroupBy: []Key{{Col: "lead_gender"}},
		Aggs:    []Agg{{Op: "count", As: "n"}},
		Compare: &Compare{Test: "welch", Col: "citations36", Groups: [][]any{{"female"}, {"male"}}},
	})
	if res.Compare == nil {
		t.Fatal("no compare result")
	}
	// The engine accumulates Welch sufficient statistics per 1024-row
	// partition and merges the partials in partition order; replaying that
	// exact addition tree over the raw dataset reproduces its result to
	// the last bit. The papers frame is built by walking testData.Papers
	// in order, so paper index == frame row index.
	var women, men []float64
	var womenM, menM, womenPart, menPart stats.Moments
	for i, p := range testData.Papers {
		if i > 0 && i%partitionRows == 0 {
			womenM.Merge(womenPart)
			menM.Merge(menPart)
			womenPart, menPart = stats.Moments{}, stats.Moments{}
		}
		lead, ok := testData.Person(p.Lead())
		if !ok {
			continue
		}
		switch lead.Gender.String() {
		case "female":
			women = append(women, float64(p.Citations36))
			womenPart.Add(float64(p.Citations36))
		case "male":
			men = append(men, float64(p.Citations36))
			menPart.Add(float64(p.Citations36))
		}
	}
	womenM.Merge(womenPart)
	menM.Merge(menPart)
	want, err := stats.WelchTTestFromMoments(womenM, menM)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compare.N != [2]int{len(women), len(men)} {
		t.Errorf("sample sizes %v, want %d/%d", res.Compare.N, len(women), len(men))
	}
	if res.Compare.Stat != want.T || res.Compare.DF != want.DF || res.Compare.P != want.P {
		t.Errorf("welch = (%v, %v, %v), want (%v, %v, %v)",
			res.Compare.Stat, res.Compare.DF, res.Compare.P, want.T, want.DF, want.P)
	}
	// The moment form must also agree with the classical slice form to
	// statistical precision — same test, different summation tree.
	classic, err := stats.WelchTTest(women, men)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(res.Compare.Stat, classic.T) || !stats.AlmostEqual(res.Compare.DF, classic.DF) || !stats.AlmostEqual(res.Compare.P, classic.P) {
		t.Errorf("moment welch (%v, %v, %v) diverged from pooled-sample welch (%v, %v, %v)",
			res.Compare.Stat, res.Compare.DF, res.Compare.P, classic.T, classic.DF, classic.P)
	}
}

func TestChiSqCompareMatchesStats(t *testing.T) {
	// Women/known between author and PC-member slots — the §3.2 contrast.
	res := mustRun(t, &Query{
		Frame:   FrameSlots,
		GroupBy: []Key{{Col: "role"}},
		Aggs: []Agg{
			{Op: "count", As: "women", Where: []Pred{{Col: "female", Op: "eq", Value: true}}},
			{Op: "count", As: "known", Where: []Pred{{Col: "known", Op: "eq", Value: true}}},
		},
		Compare: &Compare{Test: "chisq", Num: "women", Den: "known",
			Groups: [][]any{{"PC member"}, {"author"}}},
	})
	pc := testData.CountGenders(testData.RoleSlots(dataset.RolePCMember))
	au := testData.CountGenders(testData.AuthorSlots())
	want, err := stats.TwoProportionChiSq(pc.Women, pc.Known(), au.Women, au.Known())
	if err != nil {
		t.Fatal(err)
	}
	if res.Compare.Stat != want.ChiSq || res.Compare.P != want.P {
		t.Errorf("chisq = (%v, %v), want (%v, %v)", res.Compare.Stat, res.Compare.P, want.ChiSq, want.P)
	}
}

func TestCompareMissingGroupIsErrEmpty(t *testing.T) {
	_, err := Run(testFrames, &Query{
		Frame:   FrameSlots,
		GroupBy: []Key{{Col: "role"}},
		Aggs:    []Agg{{Op: "count", As: "n"}},
		Compare: &Compare{Test: "welch", Col: "citations36", Groups: [][]any{{"author"}, {"no-such-role"}}},
	})
	if !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestSparseGroupByDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Grouping by person exceeds the dense-domain limit together with the
	// conference key, exercising the byte-encoded sparse path.
	q := &Query{
		Frame:   FrameSlots,
		GroupBy: []Key{{Col: "person"}, {Col: "conference"}},
		Aggs:    []Agg{{Op: "count", As: "n"}, {Op: "sum", Col: "citations36", As: "c"}},
		OrderBy: []Order{{Key: "n", Desc: true}, {Key: "person"}, {Key: "conference"}},
		Limit:   50,
	}
	run := func() []byte {
		res, err := Run(testFrames, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.CSV()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(serial, parallel) {
		t.Error("sparse group-by differs between GOMAXPROCS=1 and 8")
	}
}

func TestMeanMinMaxSumAgree(t *testing.T) {
	res := mustRun(t, &Query{
		Frame: FramePapers,
		Aggs: []Agg{
			{Op: "count", As: "n"},
			{Op: "sum", Col: "citations36", As: "sum"},
			{Op: "mean", Col: "citations36", As: "mean"},
			{Op: "min", Col: "citations36", As: "min"},
			{Op: "max", Col: "citations36", As: "max"},
		},
	})
	row := res.Rows[0]
	n, sum, mean := row[0].I, row[1].I, row[2].F
	if n == 0 {
		t.Fatal("empty papers frame")
	}
	if want := float64(sum) / float64(n); math.Abs(mean-want) > 1e-12 {
		t.Errorf("mean %v != sum/n %v", mean, want)
	}
	if row[3].I > row[4].I {
		t.Errorf("min %d > max %d", row[3].I, row[4].I)
	}
}

func TestJSONEncodingHandlesNaN(t *testing.T) {
	// A completed group with no rows yields a 0/0 ratio (NaN): CSV renders
	// "NaN", JSON renders null — both deterministic.
	res := mustRun(t, &Query{
		Frame:    FrameMembers,
		Where:    []Pred{{Col: "sector", Op: "notnull"}, {Col: "role", Op: "eq", Value: "author"}},
		GroupBy:  []Key{{Col: "role"}, {Col: "sector"}},
		Aggs:     []Agg{{Op: "ratio", Num: "female", Den: "known", As: "r"}},
		Complete: true,
	})
	js, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON encoding failed on NaN cells: %v", err)
	}
	if !bytes.Contains(js, []byte("null")) {
		t.Errorf("expected null cells for empty PC-member groups: %s", js)
	}
	csvB, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csvB, []byte("NaN")) {
		t.Errorf("expected NaN cells in CSV: %s", csvB)
	}
}

// TestFloatCellOrderMatchesCmpValue: the projection comparator orders
// float cells exactly as cmpValue orders their Values — null first, then
// every NaN, then numbers ascending, with -0 == +0.
func TestFloatCellOrderMatchesCmpValue(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), -1.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-300, 2, math.MaxFloat64, math.Inf(1)}
	schema := []colDef{floatCol("f")}
	f := emptyFrame("f", schema)
	w := newFrameWriter(f, schema, nil)
	w.addNull()
	w.endRow()
	for _, v := range vals {
		w.addFloat(v)
		w.endRow()
	}
	w.close()
	col := f.cols[0]
	for i := 0; i <= len(vals); i++ {
		for j := 0; j <= len(vals); j++ {
			want := cmpValue(columnValue(col, i), columnValue(col, j))
			if got := cmpCell(col, i, j, false); got != want {
				t.Errorf("cmpCell(%v, %v) = %d, want %d", columnValue(col, i), columnValue(col, j), got, want)
			}
		}
	}
}
