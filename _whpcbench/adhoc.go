package main

import (
	"math/rand/v2"

	"repro"
	"repro/internal/query"
)

// col is a column the adhoc_query generator may group on. dom bounds the
// column's dictionary size over every corpus; 0 marks a column that
// "complete" cannot expand (ints, and country with ~50 values).
type col struct {
	name string
	dom  int
}

// frameCat is what the generator knows about one frame. It names no
// person or paper column as a group key, so no spec builds a per-person
// group map, and it picks only filters that keep rows in every corpus.
// Projections leave out float columns: at this commit a select of a float
// column panics in the engine (query.token reads Ints of a float column),
// which whpcd answers with a 500; see README.md.
type frameCat struct {
	name    string
	keys    []col
	nums    []string    // numeric columns for sum/mean/min/max
	ratios  [][2]string // bool (num, den) pairs for ratio
	filters []query.Pred
	selects []string
	welch   string // numeric column for a female-vs-male Welch test ("" = none)
	chisq   bool   // has sector, female and known for an EDU-vs-COM chi-squared
}

var (
	regions3 = []any{"Northern America", "Western Europe", "Eastern Asia"}
	sectors2 = []any{"EDU", "COM"}
	genders2 = []any{"female", "male"}
)

var frameCats = []frameCat{
	{
		name: query.FrameSlots,
		keys: []col{{"conference", 27}, {"conf", 27}, {"role", 6}, {"gender", 3}, {"region", 16}, {"sector", 3},
			{"country", 0}, {"year", 0}, {"known", 2}, {"female", 2}, {"double_blind", 2}, {"lead", 2}, {"hpc_topic", 2}},
		nums:   []string{"citations36", "attendance", "year"},
		ratios: [][2]string{{"female", "known"}},
		filters: []query.Pred{
			{Col: "role", Op: "eq", Value: "author"},
			{Col: "role", Op: "in", Values: []any{"author", "PC member"}},
			{Col: "known", Op: "eq", Value: true},
			{Col: "region", Op: "in", Values: regions3},
			{Col: "sector", Op: "in", Values: sectors2},
			{Col: "year", Op: "ge", Value: 2016},
			{Col: "attendance", Op: "gt", Value: 0},
		},
		selects: []string{"conf", "conference", "year", "role", "person", "gender", "country", "region", "sector", "paper", "citations36"},
		welch:   "citations36",
		chisq:   true,
	},
	{
		name: query.FramePeople,
		keys: []col{{"gender", 3}, {"region", 16}, {"sector", 3}, {"country", 0}, {"known", 2}, {"female", 2},
			{"is_author", 2}, {"is_pc_member", 2}, {"is_pc_chair", 2}, {"is_keynote", 2}},
		nums:   []string{"papers", "gs_pubs", "hindex", "s2_pubs"},
		ratios: [][2]string{{"female", "known"}},
		filters: []query.Pred{
			{Col: "is_author", Op: "eq", Value: true},
			{Col: "known", Op: "eq", Value: true},
			{Col: "hindex", Op: "ge", Value: 2},
			{Col: "gs_pubs", Op: "lt", Value: 400},
			{Col: "region", Op: "in", Values: regions3},
			{Col: "sector", Op: "in", Values: sectors2},
			{Col: "papers", Op: "ge", Value: 1},
		},
		selects: []string{"person", "gender", "country", "region", "sector", "papers", "is_author", "is_pc_member"},
		welch:   "hindex",
		chisq:   true,
	},
	{
		name:   query.FrameMembers,
		keys:   []col{{"role", 2}, {"gender", 3}, {"region", 16}, {"sector", 3}, {"country", 0}, {"known", 2}, {"female", 2}},
		ratios: [][2]string{{"female", "known"}},
		filters: []query.Pred{
			{Col: "role", Op: "eq", Value: "author"},
			{Col: "known", Op: "eq", Value: true},
			{Col: "region", Op: "in", Values: regions3},
			{Col: "sector", Op: "in", Values: sectors2},
			{Col: "gender", Op: "in", Values: genders2},
		},
		selects: []string{"role", "person", "gender", "country", "region", "sector"},
		chisq:   true,
	},
	{
		name: query.FramePapers,
		keys: []col{{"conference", 27}, {"conference_name", 27}, {"year", 0}, {"lead_gender", 3},
			{"lead_known", 2}, {"lead_female", 2}, {"hpc_topic", 2}, {"double_blind", 2}},
		nums:   []string{"citations36", "authors", "year"},
		ratios: [][2]string{{"lead_female", "lead_known"}},
		filters: []query.Pred{
			{Col: "year", Op: "ge", Value: 2016},
			{Col: "citations36", Op: "ge", Value: 1},
			{Col: "lead_known", Op: "eq", Value: true},
			{Col: "authors", Op: "ge", Value: 2},
		},
		selects: []string{"paper", "conference", "conference_name", "year", "lead_gender", "citations36", "authors"},
	},
	{
		name: query.FrameCohorts,
		keys: []col{{"conf", 27}, {"series", 27}, {"year", 0}, {"gender", 3}, {"region", 16}, {"sector", 3},
			{"country", 0}, {"known", 2}, {"female", 2}, {"retained", 2}, {"observed", 2}},
		nums:   []string{"year"},
		ratios: [][2]string{{"female", "known"}, {"retained", "observed"}},
		filters: []query.Pred{
			{Col: "known", Op: "eq", Value: true},
			{Col: "region", Op: "in", Values: regions3},
			{Col: "sector", Op: "in", Values: sectors2},
			{Col: "gender", Op: "in", Values: genders2},
			{Col: "year", Op: "ge", Value: 2016},
		},
		selects: []string{"conf", "series", "year", "person", "gender", "country", "region", "sector"},
		chisq:   true,
	},
	{
		name: query.FrameCitations,
		keys: []col{{"src_conf", 27}, {"dst_conf", 27}, {"src_year", 0}, {"team", 4}, {"src_lead_gender", 3},
			{"dst_lead_gender", 3}, {"same_conf", 2}, {"cross_year", 2}, {"src_region", 16}, {"dst_lead_known", 2}},
		nums:   []string{"src_year", "dst_year"},
		ratios: [][2]string{{"dst_lead_female", "dst_lead_known"}, {"null_female", "null_known"}},
		filters: []query.Pred{
			{Col: "dst_lead_known", Op: "eq", Value: true},
			{Col: "team", Op: "in", Values: []any{"mixed", "all_men"}},
			{Col: "src_lead_gender", Op: "in", Values: genders2},
			{Col: "src_year", Op: "ge", Value: 2016},
		},
		selects: []string{"src_paper", "src_conf", "src_year", "dst_paper", "dst_conf", "team", "src_lead_gender", "dst_lead_gender"},
	},
}

// spec is one generated /v1/query request.
type spec struct {
	key  studyKey
	body []byte
}

// maxCompleteCells bounds the cross product a generated "complete" query
// asks for, so a later cost cap on group counts cannot reject one.
const maxCompleteCells = 2000

// genSpecs returns n query specs, distinct by (study, Query.Hash): the ten
// exhibit queries on every study, then generated ones. The corpus, frame
// and query shape of the i-th generated spec depend only on i, so every
// seed runs the same mix of work; the seed picks columns, filters,
// aggregates, order, limit and format.
func genSpecs(rng *rand.Rand, keys []studyKey, n int) []spec {
	seen := make(map[string]bool)
	var out []spec
	addSpec := func(k studyKey, q *query.Query) bool {
		body := mustJSON(q)
		parsed, err := query.Parse(body)
		if err != nil {
			panic(err) // the generator only emits well-formed specs
		}
		id := k.String() + "|" + parsed.Hash()
		if seen[id] {
			return false
		}
		seen[id] = true
		out = append(out, spec{k, body})
		return true
	}
	for _, k := range keys {
		for _, eq := range repro.ExhibitQueries() {
			addSpec(k, eq.Query)
		}
	}
	// Weighted toward the extended corpus (keys[2]): half the generated
	// specs, a quarter each for default and flagship.
	corpusOf := []int{2, 0, 2, 1}
	for i := 0; len(out) < n; i++ {
		k := keys[corpusOf[i%4]]
		fc := &frameCats[(i/4)%len(frameCats)]
		shape := i % 10
		for attempt := 0; ; attempt++ {
			if addSpec(k, genQuery(rng, fc, shape)) || attempt > 50 {
				break
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

// genQuery draws one spec of the given shape: 0-5 grouped aggregates,
// 6-7 a projection, 8 a Welch test, 9 a chi-squared test (frames without
// the columns a test needs fall back to a grouped aggregate).
func genQuery(rng *rand.Rand, fc *frameCat, shape int) *query.Query {
	q := &query.Query{Frame: fc.name, Format: pick(rng, []string{"json", "csv"})}
	for _, i := range rng.Perm(len(fc.filters))[:rng.IntN(3)] {
		q.Where = append(q.Where, fc.filters[i])
	}
	switch {
	case shape == 6 || shape == 7:
		cols := rng.Perm(len(fc.selects))[:2+rng.IntN(4)]
		for _, c := range cols {
			q.Select = append(q.Select, query.Key{Col: fc.selects[c]})
		}
		q.OrderBy = []query.Order{{Key: fc.selects[cols[0]], Desc: rng.IntN(2) == 0}}
		if rng.IntN(8) != 0 {
			q.Limit = 20 + rng.IntN(300)
		}
		return q
	case shape == 8 && fc.welch != "":
		q.Where = dropCol(q.Where, "gender")
		q.GroupBy = []query.Key{{Col: "gender"}}
		q.Aggs = []query.Agg{{Op: "count", As: "n"}, {Op: "mean", Col: fc.welch, As: "mean_" + fc.welch}}
		q.Compare = &query.Compare{Test: "welch", Col: fc.welch, Groups: [][]any{{"female"}, {"male"}}}
		return q
	case shape == 9 && fc.chisq:
		q.Where = dropCol(q.Where, "sector")
		q.GroupBy = []query.Key{{Col: "sector"}}
		q.Aggs = []query.Agg{
			{Op: "count", As: "women", Where: []query.Pred{{Col: "female", Op: "eq", Value: true}}},
			{Op: "count", As: "known", Where: []query.Pred{{Col: "known", Op: "eq", Value: true}}},
		}
		q.Compare = &query.Compare{Test: "chisq", Num: "women", Den: "known", Groups: [][]any{{"EDU"}, {"COM"}}}
		return q
	}
	keys := rng.Perm(len(fc.keys))[:1+rng.IntN(3)]
	cells, completable := 1, true
	for _, ki := range keys {
		c := fc.keys[ki]
		q.GroupBy = append(q.GroupBy, query.Key{Col: c.name})
		if c.dom == 0 {
			completable = false
		}
		cells *= max(c.dom, 1)
	}
	q.Aggs = []query.Agg{{Op: "count", As: "n"}}
	for _, a := range rng.Perm(4)[:1+rng.IntN(2)] {
		switch {
		case a == 0 && len(fc.nums) > 0:
			num := pick(rng, fc.nums)
			op := pick(rng, []string{"sum", "mean", "min", "max"})
			q.Aggs = append(q.Aggs, query.Agg{Op: op, Col: num, As: op + "_" + num})
		case a == 1:
			r := pick(rng, fc.ratios)
			q.Aggs = append(q.Aggs, query.Agg{Op: "ratio", Num: r[0], Den: r[1], As: "ratio_" + r[0]})
		case a == 2 && fc.ratios[0][0] == "female":
			q.Aggs = append(q.Aggs, query.Agg{Op: "count", As: "women", Where: []query.Pred{{Col: "female", Op: "eq", Value: true}}})
		}
	}
	if completable && cells <= maxCompleteCells && rng.IntN(3) == 0 {
		q.Complete = true
	}
	first := fc.keys[keys[0]]
	if first.dom > 2 && rng.IntN(5) == 0 {
		q.Totals = "ALL"
	}
	switch rng.IntN(3) {
	case 0:
		q.OrderBy = []query.Order{{Key: "n", Desc: true}, {Key: first.name}}
		if rng.IntN(2) == 0 {
			q.Limit = 5 + rng.IntN(40)
		}
	case 1:
		q.OrderBy = []query.Order{{Key: first.name, Appearance: first.dom > 2}}
	}
	return q
}

// dropCol removes predicates on column c (a test's group column must keep
// both of its groups).
func dropCol(preds []query.Pred, c string) []query.Pred {
	var out []query.Pred
	for _, p := range preds {
		if p.Col != c {
			out = append(out, p)
		}
	}
	return out
}
