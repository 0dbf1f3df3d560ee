package repro

import (
	"fmt"
	"slices"

	"repro/internal/query"
	"repro/internal/report"
)

// Frames returns the columnar flattening of the study's corpus, built
// lazily on first use and shared by every subsequent query. Frame
// construction is deterministic, so a cached FrameSet is indistinguishable
// from a fresh one.
func (s *Study) Frames() *query.FrameSet {
	s.framesOnce.Do(func() { s.frames = query.NewFrameSet(s.data) })
	return s.frames
}

// Query executes an ad-hoc columnar query against the study's corpus. The
// result is deterministic: the same study and spec yield byte-identical
// encodings at any GOMAXPROCS.
func (s *Study) Query(q *query.Query) (*query.Result, error) {
	return query.Run(s.Frames(), q)
}

// ExhibitQuery pairs a CSV exhibit family name (see ExhibitFamilies)
// with the query that reproduces it through the columnar engine.
type ExhibitQuery struct {
	// Name is the exhibit family name, matching the CSV export file stem.
	Name string
	// Query reproduces the family's table byte-for-byte when rendered as
	// CSV (proven by TestExhibitQueriesReproduceCSVExports).
	Query *query.Query
}

// coreFamily is the one exhibit family with no exhibit query:
// experience_bands stacks two overlapping populations (every researcher,
// and the authors among them) into one table, which a single group-by
// cannot express, so it renders through its core row builder.
const coreFamily = "experience_bands"

// exhibitFamilies and familyQueries are resolved once: the family names
// in report.CSVExports order, and each family's exhibit query.
var (
	exhibitFamilies = report.CSVExportNames()
	familyQueries   = func() map[string]*query.Query {
		m := make(map[string]*query.Query)
		for _, eq := range ExhibitQueries() {
			m[eq.Name] = eq.Query
		}
		return m
	}()
)

// ExhibitFamilies returns the names of the machine-readable exhibit
// families ExhibitCSV renders, in a fixed order (the order of the files
// whpc -csv writes).
func ExhibitFamilies() []string { return slices.Clone(exhibitFamilies) }

// ExhibitCSV renders one exhibit family of the study as CSV. It is the one
// place that decides how a family renders: every family but experience_bands
// runs its exhibit query over the study's frames, and experience_bands
// renders through its core row builder. The bytes equal the family's
// report.CSVExports rows on every corpus (TestExhibitQueriesReproduceCSVExports).
func (s *Study) ExhibitCSV(name string) ([]byte, error) {
	if q, ok := familyQueries[name]; ok {
		res, err := s.Query(q)
		if err != nil {
			return nil, err
		}
		return res.CSV()
	}
	if name != coreFamily {
		return nil, fmt.Errorf("repro: unknown exhibit family %q (have %v)", name, exhibitFamilies)
	}
	e, _ := report.CSVExportByName(s.data, name)
	return e.CSV()
}

// ExhibitQueries returns the paper exhibits expressed as columnar queries.
// Each query's CSV encoding is byte-identical to the corresponding
// report.CSVExports family, which keeps the query engine correctness-
// checked against the paper itself.
func ExhibitQueries() []ExhibitQuery {
	countWhere := func(preds ...query.Pred) []query.Pred { return preds }
	female := query.Pred{Col: "female", Op: "eq", Value: true}
	known := query.Pred{Col: "known", Op: "eq", Value: true}
	return []ExhibitQuery{
		{"far_per_conference", &query.Query{
			Frame: query.FrameSlots,
			Where: []query.Pred{{Col: "role", Op: "eq", Value: "author"}},
			GroupBy: []query.Key{
				{Col: "conference"},
			},
			Aggs: []query.Agg{
				{Op: "count", As: "women", Where: countWhere(female)},
				{Op: "count", As: "known", Where: countWhere(known)},
				{Op: "ratio", Num: "female", Den: "known", As: "far"},
				{Op: "count", As: "unknown", Where: countWhere(query.Pred{Col: "known", Op: "eq", Value: false})},
			},
			Totals:   "ALL",
			Complete: true,
			Format:   query.FormatCSV,
		}},
		{"role_representation", &query.Query{
			Frame: query.FrameSlots,
			GroupBy: []query.Key{
				{Col: "conf", As: "conference"},
				{Col: "role"},
			},
			Aggs: []query.Agg{
				{Op: "count", As: "women", Where: countWhere(female)},
				{Op: "count", As: "known", Where: countWhere(known)},
				{Op: "ratio", Num: "female", Den: "known", As: "ratio"},
			},
			OrderBy: []query.Order{
				{Key: "role", Appearance: true},
				{Key: "conference", Appearance: true},
			},
			Complete: true,
			Format:   query.FormatCSV,
		}},
		{"countries", &query.Query{
			Frame: query.FramePeople,
			Where: []query.Pred{
				{Any: []query.Pred{
					{Col: "is_author", Op: "eq", Value: true},
					{Col: "is_pc_member", Op: "eq", Value: true},
				}},
				{Col: "country", Op: "notnull"},
			},
			GroupBy: []query.Key{{Col: "country"}},
			Aggs: []query.Agg{
				{Op: "count", As: "women", Where: countWhere(female)},
				{Op: "count", As: "known", Where: countWhere(known)},
				{Op: "ratio", Num: "female", Den: "known", As: "ratio"},
				{Op: "count", As: "total"},
			},
			OrderBy: []query.Order{
				{Key: "total", Desc: true},
				{Key: "country"},
			},
			Format: query.FormatCSV,
		}},
		{"regions", &query.Query{
			Frame: query.FrameMembers,
			Where: []query.Pred{
				{Col: "known", Op: "eq", Value: true},
				{Col: "region", Op: "notnull"},
			},
			GroupBy: []query.Key{{Col: "region"}},
			Aggs: []query.Agg{
				{Op: "count", As: "author_women", Where: countWhere(query.Pred{Col: "role", Op: "eq", Value: "author"}, female)},
				{Op: "count", As: "author_total", Where: countWhere(query.Pred{Col: "role", Op: "eq", Value: "author"})},
				{Op: "count", As: "pc_women", Where: countWhere(query.Pred{Col: "role", Op: "eq", Value: "PC member"}, female)},
				{Op: "count", As: "pc_total", Where: countWhere(query.Pred{Col: "role", Op: "eq", Value: "PC member"})},
			},
			OrderBy: []query.Order{
				{Key: "author_total", Desc: true},
				{Key: "region"},
			},
			Format: query.FormatCSV,
		}},
		{"sectors", &query.Query{
			Frame: query.FrameMembers,
			Where: []query.Pred{{Col: "sector", Op: "notnull"}},
			GroupBy: []query.Key{
				{Col: "sector"},
				{Col: "role"},
			},
			Aggs: []query.Agg{
				{Op: "count", As: "women", Where: countWhere(female)},
				{Op: "count", As: "known", Where: countWhere(known)},
				{Op: "ratio", Num: "female", Den: "known", As: "ratio"},
			},
			OrderBy: []query.Order{
				{Key: "role", Appearance: true},
				{Key: "sector", Appearance: true},
			},
			Complete: true,
			Format:   query.FormatCSV,
		}},
		{"citations", &query.Query{
			Frame: query.FramePapers,
			Select: []query.Key{
				{Col: "paper"},
				{Col: "conference"},
				{Col: "lead_gender"},
				{Col: "citations36"},
				{Col: "hpc_topic"},
			},
			Format: query.FormatCSV,
		}},
		{"trend", &query.Query{
			Frame: query.FrameSlots,
			Where: []query.Pred{{Col: "role", Op: "eq", Value: "author"}},
			GroupBy: []query.Key{
				{Col: "conference", As: "series"},
				{Col: "year"},
			},
			Aggs: []query.Agg{
				{Op: "count", As: "women", Where: countWhere(female)},
				{Op: "count", As: "known", Where: countWhere(known)},
				{Op: "ratio", Num: "female", Den: "known", As: "far"},
				{Op: "first", Col: "attendance", As: "attendance"},
			},
			OrderBy: []query.Order{
				{Key: "series"},
				{Key: "year"},
			},
			Format: query.FormatCSV,
		}},
		{"cite_flow", &query.Query{
			Frame:   query.FrameCitations,
			GroupBy: []query.Key{{Col: "team"}},
			Aggs: []query.Agg{
				{Op: "count", As: "edges"},
				{Op: "count", As: "women_cited", Where: countWhere(query.Pred{Col: "dst_lead_female", Op: "eq", Value: true})},
				{Op: "count", As: "known_cited", Where: countWhere(query.Pred{Col: "dst_lead_known", Op: "eq", Value: true})},
				{Op: "ratio", Num: "dst_lead_female", Den: "dst_lead_known", As: "observed_share"},
				{Op: "count", As: "null_women", Where: countWhere(query.Pred{Col: "null_female", Op: "eq", Value: true})},
				{Op: "count", As: "null_known", Where: countWhere(query.Pred{Col: "null_known", Op: "eq", Value: true})},
				{Op: "ratio", Num: "null_female", Den: "null_known", As: "null_share"},
			},
			Totals:   "ALL",
			Complete: true,
			Format:   query.FormatCSV,
		}},
		{"cite_gap", &query.Query{
			Frame: query.FrameCitations,
			GroupBy: []query.Key{
				{Col: "src_conf", As: "conference"},
				{Col: "src_year", As: "year"},
			},
			Aggs: []query.Agg{
				{Op: "count", As: "edges"},
				{Op: "count", As: "women_cited", Where: countWhere(query.Pred{Col: "dst_lead_female", Op: "eq", Value: true})},
				{Op: "count", As: "known_cited", Where: countWhere(query.Pred{Col: "dst_lead_known", Op: "eq", Value: true})},
				{Op: "ratio", Num: "dst_lead_female", Den: "dst_lead_known", As: "observed_share"},
				{Op: "count", As: "null_women", Where: countWhere(query.Pred{Col: "null_female", Op: "eq", Value: true})},
				{Op: "count", As: "null_known", Where: countWhere(query.Pred{Col: "null_known", Op: "eq", Value: true})},
				{Op: "ratio", Num: "null_female", Den: "null_known", As: "null_share"},
			},
			OrderBy: []query.Order{
				{Key: "conference", Appearance: true},
			},
			Format: query.FormatCSV,
		}},
		{"retention", &query.Query{
			Frame: query.FrameCohorts,
			GroupBy: []query.Key{
				{Col: "series"},
				{Col: "year"},
			},
			Aggs: []query.Agg{
				{Op: "count", As: "holders"},
				{Op: "count", As: "women", Where: countWhere(female)},
				{Op: "count", As: "observed", Where: countWhere(query.Pred{Col: "observed", Op: "eq", Value: true})},
				{Op: "count", As: "returned", Where: countWhere(query.Pred{Col: "retained", Op: "eq", Value: true})},
				{Op: "count", As: "women_returned", Where: countWhere(query.Pred{Col: "retained", Op: "eq", Value: true}, female)},
				{Op: "ratio", Num: "retained", Den: "observed", As: "rate"},
			},
			OrderBy: []query.Order{
				{Key: "series"},
				{Key: "year"},
			},
			Format: query.FormatCSV,
		}},
	}
}

// ExhibitQueryByName returns the named exhibit query, or ok=false.
func ExhibitQueryByName(name string) (ExhibitQuery, bool) {
	for _, eq := range ExhibitQueries() {
		if eq.Name == name {
			return eq, true
		}
	}
	return ExhibitQuery{}, false
}
