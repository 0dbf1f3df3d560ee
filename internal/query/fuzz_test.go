package query

import (
	"errors"
	"testing"
)

// FuzzQuery drives the whole query surface — Parse, Run over the default
// corpus's frames, and both result encoders — with arbitrary spec bytes.
// Every input must either produce a result that encodes, or fail with an
// error wrapping one of the typed classes the serving layer maps to a 4xx
// (ErrInvalid, ErrEmpty, ErrTooLarge). A panic or an untyped error is an
// engine bug, and a 500 on an unauthenticated route.
func FuzzQuery(f *testing.F) {
	for _, spec := range []string{
		// Grouped, one per frame.
		`{"frame":"slots","where":[{"col":"role","op":"eq","value":"author"}],"group_by":["conference"],"aggs":[{"op":"ratio","num":"female","den":"known","as":"far"},{"op":"count","as":"n"}],"order_by":[{"key":"conference","appearance":true}],"totals":"ALL"}`,
		`{"frame":"people","group_by":["region",{"col":"sector","hide":true}],"aggs":[{"op":"count","where":[{"col":"female","op":"eq","value":true}],"as":"women"},{"op":"mean","col":"hindex","as":"h"}],"order_by":[{"key":"women","desc":true}],"limit":5}`,
		`{"frame":"members","where":[{"any":[{"col":"gender","op":"eq","value":"female"},{"col":"country","op":"null"}]}],"group_by":["role","gender"],"aggs":[{"op":"count","as":"n"}]}`,
		`{"frame":"papers","where":[{"col":"year","op":"ge","value":2017},{"col":"authors","op":"in","values":[1,2,3]}],"group_by":["lead_gender"],"aggs":[{"op":"sum","col":"citations36","as":"c"},{"op":"max","col":"authors","as":"a"}]}`,
		`{"frame":"cohorts","group_by":["series","year"],"aggs":[{"op":"ratio","num":"retained","den":"observed","as":"r"},{"op":"first","col":"conf","as":"f"}],"format":"csv"}`,
		`{"frame":"citations","group_by":["team"],"aggs":[{"op":"ratio","num":"dst_lead_female","den":"dst_lead_known","as":"r"},{"op":"min","col":"src_year","as":"y"}]}`,
		// Projections.
		`{"frame":"slots","where":[{"col":"role","op":"eq","value":"author"}],"select":["person","conference",{"col":"citations36","as":"c"}],"order_by":[{"key":"c","desc":true},{"key":"person"}],"limit":50}`,
		`{"frame":"papers","select":["paper","lead_gender"],"where":[{"col":"citations36","op":"lt","value":3}],"format":"csv"}`,
		`{"frame":"citations","select":["src_paper","dst_paper","src_region"],"limit":3}`,
		// Two-group comparisons.
		`{"frame":"papers","where":[{"col":"lead_known","op":"eq","value":true}],"group_by":["lead_gender"],"aggs":[{"op":"count","as":"n"}],"compare":{"test":"welch","col":"citations36","groups":[["female"],["male"]]}}`,
		`{"frame":"slots","where":[{"col":"role","op":"eq","value":"author"}],"group_by":["double_blind"],"aggs":[{"op":"count","where":[{"col":"female","op":"eq","value":true}],"as":"w"},{"op":"count","where":[{"col":"known","op":"eq","value":true}],"as":"k"}],"compare":{"test":"chisq","num":"w","den":"k","groups":[[true],[false]]}}`,
		// Complete group-bys: a small one, and one over the cap.
		`{"frame":"slots","group_by":["conference","role","gender"],"aggs":[{"op":"count","as":"n"}],"complete":true}`,
		`{"frame":"slots","group_by":[{"col":"person"},{"col":"paper"}],"aggs":[{"op":"count","as":"n"}],"complete":true,"limit":1}`,
		// Typed failures.
		`{"frame":"people","where":[{"col":"country","op":"eq","value":"Atlantis"}],"group_by":["country"],"aggs":[{"op":"count","as":"n"}]}`,
		`{"frame":"slots","where":[{"col":"attendance","op":"eq","value":1}],"select":["conference"]}`,
		`{"frame":"nope"}`,
		`{"frame":"slots"}{}`,
		``,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		q, err := Parse(spec)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Parse(%q): untyped error %v", spec, err)
			}
			return
		}
		res, err := Run(testFrames, q)
		if err != nil {
			if !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrEmpty) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Run(%s): untyped error %v", spec, err)
			}
			return
		}
		if _, err := res.JSON(); err != nil {
			t.Fatalf("Run(%s): JSON: %v", spec, err)
		}
		if _, err := res.CSV(); err != nil {
			t.Fatalf("Run(%s): CSV: %v", spec, err)
		}
	})
}
