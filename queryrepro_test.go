package repro

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/report"
)

// expectedExhibitCSV renders one report.CSVExports family exactly as the
// CSV exporter writes it to disk.
func expectedExhibitCSV(t *testing.T, s *Study, name string) []byte {
	t.Helper()
	e, ok := report.CSVExportByName(s.Dataset(), name)
	if !ok {
		t.Fatalf("no CSV export family %q", name)
	}
	rows, err := e.Rows()
	if err != nil {
		t.Fatalf("rendering %s: %v", name, err)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		t.Fatalf("encoding %s: %v", name, err)
	}
	w.Flush()
	return buf.Bytes()
}

// TestExhibitQueriesReproduceCSVExports is the engine's correctness
// anchor: every named exhibit query must reproduce its CSV export family
// byte-for-byte, so the ad-hoc query path and the paper's fixed exhibit
// path can never drift apart silently.
func TestExhibitQueriesReproduceCSVExports(t *testing.T) {
	queries := ExhibitQueries()
	if len(queries) < 6 {
		t.Fatalf("only %d exhibit queries; the engine must cover at least 6 exhibits", len(queries))
	}
	for _, eq := range queries {
		t.Run(eq.Name, func(t *testing.T) {
			res, err := study.Query(eq.Query)
			if err != nil {
				t.Fatalf("query failed: %v", err)
			}
			got, err := res.CSV()
			if err != nil {
				t.Fatalf("CSV encoding failed: %v", err)
			}
			want := expectedExhibitCSV(t, study, eq.Name)
			if !bytes.Equal(got, want) {
				t.Errorf("query CSV differs from exhibit CSV\n--- query ---\n%s\n--- exhibit ---\n%s", got, want)
			}
		})
	}
}

// TestExhibitQueriesRoundTripJSON proves the named queries survive the
// wire format: parsing their canonical JSON yields an equivalent query
// with the same canonical bytes and the same result.
func TestExhibitQueriesRoundTripJSON(t *testing.T) {
	for _, eq := range ExhibitQueries() {
		spec := eq.Query.Canonical()
		parsed, err := query.Parse(spec)
		if err != nil {
			t.Fatalf("%s: canonical spec does not re-parse: %v", eq.Name, err)
		}
		if !bytes.Equal(parsed.Canonical(), spec) {
			t.Errorf("%s: canonicalization not a fixed point:\n%s\nvs\n%s", eq.Name, parsed.Canonical(), spec)
		}
		if parsed.Hash() != eq.Query.Hash() {
			t.Errorf("%s: hash changed across round trip", eq.Name)
		}
		res, err := study.Query(parsed)
		if err != nil {
			t.Fatalf("%s: parsed query failed: %v", eq.Name, err)
		}
		got, err := res.CSV()
		if err != nil {
			t.Fatal(err)
		}
		want := expectedExhibitCSV(t, study, eq.Name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: parsed query output differs from exhibit CSV", eq.Name)
		}
	}
}

// TestQueryDeterministicAcrossGOMAXPROCS runs every exhibit query single-
// threaded and at 8 workers and demands byte-identical output — the
// whpcvet determinism contract applied to the parallel scan and merge.
func TestQueryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// A fresh FrameSet per GOMAXPROCS setting would hide nothing (frames
	// are built serially); reuse the study's.
	run := func() map[string][]byte {
		out := make(map[string][]byte)
		for _, eq := range ExhibitQueries() {
			res, err := study.Query(eq.Query)
			if err != nil {
				t.Fatalf("%s: %v", eq.Name, err)
			}
			b, err := res.CSV()
			if err != nil {
				t.Fatal(err)
			}
			out[eq.Name] = b
		}
		return out
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(prev)
	for name, want := range serial {
		if !bytes.Equal(parallel[name], want) {
			t.Errorf("%s: output differs between GOMAXPROCS=1 and 8", name)
		}
	}
}

// TestCompleteGroupByBounded pins the cost bound on complete group-bys.
// The 122-byte person×paper spec below once built a 1.9M-cell cross
// product (688 ms, 423 MB) to return one row; it is now refused at
// compile time with ErrTooLarge carrying the exact domain product, before
// any scan and with a handful of allocations. A domain product that
// overflows uint64 saturates instead of wrapping under the bound. Every
// exhibit query stays under the bound.
func TestCompleteGroupByBounded(t *testing.T) {
	const spec = `{"frame":"slots","group_by":[{"col":"person"},{"col":"paper"}],"aggs":[{"op":"count","as":"n"}],"complete":true,"limit":1}`
	if len(spec) != 122 {
		t.Fatalf("pinned spec is %d bytes, want 122", len(spec))
	}
	st, err := NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	slots, _ := st.Frames().Frame(query.FrameSlots)
	person, _ := slots.Column("person")
	paper, _ := slots.Column("paper")
	want := uint64(person.Dict.Len()) * uint64(paper.Dict.Len())

	q, err := query.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Query(q)
	var tl *query.TooLargeError
	if !errors.Is(err, query.ErrTooLarge) || !errors.As(err, &tl) {
		t.Fatalf("person×paper complete group-by: err = %v, want a *TooLargeError", err)
	}
	if tl.Groups != want || tl.Limit != query.MaxCompleteGroups {
		t.Errorf("estimate %d (limit %d), want %d (limit %d)", tl.Groups, tl.Limit, want, query.MaxCompleteGroups)
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = st.Query(q) }); allocs > 100 {
		t.Errorf("refusing the spec allocates %.0f times per run, want at most 100", allocs)
	}

	wide := &query.Query{Frame: query.FrameSlots, Complete: true, Aggs: []query.Agg{{Op: "count", As: "n"}}}
	for _, as := range []string{"a", "b", "c", "d", "e", "f"} {
		wide.GroupBy = append(wide.GroupBy, query.Key{Col: "person", As: as})
	}
	if _, err := st.Query(wide); !errors.As(err, &tl) || tl.Groups != math.MaxUint64 {
		t.Errorf("six person keys: err = %v, want a saturated *TooLargeError", err)
	}

	for _, eq := range ExhibitQueries() {
		if _, err := st.Query(eq.Query); errors.Is(err, query.ErrTooLarge) {
			t.Errorf("exhibit query %q: %v", eq.Name, err)
		}
	}
}
