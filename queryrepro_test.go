package repro

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cite"
	"repro/internal/perffloor"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/synth"
)

// expectedExhibitCSV renders one report.CSVExports family exactly as the
// CSV exporter writes it to disk.
func expectedExhibitCSV(t *testing.T, s *Study, name string) []byte {
	t.Helper()
	e, ok := report.CSVExportByName(s.Dataset(), name)
	if !ok {
		t.Fatalf("no CSV export family %q", name)
	}
	b, err := e.CSV()
	if err != nil {
		t.Fatalf("rendering %s: %v", name, err)
	}
	return b
}

// namedStudy is one study of the exhibit-equivalence matrix.
type namedStudy struct {
	name  string
	study *Study
}

// equivalenceStudies builds the studies the exhibit-equivalence suite
// checks: the default, flagship and extended corpora at three seeds each,
// the two delta-grown studies whpcd serves (default + SC'18, flagship +
// SC'21), and one harvested fault profile.
func equivalenceStudies(t *testing.T) []namedStudy {
	t.Helper()
	var out []namedStudy
	for _, seed := range []uint64{2021, 7, 1} {
		for _, c := range []struct {
			name string
			cfg  synth.Config
		}{
			{"default", synth.Default2017(seed)},
			{"flagship", synth.FlagshipSeries(seed)},
			{"extended", synth.ExtendedSystems(seed)},
		} {
			s, err := NewStudyFromConfig(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedStudy{fmt.Sprintf("%s-%d", c.name, seed), s})
		}
	}
	sc18, err := newDeltaFixture(synth.Default2017(2021), 2018)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		fx   *deltaFixture
	}{{"default-2021+SC18", sc18}, {"flagship-2021+SC21", deltaFix}} {
		s := d.fx.newBase(t)
		if err := s.applyDelta(d.fx.info, d.fx.mini, nil); err != nil {
			t.Fatalf("%s: applyDelta: %v", d.name, err)
		}
		out = append(out, namedStudy{d.name, s})
	}
	h, err := NewHarvestedStudy(synth.Default2017(2021), "degraded", HarvestHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedStudy{"default-2021-degraded", h})
}

// TestExhibitQueriesReproduceCSVExports is the engine's correctness
// anchor: Study.ExhibitCSV — the exhibit query of every family but
// experience_bands — must reproduce the family's report.CSVExports rows
// byte-for-byte on every corpus, seed, delta-grown study and harvested
// study of the matrix, so the served exhibit path and the paper's row
// builders can never drift apart silently. On the same studies,
// Study.CitationFlow, which reads the citations frame, must equal
// cite.Analyze over a fresh cite.Synthesize field for field, errors
// included.
func TestExhibitQueriesReproduceCSVExports(t *testing.T) {
	queries := ExhibitQueries()
	if len(queries) < 6 {
		t.Fatalf("only %d exhibit queries; the engine must cover at least 6 exhibits", len(queries))
	}
	families := ExhibitFamilies()
	if !slices.Equal(families, report.CSVExportNames()) {
		t.Fatalf("families %v, report exports %v", families, report.CSVExportNames())
	}
	for _, eq := range queries {
		if !slices.Contains(families, eq.Name) || eq.Name == coreFamily {
			t.Errorf("exhibit query %q names no query-rendered family", eq.Name)
		}
	}
	if len(queries) != len(families)-1 {
		t.Errorf("%d exhibit queries for %d families; only %s renders without one", len(queries), len(families), coreFamily)
	}
	if _, err := study.ExhibitCSV("sideways"); err == nil {
		t.Error("ExhibitCSV rendered an unknown family")
	}
	studies := equivalenceStudies(t)
	for _, ns := range studies {
		got, gotErr := ns.study.CitationFlow()
		want, wantErr := cite.Analyze(ns.study.Dataset(), cite.Synthesize(ns.study.Dataset()))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CitationFlow = %+v, %v; cite.Analyze = %+v, %v", ns.name, got, gotErr, want, wantErr)
		}
	}
	for _, family := range families {
		t.Run(family, func(t *testing.T) {
			for _, ns := range studies {
				t.Run(ns.name, func(t *testing.T) {
					got, err := ns.study.ExhibitCSV(family)
					if err != nil {
						t.Fatalf("rendering failed: %v", err)
					}
					want := expectedExhibitCSV(t, ns.study, family)
					if !bytes.Equal(got, want) {
						t.Errorf("served CSV differs from exhibit CSV\n--- served ---\n%s\n--- exhibit ---\n%s", got, want)
					}
				})
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

// TestQueryDeterministicAcrossGOMAXPROCS runs every exhibit query at
// GOMAXPROCS 1 and 8 and demands byte-identical output — the whpcvet
// determinism contract applied to the scan and its partition merge. Each
// query must also allocate as often at 8 as at 1, so per-worker scan
// state cannot come back unseen. testing.AllocsPerRun pins GOMAXPROCS to 1
// while it counts, so the counts are read from runtime.MemStats instead.
func TestQueryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// A fresh FrameSet per GOMAXPROCS setting would hide nothing (frames
	// are built serially); reuse the study's.
	queries := ExhibitQueries()
	run := func(procs int) (out map[string][]byte, allocs map[string]uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, allocs = make(map[string][]byte), make(map[string]uint64)
		for _, eq := range queries {
			res, err := study.Query(eq.Query)
			if err != nil {
				t.Fatalf("%s: %v", eq.Name, err)
			}
			b, err := res.CSV()
			if err != nil {
				t.Fatal(err)
			}
			out[eq.Name] = b
			if perffloor.RaceEnabled {
				continue // the race detector's instrumentation allocates
			}
			// The fewest allocations over several runs: work elsewhere in
			// the process only ever adds to one run's count.
			var ms runtime.MemStats
			for i := 0; i < 10; i++ {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				_, _ = study.Query(eq.Query)
				runtime.ReadMemStats(&ms)
				if n := ms.Mallocs - before; i == 0 || n < allocs[eq.Name] {
					allocs[eq.Name] = n
				}
			}
		}
		return out, allocs
	}
	serial, serialAllocs := run(1)
	parallel, parallelAllocs := run(8)
	for name, want := range serial {
		if !bytes.Equal(parallel[name], want) {
			t.Errorf("%s: output differs between GOMAXPROCS=1 and 8", name)
		}
		if serialAllocs[name] != parallelAllocs[name] {
			t.Errorf("%s: %d allocations per run at GOMAXPROCS=1, %d at 8", name, serialAllocs[name], parallelAllocs[name])
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
