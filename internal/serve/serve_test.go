package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/synth"
)

// testSeed keeps test corpora distinct from the package defaults so a
// cached study never masks a materialization bug.
const testSeed = 7

func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{DefaultSeed: testSeed}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// get drives one request through the full middleware chain.
func get(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

func TestHealthz(t *testing.T) {
	rec := get(t, newTestServer(t, nil), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("body = %q, want ok", rec.Body.String())
	}
}

// TestReportByteIdentity is the serving layer's core contract: the bytes
// from /v1/report — cold, then cached — are exactly the bytes
// Study.WriteReport renders for the same seed.
func TestReportByteIdentity(t *testing.T) {
	study, err := repro.NewStudy(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := study.WriteReport(&direct); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, nil)
	cold := get(t, s, "/v1/report")
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status = %d: %s", cold.Code, cold.Body.String())
	}
	if got := cold.Header().Get("X-Cache"); got != CacheMiss {
		t.Fatalf("cold X-Cache = %q, want %q", got, CacheMiss)
	}
	if !bytes.Equal(cold.Body.Bytes(), direct.Bytes()) {
		t.Fatal("cold /v1/report differs from direct WriteReport")
	}

	warm := get(t, s, "/v1/report")
	if got := warm.Header().Get("X-Cache"); got != CacheHit {
		t.Fatalf("warm X-Cache = %q, want %q", got, CacheHit)
	}
	if !bytes.Equal(warm.Body.Bytes(), direct.Bytes()) {
		t.Fatal("cached /v1/report differs from direct WriteReport")
	}
	if ct := warm.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
}

// TestReportSingleflight hammers an uncached /v1/report from 32 goroutines
// and asserts exactly one underlying render ran and every caller got the
// same bytes.
func TestReportSingleflight(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, nil)

	const clients = 32
	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		bodies [clients][]byte
		codes  [clients]int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/report", nil))
			bodies[i] = rec.Body.Bytes()
			codes[i] = rec.Code
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned different bytes than request 0", i)
		}
	}
	if renders := s.met.cacheMisses.Value(); renders != 1 {
		t.Fatalf("report rendered %d times under %d concurrent requests, want exactly 1", renders, clients)
	}
	if len(bodies[0]) == 0 {
		t.Fatal("empty report body")
	}
}

// TestGracefulDrain starts the server on a real listener, parks a request
// inside a handler, cancels the serve context, and verifies the in-flight
// request still completes before Serve returns.
func TestGracefulDrain(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	s.mux.HandleFunc("GET /test/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		_, _ = io.WriteString(w, "slow done")
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l) }()

	var (
		body []byte
		code int
	)
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + l.Addr().String() + "/test/slow")
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		reqDone <- err
	}()

	<-entered
	cancel() // begin graceful drain with the request still in flight
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if code != http.StatusOK || string(body) != "slow done" {
		t.Fatalf("in-flight request got %d %q, want 200 \"slow done\"", code, body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

func TestStudyRegistryLRU(t *testing.T) {
	var builds atomic.Int64
	mkStudy, err := repro.NewStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	var evictions obs.Counter
	var resident obs.Gauge
	reg := NewStudyRegistry(2, func(StudyKey) (Resident, error) {
		builds.Add(1)
		return Resident{Study: mkStudy}, nil
	}, nil, &evictions, &resident)

	keys := []StudyKey{
		{Seed: 1, Corpus: CorpusDefault},
		{Seed: 2, Corpus: CorpusDefault},
		{Seed: 3, Corpus: CorpusDefault},
	}
	for _, k := range keys {
		if _, err := reg.Get(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load(); got != 3 {
		t.Fatalf("builds = %d, want 3", got)
	}
	if got := reg.Len(); got != 2 {
		t.Fatalf("resident = %d, want 2 (capacity)", got)
	}
	// Key 3 is hot; key 1 was evicted; key 2 is still resident.
	if _, err := reg.Get(context.Background(), keys[2]); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 3 {
		t.Fatalf("hot key rebuilt: builds = %d, want 3", got)
	}
	if _, err := reg.Get(context.Background(), keys[0]); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 4 {
		t.Fatalf("evicted key not rebuilt: builds = %d, want 4", got)
	}
	if evictions.Value() != 2 {
		t.Fatalf("evictions = %d, want 2", evictions.Value())
	}
	if resident.Value() != 2 {
		t.Fatalf("resident gauge = %d, want 2", resident.Value())
	}
}

func TestStudyRegistryDoesNotCacheFailures(t *testing.T) {
	var builds atomic.Int64
	okStudy, err := repro.NewStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewStudyRegistry(2, func(StudyKey) (Resident, error) {
		if builds.Add(1) == 1 {
			return Resident{}, fmt.Errorf("transient failure")
		}
		return Resident{Study: okStudy}, nil
	}, nil, nil, nil)
	key := StudyKey{Seed: 9, Corpus: CorpusDefault}
	if _, err := reg.Get(context.Background(), key); err == nil {
		t.Fatal("first Get should fail")
	}
	if got, err := reg.Get(context.Background(), key); err != nil || got.Study != okStudy {
		t.Fatalf("second Get = (%v, %v), want retry success", got, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2", builds.Load())
	}
}

func TestExhibitCacheLRUAndErrors(t *testing.T) {
	var computes atomic.Int64
	c := NewExhibitCache(2, cacheCounters{})
	compute := func(v string) func(context.Context) ([]byte, error) {
		return func(context.Context) ([]byte, error) {
			computes.Add(1)
			return []byte(v), nil
		}
	}
	for _, step := range []struct {
		key, want, outcome string
	}{
		{"a", "A", CacheMiss},
		{"a", "A", CacheHit},
		{"b", "B", CacheMiss},
		{"c", "C", CacheMiss}, // evicts a
		{"a", "A", CacheMiss}, // rebuilt
	} {
		got, outcome, err := c.Get(context.Background(), step.key, compute(strings.ToUpper(step.key)))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != step.want || outcome != step.outcome {
			t.Fatalf("Get(%q) = (%q, %s), want (%q, %s)", step.key, got, outcome, step.want, step.outcome)
		}
	}
	if computes.Load() != 4 {
		t.Fatalf("computes = %d, want 4", computes.Load())
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// a and then b were evicted and spilled to the stale store; a's fresh
	// render replaced its stale copy.
	if c.StaleLen() != 1 {
		t.Fatalf("StaleLen = %d, want 1 (b)", c.StaleLen())
	}

	// Errors are never cached.
	fail := true
	for i := 0; i < 2; i++ {
		_, _, err := c.Get(context.Background(), "err", func(context.Context) ([]byte, error) {
			if fail {
				fail = false
				return nil, fmt.Errorf("render exploded")
			}
			return []byte("ok"), nil
		})
		if i == 0 && err == nil {
			t.Fatal("first Get should surface the render error")
		}
		if i == 1 && err != nil {
			t.Fatalf("error was cached: %v", err)
		}
	}
}

// TestSingleflightInFlightHoldsSlot: a build in flight takes a cap slot
// and is never evicted, so a second caller of its key joins it even after
// another key's build finished meanwhile (and, with the only slot held,
// was evicted as it landed).
func TestSingleflightInFlightHoldsSlot(t *testing.T) {
	var evictions obs.Counter
	var resident obs.Gauge
	m := newMemo[string, []byte](1, ErrRenderPanicked, nil, &evictions, &resident)
	var builds atomic.Int64
	building := make(chan struct{})
	release := make(chan struct{})
	slow := func() ([]byte, error) {
		builds.Add(1)
		close(building)
		<-release
		return []byte("a"), nil
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := m.get(context.Background(), "a", slow)
		done <- err
	}()
	<-building

	if v, how, err := m.get(context.Background(), "b", func() ([]byte, error) { return []byte("b"), nil }); err != nil || how != fetchBuilt || string(v) != "b" {
		t.Fatalf("get(b) = (%q, %v, %v), want a fresh build", v, how, err)
	}
	if n := m.len(); n != 1 || evictions.Value() != 1 {
		t.Fatalf("with a in flight and b finished: len %d, evictions %d; want 1, 1 (b evicted)", n, evictions.Value())
	}
	joined := make(chan fetch, 1)
	go func() {
		_, how, _ := m.get(context.Background(), "a", slow)
		joined <- how
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if how := <-joined; how != fetchJoined && how != fetchHit {
		t.Errorf("second caller of a: %v, want to join the build or hit its result", how)
	}
	if builds.Load() != 1 {
		t.Errorf("a built %d times, want 1", builds.Load())
	}
	if n := m.len(); n != 1 || resident.Value() != 1 || evictions.Value() != 1 {
		t.Errorf("after a finished: len %d, resident %d, evictions %d; want 1, 1, 1",
			n, resident.Value(), evictions.Value())
	}
	if _, how, _ := m.get(context.Background(), "a", slow); how != fetchHit {
		t.Errorf("a after its build: %v, want a hit", how)
	}
}

// TestExhibitCacheHitAllocFree: serving resident bytes allocates nothing,
// so the warm read path costs a lock and a map lookup.
func TestExhibitCacheHitAllocFree(t *testing.T) {
	c := NewExhibitCache(2, cacheCounters{})
	ctx := context.Background()
	compute := func(context.Context) ([]byte, error) { return []byte("v"), nil }
	if _, _, err := c.Get(ctx, "k", compute); err != nil {
		t.Fatal(err)
	}
	var outcome string
	allocs := testing.AllocsPerRun(200, func() {
		_, outcome, _ = c.Get(ctx, "k", compute)
	})
	if outcome != CacheHit {
		t.Fatalf("outcome = %q, want %q", outcome, CacheHit)
	}
	if allocs != 0 {
		t.Errorf("cache hit allocated %.1f times, want 0", allocs)
	}
}

// TestSingleflightGroup: a group of concurrent callers of one memo key
// shares a single build; all but the builder are coalesced.
func TestSingleflightGroup(t *testing.T) {
	m := newMemo[string, []byte](4, ErrRenderPanicked, nil, nil, nil)
	var runs atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, how, err := m.get(context.Background(), "k", func() ([]byte, error) {
				runs.Add(1)
				<-gate
				return []byte("v"), nil
			})
			if err != nil || string(v) != "v" {
				t.Errorf("get = (%q, %v)", v, err)
			}
			if how == fetchJoined {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the goroutines queue up behind the first caller, then open the gate.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	if sharedCount.Load() != callers-1 {
		t.Fatalf("shared callers = %d, want %d", sharedCount.Load(), callers-1)
	}
}

func TestBadParameters(t *testing.T) {
	s := newTestServer(t, nil)
	for _, target := range []string{
		"/v1/far?seed=banana",
		"/v1/far?corpus=imaginary",
		"/v1/far?profile=catastrophic",
	} {
		if rec := get(t, s, target); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", target, rec.Code)
		}
	}
	if rec := get(t, s, "/v1/exhibits/no-such-exhibit"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown exhibit = %d, want 404", rec.Code)
	}
	if rec := get(t, s, "/v1/csv/no_such_export"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown csv = %d, want 404", rec.Code)
	}
}

func TestFARJSON(t *testing.T) {
	s := newTestServer(t, nil)
	rec := get(t, s, "/v1/far")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var dto struct {
		Study struct {
			Seed    uint64 `json:"seed"`
			Corpus  string `json:"corpus"`
			Profile string `json:"profile"`
		} `json:"study"`
		Overall struct {
			Women int      `json:"women"`
			Known int      `json:"known"`
			Ratio *float64 `json:"ratio"`
		} `json:"overall"`
		PerConference []struct {
			Conference string `json:"conference"`
		} `json:"per_conference"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dto); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if dto.Study.Seed != testSeed || dto.Study.Corpus != CorpusDefault || dto.Study.Profile != "none" {
		t.Fatalf("study echo = %+v", dto.Study)
	}
	if dto.Overall.Ratio == nil || *dto.Overall.Ratio <= 0 || *dto.Overall.Ratio >= 0.5 {
		t.Fatalf("overall ratio = %v, want a plausible FAR", dto.Overall.Ratio)
	}
	if len(dto.PerConference) == 0 {
		t.Fatal("no per-conference rows")
	}
}

func TestExhibitEndpointMatchesDirectRender(t *testing.T) {
	study, err := repro.NewStudy(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := study.Exhibit("table1")
	if !ok {
		t.Fatal("exhibit table1 missing")
	}
	var direct bytes.Buffer
	if err := ex.Render(&direct); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, nil)
	rec := get(t, s, "/v1/exhibits/table1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), direct.Bytes()) {
		t.Fatal("served exhibit differs from direct render")
	}

	// The catalog lists every exhibit the study enumerates.
	list := get(t, s, "/v1/exhibits")
	var cat struct {
		Exhibits []struct{ ID string } `json:"exhibits"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Exhibits) != len(study.Exhibits()) {
		t.Fatalf("catalog has %d exhibits, study has %d", len(cat.Exhibits), len(study.Exhibits()))
	}
}

func TestCSVEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec := get(t, s, "/v1/csv/far_per_conference")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.HasPrefix(rec.Body.String(), "conference,women,known,far,unknown\n") {
		t.Fatalf("unexpected CSV header: %q", strings.SplitN(rec.Body.String(), "\n", 2)[0])
	}
	// The .csv suffix is accepted too, and serves identical bytes.
	suffixed := get(t, s, "/v1/csv/far_per_conference.csv")
	if !bytes.Equal(suffixed.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatal("suffixed name served different bytes")
	}
	if got := suffixed.Header().Get("X-Cache"); got != CacheHit {
		t.Fatalf("suffixed X-Cache = %q, want hit (same cache key)", got)
	}
}

// TestCSVUnknownFamilyBeforeMaterializing: family names are static, so an
// unknown name is answered 404, listing every family in export order,
// before a cold server materializes any study.
func TestCSVUnknownFamilyBeforeMaterializing(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Metrics = obs.NewRegistry() })
	rec := get(t, s, "/v1/csv/sideways?corpus=extended")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404: %s", rec.Code, rec.Body.String())
	}
	const want = `unknown csv export "sideways" (have [far_per_conference role_representation countries ` +
		`regions sectors experience_bands citations trend retention cite_flow cite_gap])` + "\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body %q, want %q", got, want)
	}
	if got := metricValue(t, s, "whpcd_studies_materialized_total"); got != "0" {
		t.Errorf("whpcd_studies_materialized_total = %s after an unknown family, want 0", got)
	}
}

// oracleCSV renders one family through the report row builders, the
// reference the served bytes must equal.
func oracleCSV(t *testing.T, st *repro.Study, family string) []byte {
	t.Helper()
	e, ok := report.CSVExportByName(st.Dataset(), family)
	if !ok {
		t.Fatalf("no report family %q", family)
	}
	b, err := e.CSV()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCSVFamiliesMatchOracle: every /v1/csv/<family> body equals the report
// row builders' bytes on the default, flagship and extended corpora, and
// on a snapshot-dir study grown by a year delta.
func TestCSVFamiliesMatchOracle(t *testing.T) {
	plain := newTestServer(t, nil)
	grown := newTestServer(t, func(c *Config) { c.SnapshotDir = writeDeltaDir(t) })
	cases := []struct {
		name   string
		s      *Server
		corpus string
		study  func() (*repro.Study, error)
	}{
		{"default", plain, CorpusDefault, func() (*repro.Study, error) { return repro.NewStudy(testSeed) }},
		{"flagship", plain, CorpusFlagship, func() (*repro.Study, error) { return repro.NewStudyFromConfig(synth.FlagshipSeries(testSeed)) }},
		{"extended", plain, CorpusExtended, func() (*repro.Study, error) { return repro.NewStudyFromConfig(synth.ExtendedSystems(testSeed)) }},
		{"flagship+SC21", grown, CorpusFlagship, func() (*repro.Study, error) { return grownFlagship(t), nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.study()
			if err != nil {
				t.Fatal(err)
			}
			for _, family := range repro.ExhibitFamilies() {
				rec := get(t, tc.s, "/v1/csv/"+family+"?corpus="+tc.corpus)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status = %d: %s", family, rec.Code, rec.Body.String())
				}
				if !bytes.Equal(rec.Body.Bytes(), oracleCSV(t, st, family)) {
					t.Errorf("%s: served bytes differ from the report's", family)
				}
			}
		})
	}
}

// TestViewsShareFamilyCacheEntry: a /v1/trend or /v1/cite view is an alias
// of its family, so after GET /v1/csv/<family> the view is a cache hit
// with the same bytes.
func TestViewsShareFamilyCacheEntry(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct{ family, route, view string }{
		{"trend", "/v1/trend", "far"},
		{"retention", "/v1/trend", "retention"},
		{"cite_flow", "/v1/cite", "flow"},
		{"cite_gap", "/v1/cite", "gap"},
	} {
		csv := get(t, s, "/v1/csv/"+tc.family)
		if csv.Code != http.StatusOK || csv.Header().Get("X-Cache") != CacheMiss {
			t.Fatalf("GET /v1/csv/%s = (%d, %s), want (200, miss)", tc.family, csv.Code, csv.Header().Get("X-Cache"))
		}
		view := post(t, s, tc.route, `{"view":"`+tc.view+`"}`)
		if view.Code != http.StatusOK || view.Header().Get("X-Cache") != CacheHit {
			t.Fatalf("POST %s view %s = (%d, %s), want (200, hit)", tc.route, tc.view, view.Code, view.Header().Get("X-Cache"))
		}
		if !bytes.Equal(view.Body.Bytes(), csv.Body.Bytes()) {
			t.Errorf("view %s differs from /v1/csv/%s", tc.view, tc.family)
		}
	}
}

// TestFamilyFailuresKeepRouteFormat: a failed family render is answered in
// plain text on GET /v1/csv and in the JSON error envelope on the POST
// views, and neither failure is cached.
func TestFamilyFailuresKeepRouteFormat(t *testing.T) {
	inj := chaos.NewScheduled(&chaos.Schedule{Triggers: []chaos.Trigger{
		{Point: chaos.PointRender, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindError}},
		{Point: chaos.PointRender, Hit: 2, Fault: chaos.Fault{Kind: chaos.KindError}},
	}})
	s := newTestServer(t, func(c *Config) { c.Chaos = inj })
	rec := get(t, s, "/v1/csv/cite_gap")
	if rec.Code != http.StatusInternalServerError || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("GET failure = (%d, %s), want (500, text/plain): %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	rec = post(t, s, "/v1/cite", `{"view":"gap"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("POST failure status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if dto := decodeQueryError(t, rec); dto.Status != http.StatusInternalServerError || dto.Error == "" {
		t.Errorf("POST failure envelope %+v", dto)
	}
	if rec := get(t, s, "/v1/csv/cite_gap"); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != CacheMiss {
		t.Fatalf("recovery render = (%d, %s), want (200, miss)", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestCSVFamilyWithNoRows: a snapshot-dir study whose corpus gives a family
// no rows (one paper, so no citation edges) answers that family 422 in
// plain text, as a corpus the analysis does not apply to.
func TestCSVFamilyWithNoRows(t *testing.T) {
	cfg := synth.Default2017(testSeed)
	one := cfg.Confs[0]
	one.Papers, one.AuthorSlots = 1, 3
	cfg.Confs = []synth.ConfSpec{one}
	dir := t.TempDir()
	writeBase(t, dir, CorpusDefault, cfg)
	s := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	rec := get(t, s, "/v1/csv/cite_gap")
	if rec.Code != http.StatusUnprocessableEntity || !strings.HasPrefix(rec.Body.String(), "not applicable to this corpus: ") {
		t.Fatalf("cite_gap on a corpus with no citations = (%d, %q), want 422 not applicable", rec.Code, rec.Body.String())
	}
}

// TestHarvestedStudyEndToEnd exercises the fault-profile construction path
// through the API: the report carries the harvest exhibits, stays
// byte-identical to the direct harvested render, and the harvest telemetry
// lands in the metrics registry.
func TestHarvestedStudyEndToEnd(t *testing.T) {
	direct, err := repro.NewHarvestedStudy(synth.Default2017(testSeed), "flaky", repro.HarvestHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.WriteReport(&want); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, nil)
	rec := get(t, s, "/v1/report?profile=flaky")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatal("served harvested report differs from direct harvested render")
	}
	if !strings.Contains(rec.Body.String(), "Harvest — resilient ingestion") {
		t.Fatal("harvested report missing the harvest exhibit")
	}

	metrics := get(t, s, "/metrics")
	if !strings.Contains(metrics.Body.String(), `whpcd_harvest_outcomes_total{outcome="linked-gs"}`) {
		t.Fatal("/metrics missing harvest outcome telemetry after a harvested materialization")
	}
}

func TestMetricsAndVarsEndpoints(t *testing.T) {
	s := newTestServer(t, nil)
	get(t, s, "/v1/far")
	get(t, s, "/v1/far") // one miss + one hit
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`whpcd_requests_total{route="/v1/far",code="200"} 2`,
		`whpcd_request_seconds_bucket{route="/v1/far",le="+Inf"} 2`,
		"whpcd_exhibit_cache_hits_total 1",
		"whpcd_exhibit_cache_misses_total 1",
		"whpcd_exhibit_cache_hit_ratio 0.5",
		"whpcd_studies_resident 1",
		"whpcd_render_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /metrics output is a pure function of the counters' state: two
	// renderings of the same registry, with labelled families populated,
	// are byte-identical.
	if rec := postQuery(t, s, `{"frame":"papers","group_by":[{"col":"conference"}],"aggs":[{"op":"count","as":"n"}],"limit":3}`); rec.Code != http.StatusOK {
		t.Fatalf("query: %d: %s", rec.Code, rec.Body.String())
	}
	var a, b bytes.Buffer
	if err := s.cfg.Metrics.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two /metrics renderings of identical state differ")
	}

	vars := get(t, s, "/debug/vars")
	var parsed map[string]any
	if err := json.Unmarshal(vars.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if parsed[`whpcd_requests_total{route="/v1/far",code="200"}`] != float64(2) {
		t.Fatalf("vars request count = %v, want 2", parsed[`whpcd_requests_total{route="/v1/far",code="200"}`])
	}
}

// TestMetricsByteDeterministicWithShardFamilies renders the registry of a
// server exercised on every POST route twice and requires identical bytes:
// /metrics output is a pure function of the counters' state. The removed
// in-process cluster's whpcd_shard_* families must stay out of the render.
func TestMetricsByteDeterministicWithShardFamilies(t *testing.T) {
	s := newTestServer(t, nil)
	for _, req := range []struct{ target, body string }{
		{"/v1/query", `{"frame":"papers","group_by":[{"col":"conference"}],"aggs":[{"op":"count","as":"n"}],"limit":3}`},
		{"/v1/trend", `{}`},
		{"/v1/cite", `{"view":"gap"}`},
	} {
		if rec := post(t, s, req.target, req.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", req.target, rec.Code, rec.Body.String())
		}
	}
	var a, b bytes.Buffer
	if err := s.cfg.Metrics.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two /metrics renderings of identical state differ")
	}
	if strings.Contains(a.String(), "whpcd_shard_") {
		t.Error("/metrics still renders a whpcd_shard_* family")
	}
}

func TestInFlightShedding(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	entered := make(chan struct{})
	release := make(chan struct{})
	s.route("GET /test/park", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/test/park", nil))
	}()
	<-entered

	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status with full in-flight = %d, want 503", rec.Code)
	}
	close(release)
	wg.Wait()
	if s.met.shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.met.shed.Value())
	}
	// Capacity is released: the next request succeeds.
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", rec.Code)
	}
}

func TestRateLimiting(t *testing.T) {
	clock := resilience.NewVirtualClock(time.Unix(0, 0))
	s := newTestServer(t, func(c *Config) {
		c.RatePerSecond = 0.001 // effectively no refill under a frozen clock
		c.RateBurst = 2
		c.Clock = clock
	})
	for i := 0; i < 2; i++ {
		if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
			t.Fatalf("request %d within burst = %d, want 200", i, rec.Code)
		}
	}
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request past burst = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	// Budgets are per route: another route still has tokens.
	if rec := get(t, s, "/v1/exhibits"); rec.Code != http.StatusOK {
		t.Fatalf("other route = %d, want 200", rec.Code)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, func(c *Config) { c.AccessLog = &buf })
	get(t, s, "/v1/far?seed=3")
	line := strings.TrimSpace(buf.String())
	var rec struct {
		Method string `json:"method"`
		Path   string `json:"path"`
		Route  string `json:"route"`
		Status int    `json:"status"`
		Cache  string `json:"cache"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v (%q)", err, line)
	}
	if rec.Method != "GET" || rec.Path != "/v1/far?seed=3" || rec.Route != "/v1/far" || rec.Status != 200 || rec.Cache != CacheMiss {
		t.Fatalf("unexpected access record: %+v", rec)
	}
}
