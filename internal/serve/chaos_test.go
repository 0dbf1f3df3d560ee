package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/snap"
)

// chaosSeeds are the fixed seeds the chaos suite (and the CI chaos job)
// replays. Three seeds cover distinct schedule shapes without turning the
// suite into a fuzzer — any failure reproduces from the seed alone.
var chaosSeeds = []uint64{7, 42, 2021}

// chaosStep is one scripted action in the deterministic request sequence.
// Method "PURGE" is a local sentinel: drop the exhibit cache (spilling
// resident bytes to the stale store) instead of issuing a request.
type chaosStep struct {
	method, target, body string
}

var chaosQuerySpec = `{"frame":"slots","group_by":["conference"],"aggs":[{"op":"count","as":"n"}]}`

// chaosScript exercises every injection point: request (all steps),
// materialize (first touch of each study key), render (every cache miss),
// and — via the purges — the stale-while-revalidate path.
var chaosScript = []chaosStep{
	{"GET", "/healthz", ""},
	{"GET", "/v1/far", ""},
	{"GET", "/v1/report", ""},
	{"GET", "/v1/far", ""},
	{"GET", "/v1/exhibits", ""},
	{"GET", "/v1/roles", ""},
	{"POST", "/v1/query", chaosQuerySpec},
	{"PURGE", "", ""},
	{"GET", "/v1/report", ""},
	{"GET", "/v1/far", ""},
	{"GET", "/v1/csv/far_per_conference", ""},
	{"GET", "/v1/exhibits", ""},
	{"PURGE", "", ""},
	{"GET", "/v1/roles", ""},
	{"GET", "/v1/report", ""},
	{"GET", "/v1/far?seed=5", ""},
	{"GET", "/v1/report?seed=5", ""},
	{"POST", "/v1/query", chaosQuerySpec},
	{"GET", "/healthz", ""},
	{"GET", "/v1/far", ""},
	{"GET", "/v1/roles", ""},
	{"GET", "/v1/report", ""},
}

// chaosResult records one request's observable outcome plus the fault
// events the injector fired while serving it.
type chaosResult struct {
	status int
	body   string
	xcache string
	fired  []chaos.Event
}

// driveScript runs chaosScript sequentially against s, attributing fired
// fault events to the request they interrupted. Sequential execution is
// what makes hit ordinals — and therefore the whole run — replayable.
func driveScript(t *testing.T, s *Server, inj *chaos.Scheduled) []chaosResult {
	t.Helper()
	results := make([]chaosResult, 0, len(chaosScript))
	firedBefore := 0
	for _, step := range chaosScript {
		if step.method == "PURGE" {
			s.PurgeExhibitCache()
			continue
		}
		var req *http.Request
		if step.body != "" {
			req = httptest.NewRequest(step.method, step.target, strings.NewReader(step.body))
			req.Header.Set("Content-Type", "application/json")
		} else {
			req = httptest.NewRequest(step.method, step.target, nil)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		res := chaosResult{
			status: rec.Code,
			body:   rec.Body.String(),
			xcache: rec.Header().Get("X-Cache"),
		}
		if inj != nil {
			all := inj.Fired()
			res.fired = all[firedBefore:]
			firedBefore = len(all)
		}
		results = append(results, res)
	}
	return results
}

func fatalFaults(events []chaos.Event) int {
	n := 0
	for _, e := range events {
		switch e.Kind {
		case chaos.KindError, chaos.KindCancel, chaos.KindPanic:
			n++
		}
	}
	return n
}

// TestChaosServeInvariants is the chaos suite's core: for each fixed seed,
// a scripted request sequence runs against a fault-injected server and is
// held to four invariants — (1) no panic escapes the middleware, (2) every
// failed request carries a mapped status and traces back to a fired fault,
// (3) every successful response is byte-identical to the fault-free
// baseline, (4) no goroutines leak. A second injected run with the same
// seed must reproduce the first exactly (statuses and fired-event log).
func TestChaosServeInvariants(t *testing.T) {
	leakcheck.Check(t)

	baselineSrv := newTestServer(t, nil)
	baseline := driveScript(t, baselineSrv, nil)
	for i, r := range baseline {
		if r.status != http.StatusOK {
			t.Fatalf("baseline step %d (%s) = %d: %s", i, chaosScript[i].target, r.status, r.body)
		}
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			sched := chaos.ServeProfile().Schedule(seed)

			run := func() (*Server, *chaos.Scheduled, []chaosResult) {
				inj := chaos.NewScheduled(sched)
				s := newTestServer(t, func(c *Config) {
					c.Chaos = inj
					c.Metrics = obs.NewRegistry()
				})
				// Invariant 1: a panic escaping the middleware would unwind
				// through ServeHTTP into this test and fail it loudly.
				return s, inj, driveScript(t, s, inj)
			}
			s, inj, results := run()

			panicsFired, staleSeen := 0, 0
			allowedFailure := map[int]bool{
				http.StatusInternalServerError: true,
				http.StatusServiceUnavailable:  true,
				http.StatusGatewayTimeout:      true,
			}
			httpIdx := 0
			for i, r := range results {
				for _, e := range r.fired {
					if e.Kind == chaos.KindPanic {
						panicsFired++
					}
				}
				if r.xcache == CacheStale {
					staleSeen++
				}
				switch {
				case r.status == http.StatusOK:
					// Invariant 3: success is byte-identical to the
					// fault-free baseline — even when served stale.
					if r.body != baseline[i].body {
						t.Errorf("step %d: 200 body diverged from baseline\nfired: %v", i, r.fired)
					}
				case allowedFailure[r.status]:
					// Invariant 2: failures map to a typed status and are
					// attributable to an injected fault.
					if fatalFaults(r.fired) == 0 {
						t.Errorf("step %d: status %d with no fatal fault fired", i, r.status)
					}
				default:
					t.Errorf("step %d: unexpected status %d: %s", i, r.status, r.body)
				}
				if len(r.fired) == 0 && r.status != http.StatusOK {
					t.Errorf("step %d: failed (%d) with no fault fired at all", i, r.status)
				}
				httpIdx++
			}
			if httpIdx == 0 {
				t.Fatal("script drove no requests")
			}

			// Invariant 2, metric side: every contained panic is counted,
			// every stale serve is counted, and the per-point injection
			// counter accounts for every fired event.
			if got := s.met.panics.Value(); int(got) != panicsFired {
				t.Errorf("whpcd_panics_total = %d, want %d (fired panic faults)", got, panicsFired)
			}
			if got := s.met.staleServes.Value(); int(got) != staleSeen {
				t.Errorf("whpcd_stale_serves_total = %d, want %d (stale X-Cache responses)", got, staleSeen)
			}
			counted := 0
			for _, p := range chaos.Points() {
				counted += int(s.met.chaosInjected.With(p).Value())
			}
			if counted != len(inj.Fired()) {
				t.Errorf("whpcd_chaos_injected_total sums to %d, want %d fired events", counted, len(inj.Fired()))
			}

			// Replay: a fresh server armed from the same schedule reproduces
			// the run exactly.
			_, inj2, results2 := run()
			if a, b := inj.FiredString(), inj2.FiredString(); a != b {
				t.Errorf("replay fired different events:\n  run1: %s\n  run2: %s", a, b)
			}
			for i := range results {
				if results[i].status != results2[i].status {
					t.Errorf("replay step %d: status %d then %d", i, results[i].status, results2[i].status)
				}
			}
		})
	}
}

// TestChaosPanicContainment: a panic fault in the render layer is contained
// — the request fails 500, whpcd_panics_total increments, and the very next
// request renders fine. The daemon never stops serving.
func TestChaosPanicContainment(t *testing.T) {
	leakcheck.Check(t)
	inj := chaos.NewScheduled(&chaos.Schedule{Triggers: []chaos.Trigger{
		{Point: chaos.PointRender, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindPanic}},
	}})
	s := newTestServer(t, func(c *Config) {
		c.Chaos = inj
		c.Metrics = obs.NewRegistry()
	})
	if rec := get(t, s, "/v1/report"); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked render status = %d, want 500", rec.Code)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("whpcd_panics_total = %d, want 1", got)
	}
	rec := get(t, s, "/v1/report")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic render status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("whpcd_panics_total moved to %d after a clean request", got)
	}
}

// TestChaosStaleWhileRevalidate: when a re-render fails after the cache was
// purged, the stale store serves the previous (byte-identical) bytes with a
// Warning header, the stale outcome and an error-log line, instead of
// failing the request — on the GET exhibit routes and the POST query routes
// alike.
func TestChaosStaleWhileRevalidate(t *testing.T) {
	for _, step := range []chaosStep{
		{"GET", "/v1/report", ""},
		{"POST", "/v1/query", chaosQuerySpec},
		{"POST", "/v1/trend", `{"view":"retention"}`},
		{"POST", "/v1/cite", ""},
	} {
		t.Run(step.method+" "+step.target, func(t *testing.T) {
			leakcheck.Check(t)
			inj := chaos.NewScheduled(&chaos.Schedule{Triggers: []chaos.Trigger{
				{Point: chaos.PointRender, Hit: 2, Fault: chaos.Fault{Kind: chaos.KindError}},
			}})
			var errLog strings.Builder
			s := newTestServer(t, func(c *Config) {
				c.Chaos = inj
				c.Metrics = obs.NewRegistry()
				c.ErrorLog = &errLog
			})
			do := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(step.method, step.target, strings.NewReader(step.body)))
				return rec
			}
			first := do()
			if first.Code != http.StatusOK {
				t.Fatalf("first render = %d: %s", first.Code, first.Body.String())
			}
			s.PurgeExhibitCache()
			if got := s.cache.StaleLen(); got == 0 {
				t.Fatal("purge spilled nothing into the stale store")
			}
			stale := do()
			if stale.Code != http.StatusOK {
				t.Fatalf("stale serve = %d, want 200: %s", stale.Code, stale.Body.String())
			}
			if got := stale.Header().Get("X-Cache"); got != CacheStale {
				t.Fatalf("X-Cache = %q, want %q", got, CacheStale)
			}
			if stale.Header().Get("Warning") == "" {
				t.Fatal("stale response missing Warning header")
			}
			if got, want := stale.Header().Get("Content-Type"), first.Header().Get("Content-Type"); got != want {
				t.Fatalf("stale Content-Type = %q, want %q", got, want)
			}
			if stale.Body.String() != first.Body.String() {
				t.Fatal("stale bytes diverged from the original render")
			}
			if got := s.met.staleServes.Value(); got != 1 {
				t.Fatalf("whpcd_stale_serves_total = %d, want 1", got)
			}
			if !strings.Contains(errLog.String(), "stale serve") {
				t.Fatalf("error log missing stale-serve line: %q", errLog.String())
			}
			// The stale copy is still there; a third request (no fault
			// armed) re-renders, and the fresh insert supersedes it.
			third := do()
			if third.Code != http.StatusOK || third.Header().Get("X-Cache") != CacheMiss {
				t.Fatalf("recovery render = (%d, %s), want (200, miss)", third.Code, third.Header().Get("X-Cache"))
			}
		})
	}
}

// TestChaosRequestCancel: a cancel fault at serve.request propagates the
// dead context through the handler — a cold-cache request fails 503, typed,
// and the next request succeeds.
func TestChaosRequestCancel(t *testing.T) {
	leakcheck.Check(t)
	inj := chaos.NewScheduled(&chaos.Schedule{Triggers: []chaos.Trigger{
		{Point: chaos.PointRequest, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindCancel}},
	}})
	s := newTestServer(t, func(c *Config) {
		c.Chaos = inj
		c.Metrics = obs.NewRegistry()
	})
	rec := get(t, s, "/v1/report")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec2 := get(t, s, "/v1/report"); rec2.Code != http.StatusOK {
		t.Fatalf("follow-up request = %d, want 200", rec2.Code)
	}
}

// TestSingleflightPanicReleasesWaiters: when the building caller's build
// panics, every coalesced waiter receives the memo's panicked error
// (ErrRenderPanicked for the exhibit cache) instead of hanging, the panic
// still propagates on the building goroutine, and the key is released.
func TestSingleflightPanicReleasesWaiters(t *testing.T) {
	leakcheck.Check(t)
	m := newMemo[string, []byte](4, ErrRenderPanicked, nil, nil, nil)
	executing := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	waiterErrs := make([]error, 4)
	for i := range waiterErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-executing
			_, how, err := m.get(context.Background(), "k", func() ([]byte, error) {
				t.Error("waiter executed the build; singleflight broke")
				return nil, nil
			})
			if how != fetchJoined {
				// The executor's slot was already released; this waiter
				// re-executed. That must not happen before release closes.
				t.Error("waiter was not coalesced")
			}
			waiterErrs[i] = err
		}(i)
	}

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _, _ = m.get(context.Background(), "k", func() ([]byte, error) {
			close(executing)
			<-release
			panic("render exploded")
		})
	}()

	// Let the waiters queue up behind the in-flight call before the panic.
	<-executing
	time.Sleep(20 * time.Millisecond)
	close(release)
	if rec := <-panicked; rec == nil {
		t.Fatal("executing caller's panic was swallowed")
	}
	wg.Wait()
	for i, err := range waiterErrs {
		if !errors.Is(err, ErrRenderPanicked) {
			t.Errorf("waiter %d err = %v, want ErrRenderPanicked", i, err)
		}
	}
	if n := m.len(); n != 0 {
		t.Errorf("panicked build left %d entries behind, want 0", n)
	}
}

// TestRegistryBuildPanicReleasesWaiters: a panicking build fails waiters
// with ErrBuildPanicked, is not retained, and a later Get retries cleanly.
func TestRegistryBuildPanicReleasesWaiters(t *testing.T) {
	leakcheck.Check(t)
	okStudy := newTestServer(t, nil) // only for a study value
	st, err := okStudy.studies.Get(context.Background(), StudyKey{Seed: testSeed, Corpus: CorpusDefault})
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	building := make(chan struct{})
	release := make(chan struct{})
	reg := NewStudyRegistry(2, func(StudyKey) (Resident, error) {
		calls++
		if calls == 1 {
			close(building)
			<-release
			panic("build exploded")
		}
		return st, nil
	}, nil, nil, nil)

	key := StudyKey{Seed: 1, Corpus: CorpusDefault}
	waiterErr := make(chan error, 1)
	go func() {
		<-building
		_, err := reg.Get(context.Background(), key)
		waiterErr <- err
	}()

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = reg.Get(context.Background(), key)
	}()

	// Let the waiter block on the latch before the build panics.
	<-building
	time.Sleep(20 * time.Millisecond)
	close(release)
	if rec := <-panicked; rec == nil {
		t.Fatal("building caller's panic was swallowed")
	}
	if err := <-waiterErr; !errors.Is(err, ErrBuildPanicked) {
		t.Fatalf("waiter err = %v, want ErrBuildPanicked", err)
	}
	// The poisoned entry was forgotten; the next Get rebuilds.
	if got, err := reg.Get(context.Background(), key); err != nil || got != st {
		t.Fatalf("retry Get = (%v, %v), want clean rebuild", got, err)
	}
}

// TestRegistryWaitCancel: a waiter whose context dies while another caller
// is still materializing gets its context error immediately; the build
// completes for everyone else.
func TestRegistryWaitCancel(t *testing.T) {
	leakcheck.Check(t)
	okStudy := newTestServer(t, nil)
	st, err := okStudy.studies.Get(context.Background(), StudyKey{Seed: testSeed, Corpus: CorpusDefault})
	if err != nil {
		t.Fatal(err)
	}

	building := make(chan struct{})
	release := make(chan struct{})
	reg := NewStudyRegistry(2, func(StudyKey) (Resident, error) {
		close(building)
		<-release
		return st, nil
	}, nil, nil, nil)

	key := StudyKey{Seed: 1, Corpus: CorpusDefault}
	builderDone := make(chan error, 1)
	go func() {
		_, err := reg.Get(context.Background(), key)
		builderDone <- err
	}()
	<-building

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reg.Get(ctx, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-builderDone; err != nil {
		t.Fatalf("builder failed: %v", err)
	}
	// The completed study is served to later callers — including ones whose
	// context is already cancelled, because completed work wins the select.
	if got, err := reg.Get(ctx, key); err != nil || got != st {
		t.Fatalf("post-build Get = (%v, %v), want cached study", got, err)
	}
}

// TestChaosWarmBootTornReadRetry: a torn read on the first snapshot open is
// absorbed by the single immediate retry — the study loads from disk, no
// fallback, no quarantine.
func TestChaosWarmBootTornReadRetry(t *testing.T) {
	leakcheck.Check(t)
	dir := writeTestSnapshot(t)
	inj := chaos.NewScheduled(&chaos.Schedule{Triggers: []chaos.Trigger{
		{Point: chaos.PointSnapRead, Hit: 1, Fault: chaos.Fault{Kind: chaos.KindTorn, TornBytes: 512}},
	}})
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Chaos = inj
		c.Metrics = obs.NewRegistry()
	})
	if rec := get(t, s, "/v1/report"); rec.Code != http.StatusOK {
		t.Fatalf("warm boot = %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.met.snapshotLoads.Value(); got != 1 {
		t.Fatalf("snapshot loads = %d, want 1", got)
	}
	if got := s.met.snapshotFallbacks.Value(); got != 0 {
		t.Fatalf("snapshot fallbacks = %d, want 0", got)
	}
	if got := s.met.snapshotQuarantines.Value(); got != 0 {
		t.Fatalf("snapshot quarantines = %d, want 0", got)
	}
	if got := inj.Hits(chaos.PointSnapRead); got != 2 {
		t.Fatalf("snap.read hits = %d, want 2 (original + retry)", got)
	}
}

// TestChaosWarmBootQuarantine: persistent decode faults exhaust the retry,
// quarantine the file (renamed, never re-read), and degrade to synthesis —
// with bytes identical to a never-snapshotted server.
func TestChaosWarmBootQuarantine(t *testing.T) {
	leakcheck.Check(t)
	dir := writeTestSnapshot(t)
	path := filepath.Join(dir, snap.CorpusFileName(CorpusDefault, testSeed))

	triggers := make([]chaos.Trigger, 0, 12)
	for hit := 1; hit <= 12; hit++ {
		triggers = append(triggers, chaos.Trigger{
			Point: chaos.PointSnapDecode, Hit: hit, Fault: chaos.Fault{Kind: chaos.KindError},
		})
	}
	inj := chaos.NewScheduled(&chaos.Schedule{Triggers: triggers})
	var errLog strings.Builder
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Chaos = inj
		c.Metrics = obs.NewRegistry()
		c.ErrorLog = &errLog
	})
	rec := get(t, s, "/v1/report")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded warm boot = %d: %s", rec.Code, rec.Body.String())
	}

	baseline := get(t, newTestServer(t, nil), "/v1/report")
	if rec.Body.String() != baseline.Body.String() {
		t.Fatal("synthesized fallback bytes diverged from a never-snapshotted server")
	}

	if got := s.met.snapshotFallbacks.Value(); got != 1 {
		t.Fatalf("snapshot fallbacks = %d, want 1", got)
	}
	if got := s.met.snapshotQuarantines.Value(); got != 1 {
		t.Fatalf("snapshot quarantines = %d, want 1", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt snapshot still present at %s (err=%v)", path, err)
	}
	if _, err := os.Stat(path + QuarantineSuffix); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	log := errLog.String()
	if !strings.Contains(log, path) || !strings.Contains(log, "quarantined") {
		t.Fatalf("error log missing quarantine line with path: %q", log)
	}
	if !strings.Contains(log, snap.SectionPersons) {
		t.Fatalf("error log missing failing section %q: %q", snap.SectionPersons, log)
	}

	// Never re-attempted in a loop: evict the study, rebuild, and confirm
	// the quarantined file is not re-read (fires nothing; plain missing-file
	// fallback).
	readsBefore := inj.Hits(chaos.PointSnapRead)
	s.studies = NewStudyRegistry(1, s.buildStudy, nil, nil, nil)
	if rec := get(t, s, "/v1/report"); rec.Code != http.StatusOK {
		t.Fatalf("post-quarantine rebuild = %d", rec.Code)
	}
	if got := inj.Hits(chaos.PointSnapRead); got != readsBefore {
		t.Fatalf("quarantined snapshot was re-read (snap.read hits %d -> %d)", readsBefore, got)
	}
}

// TestWarmBootRealCorruption: actual on-disk corruption (no injector) takes
// the same quarantine path — proving the hardening is not chaos-only.
func TestWarmBootRealCorruption(t *testing.T) {
	leakcheck.Check(t)
	dir := writeTestSnapshot(t)
	path := filepath.Join(dir, snap.CorpusFileName(CorpusDefault, testSeed))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the payload so the header parses but a section
	// checksum fails.
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Metrics = obs.NewRegistry()
	})
	if rec := get(t, s, "/v1/report"); rec.Code != http.StatusOK {
		t.Fatalf("corrupt warm boot = %d", rec.Code)
	}
	if got := s.met.snapshotQuarantines.Value(); got != 1 {
		t.Fatalf("snapshot quarantines = %d, want 1", got)
	}
	if _, err := os.Stat(path + QuarantineSuffix); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
}
