// Package serve is whpcd's HTTP layer: a stdlib-only analytics API over the
// reproduction. A seeded study registry lazily materializes LRU-bounded
// Study instances per (seed, corpus, fault-profile) key, and a memoized
// exhibit cache guarantees each exhibit renders at most once per study no
// matter how many concurrent requests ask for it; both are one once-per-key
// LRU table (memo). Per-route token buckets (reusing internal/resilience)
// and an in-flight cap shed load with 429/503 instead of queueing
// unboundedly; request contexts carry timeouts; shutdown drains in-flight
// requests.
//
// The serving layer inherits the reproduction's determinism contract: a
// cached response is byte-identical to a fresh render, and the wall clock
// is only read through an injected resilience.Clock (for latency metrics
// and log stamps), never for anything that shapes a response body.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/faulty"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/snap"
	"repro/internal/synth"
)

// Config tunes a Server. The zero value serves with the defaults noted on
// each field.
type Config struct {
	// DefaultSeed is the corpus seed used when a request carries no seed
	// query parameter (default 2021, the paper's publication year).
	DefaultSeed uint64
	// DefaultProfile is the fault profile applied when a request carries no
	// profile parameter ("" serves pristine corpora).
	DefaultProfile string
	// StudyCap bounds resident materialized studies (default 4).
	StudyCap int
	// SnapshotDir, when set, is checked before synthesizing a pristine
	// (profile-less) study: a file named <corpus>-<seed>.whpcsnap there is
	// loaded instead of regenerating, which skips corpus synthesis and
	// frame building, and the year deltas beside it
	// (<corpus>-<seed>.delta-<year>.whpcsnap) are applied. A missing or
	// invalid snapshot falls back to synthesis (counted by
	// whpcd_snapshot_fallbacks_total); harvested studies always
	// synthesize, since the harvest is what's being asked for.
	//
	// The server also writes here: a file that fails validation twice is
	// renamed aside with QuarantineSuffix, and a loaded base that absorbed
	// all its deltas is written back as one compacted snapshot
	// (<corpus>-<seed>.compact-<lineage>.whpcsnap), which later
	// materializations of the key open instead of applying the deltas
	// again. A directory the server cannot write to still serves; the
	// failed writes are logged and counted.
	SnapshotDir string
	// CacheCap bounds memoized exhibit renders (default 256).
	CacheCap int
	// MaxInFlight caps concurrently served requests; excess requests are
	// shed with 503 (default 64).
	MaxInFlight int
	// RequestTimeout bounds one request's context (default 30s).
	RequestTimeout time.Duration
	// RatePerSecond and RateBurst configure the per-route token bucket;
	// RatePerSecond <= 0 disables rate limiting.
	RatePerSecond float64
	RateBurst     int
	// DrainTimeout bounds the graceful shutdown drain (default 15s).
	DrainTimeout time.Duration
	// Clock supplies time for latency metrics, rate limiting, and access-log
	// stamps (default resilience.WallClock). Response bodies never depend on
	// it.
	Clock resilience.Clock
	// Metrics receives the whpcd_* instrument families (default: a fresh
	// registry, exposed at /metrics and /debug/vars).
	Metrics *obs.Registry
	// AccessLog receives one JSON line per request (nil disables logging).
	AccessLog io.Writer
	// ErrorLog receives one JSON line per server-side degradation event —
	// contained panics, snapshot fallbacks and quarantines, stale serves
	// (nil disables logging).
	ErrorLog io.Writer
	// Chaos, when non-nil, injects scheduled faults at the server's named
	// injection points (serve.request, serve.render, serve.materialize,
	// serve.compact, snap.read, snap.decode, delta.apply). Production
	// servers leave it nil (chaos.None); the chaos suite arms it with a
	// seeded schedule.
	Chaos chaos.Injector
}

// metrics bundles the server's instruments.
type metrics struct {
	registry    *obs.Registry
	requests    *obs.CounterVec   // route, code
	latency     *obs.HistogramVec // route
	renders     *obs.Histogram    // seconds spent computing cache misses
	inflight    *obs.Gauge
	shed        *obs.Counter
	ratelimited *obs.CounterVec // route

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheCoalesced *obs.Counter

	queries *obs.CounterVec // frame

	harvestRetries  *obs.Counter
	harvestOutcomes *obs.CounterVec // outcome

	snapshotLoads       *obs.Counter
	snapshotFallbacks   *obs.Counter
	snapshotQuarantines *obs.Counter
	deltaApplies        *obs.Counter
	compactedLoads      *obs.Counter
	compactions         *obs.CounterVec // outcome

	panics        *obs.Counter
	staleServes   *obs.Counter
	chaosInjected *obs.CounterVec // point
}

func newMetrics(r *obs.Registry) *metrics {
	m := &metrics{
		registry: r,
		requests: r.CounterVec("whpcd_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		latency: r.HistogramVec("whpcd_request_seconds",
			"HTTP request latency in seconds, by route pattern.", nil, "route"),
		renders: r.Histogram("whpcd_render_seconds",
			"Time spent rendering exhibit-cache misses, in seconds.", nil),
		inflight: r.Gauge("whpcd_in_flight",
			"Requests currently being served."),
		shed: r.Counter("whpcd_shed_total",
			"Requests rejected with 503 because the in-flight cap was reached."),
		ratelimited: r.CounterVec("whpcd_rate_limited_total",
			"Requests rejected with 429 by the per-route token bucket.", "route"),
		cacheHits: r.Counter("whpcd_exhibit_cache_hits_total",
			"Exhibit-cache lookups served from resident bytes."),
		cacheMisses: r.Counter("whpcd_exhibit_cache_misses_total",
			"Exhibit-cache lookups that rendered (each miss is one render)."),
		cacheCoalesced: r.Counter("whpcd_exhibit_cache_coalesced_total",
			"Exhibit-cache lookups that waited on another request's in-flight render."),
		// The frame label is bounded: it is only incremented after a query
		// executes successfully, and execution validates the frame name.
		queries: r.CounterVec("whpcd_queries_total",
			"Columnar queries answered successfully, by frame.", "frame"),
		harvestRetries: r.Counter("whpcd_harvest_retries_total",
			"Retried bibliometric lookup attempts across harvested-study materializations."),
		harvestOutcomes: r.CounterVec("whpcd_harvest_outcomes_total",
			"Per-researcher harvest outcomes across harvested-study materializations.", "outcome"),
		snapshotLoads: r.Counter("whpcd_snapshot_loads_total",
			"Studies materialized from a snapshot file instead of synthesized."),
		snapshotFallbacks: r.Counter("whpcd_snapshot_fallbacks_total",
			"Snapshot warm-path attempts that fell back to synthesis (missing, corrupt, or version-skewed file)."),
		snapshotQuarantines: r.Counter("whpcd_snapshot_quarantines_total",
			"Snapshot files renamed aside after failing decode twice; quarantined files are never re-read."),
		deltaApplies: r.Counter("whpcd_delta_applies_total",
			"Year deltas from the snapshot directory applied to materialized studies."),
		compactedLoads: r.Counter("whpcd_snapshot_compacted_loads_total",
			"Studies materialized from a compacted snapshot (a base with its year deltas already applied), with no delta apply; also counted in whpcd_snapshot_loads_total."),
		compactions: r.CounterVec("whpcd_snapshot_compactions_total",
			"Compacted snapshots written to the snapshot directory after a base absorbed all its year deltas, by outcome (written, failed).", "outcome"),
		panics: r.Counter("whpcd_panics_total",
			"Handler panics contained by the recovery middleware; the daemon kept serving."),
		staleServes: r.Counter("whpcd_stale_serves_total",
			"Responses served from the stale exhibit store because re-rendering failed (degraded mode)."),
		chaosInjected: r.CounterVec("whpcd_chaos_injected_total",
			"Faults actually fired by the chaos injector, by injection point (always 0 in production).", "point"),
	}
	// Both outcomes render from the start, so a healthy daemon shows them
	// at zero.
	m.compactions.With(compactWritten)
	m.compactions.With(compactFailed)
	r.GaugeFunc("whpcd_exhibit_cache_hit_ratio",
		"Fraction of exhibit-cache lookups served without rendering (hits+coalesced over all lookups); NaN before the first lookup.",
		func() float64 {
			warm := float64(m.cacheHits.Value() + m.cacheCoalesced.Value())
			total := warm + float64(m.cacheMisses.Value())
			return warm / total
		})
	return m
}

// Server is the whpcd HTTP server. Construct with New.
type Server struct {
	cfg      Config
	clock    resilience.Clock
	mux      *http.ServeMux
	studies  *StudyRegistry
	cache    *ExhibitCache
	met      *metrics
	inj      chaos.Injector
	inflight chan struct{}
	limiters map[string]*resilience.TokenBucket

	logMu sync.Mutex // serializes access-log lines
	errMu sync.Mutex // serializes error-log lines
}

// New builds a Server from cfg, wiring the study registry, exhibit cache,
// metrics, and routes.
func New(cfg Config) (*Server, error) {
	if cfg.DefaultSeed == 0 {
		cfg.DefaultSeed = 2021
	}
	if cfg.StudyCap <= 0 {
		cfg.StudyCap = 4
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 256
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 15 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.WallClock{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.DefaultProfile != "" && cfg.DefaultProfile != "none" {
		if _, err := faulty.ByName(cfg.DefaultProfile); err != nil {
			return nil, fmt.Errorf("serve: default profile: %w", err)
		}
	}

	m := newMetrics(cfg.Metrics)
	s := &Server{
		cfg:      cfg,
		clock:    cfg.Clock,
		mux:      http.NewServeMux(),
		met:      m,
		inj:      chaos.None,
		inflight: make(chan struct{}, cfg.MaxInFlight),
		limiters: make(map[string]*resilience.TokenBucket),
	}
	if cfg.Chaos != nil && cfg.Chaos != chaos.None {
		// Wrap once so every fired fault — including snap-layer firings
		// inside snapshot loads — lands in whpcd_chaos_injected_total.
		s.inj = countingInjector{inner: cfg.Chaos, fired: m.chaosInjected}
	}
	s.studies = NewStudyRegistry(cfg.StudyCap, s.buildStudy,
		cfg.Metrics.Counter("whpcd_studies_materialized_total", "Studies materialized by the registry."),
		cfg.Metrics.Counter("whpcd_study_evictions_total", "Studies evicted from the registry LRU."),
		cfg.Metrics.Gauge("whpcd_studies_resident", "Studies currently resident in the registry."))
	s.cache = NewExhibitCache(cfg.CacheCap, cacheCounters{
		hits:        m.cacheHits,
		misses:      m.cacheMisses,
		coalesced:   m.cacheCoalesced,
		staleServes: m.staleServes,
		evictions:   cfg.Metrics.Counter("whpcd_exhibit_cache_evictions_total", "Rendered exhibits evicted from the cache LRU."),
		resident:    cfg.Metrics.Gauge("whpcd_exhibit_cache_entries", "Rendered exhibits currently resident in the cache."),
	})

	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /v1/far", s.handleFAR)
	s.route("GET /v1/roles", s.handleRoles)
	s.route("GET /v1/sensitivity", s.handleSensitivity)
	s.route("GET /v1/exhibits", s.handleExhibitList)
	s.route("GET /v1/exhibits/{id}", s.handleExhibit)
	s.route("GET /v1/report", s.handleReport)
	s.route("GET /v1/csv/{name}", s.handleCSV)
	s.route("POST /v1/query", s.handleQuery)
	for _, vr := range viewRoutes {
		s.route("POST "+vr.path, s.handleView(vr))
	}
	s.route("GET /metrics", cfg.Metrics.Handler().ServeHTTP)
	s.route("GET /debug/vars", cfg.Metrics.VarsHandler().ServeHTTP)
	return s, nil
}

// route mounts h under the Go 1.22 ServeMux pattern, wrapped in the
// middleware chain. The pattern (minus the method) doubles as the bounded-
// cardinality route label on metrics and logs.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	route := pattern[strings.IndexByte(pattern, ' ')+1:]
	if s.cfg.RatePerSecond > 0 {
		burst := s.cfg.RateBurst
		if burst <= 0 {
			burst = 1
		}
		tb, err := resilience.NewTokenBucket(burst, s.cfg.RatePerSecond, s.clock)
		if err != nil {
			panic(fmt.Sprintf("serve: building limiter for %s: %v", route, err))
		}
		s.limiters[route] = tb
	}
	s.mux.Handle(pattern, s.wrap(route, h))
}

// Handler returns the server's root handler (for tests and benchmarks that
// drive the mux without a listener).
func (s *Server) Handler() http.Handler { return s.mux }

// PurgeExhibitCache drops every memoized render, forcing the next request
// per key to re-render. The study registry is unaffected. Benchmarks use it
// to measure the cold path; operators can restart instead — corpora are
// deterministic, so there is no state worth keeping warm across restarts.
func (s *Server) PurgeExhibitCache() { s.cache.Purge() }

// wrap applies the middleware chain to one route: in-flight cap (503),
// per-route token bucket (429), request timeout, panic containment,
// latency/status metrics, and the access log.
func (s *Server) wrap(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.clock.Now()
		rw := &statusWriter{ResponseWriter: w}
		defer func() {
			elapsed := s.clock.Now().Sub(start)
			s.met.requests.With(route, strconv.Itoa(rw.status())).Inc()
			s.met.latency.With(route).ObserveDuration(elapsed)
			s.logAccess(r, route, rw, elapsed)
		}()
		// Panic containment: registered after the metrics defer so a
		// contained panic's 500 is still counted and logged. The daemon
		// keeps serving — one poisoned request never takes the process.
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Inc()
				s.logError(fmt.Sprintf("panic serving %s %s: %v", r.Method, route, rec))
				if rw.code == 0 {
					http.Error(rw, "internal server error", http.StatusInternalServerError)
				}
			}
		}()

		select {
		case s.inflight <- struct{}{}:
		default:
			s.met.shed.Inc()
			http.Error(rw, "server at max in-flight requests", http.StatusServiceUnavailable)
			return
		}
		defer func() { <-s.inflight }()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)

		if tb := s.limiters[route]; tb != nil && !tb.Allow() {
			s.met.ratelimited.With(route).Inc()
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, "rate limit exceeded", http.StatusTooManyRequests)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		if f := s.fire(chaos.PointRequest); f != nil {
			switch f.Kind {
			case chaos.KindLatency:
				if err := s.clock.Sleep(ctx, f.Latency); err != nil {
					s.writeError(rw, err)
					return
				}
			case chaos.KindCancel:
				// The handler proceeds with an already-cancelled context,
				// exercising deadline propagation end to end.
				cancel()
			case chaos.KindPanic:
				panic(chaos.PanicValue{Point: chaos.PointRequest})
			default:
				s.writeError(rw, chaos.Injected(chaos.PointRequest, f))
				return
			}
		}
		h(rw, r.WithContext(ctx))
	})
}

// Serve accepts connections on l until ctx is cancelled, then drains:
// in-flight requests get up to DrainTimeout to finish before the server
// closes. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: listener failed: %w", err)
	case <-ctx.Done():
	}
	//whpcvet:ignore ctxflow drain runs after ctx is already cancelled; deriving from it would cancel the drain instantly
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	return nil
}

// buildStudy materializes the study for a registry key, with its cache
// identity, threading harvest telemetry into the metrics registry for
// fault-profile keys.
func (s *Server) buildStudy(key StudyKey) (Resident, error) {
	// Builds outlast any one request (the registry shares them), so an
	// injected latency elapses on a background context.
	//whpcvet:ignore ctxflow builds are shared via the registry and must not die with the first requester's deadline
	if injected, err := s.fault(context.Background(), chaos.PointMaterialize); injected {
		return Resident{}, err
	}
	var cfg synth.Config
	switch key.Corpus {
	case CorpusDefault:
		cfg = synth.Default2017(key.Seed)
	case CorpusFlagship:
		cfg = synth.FlagshipSeries(key.Seed)
	case CorpusExtended:
		cfg = synth.ExtendedSystems(key.Seed)
	default:
		return Resident{}, fmt.Errorf("serve: unknown corpus %q (have %v)", key.Corpus, Corpora())
	}
	if key.Profile == "" {
		if s.cfg.SnapshotDir != "" {
			study, lineage, err := s.loadFromDir(key)
			if err == nil {
				s.met.snapshotLoads.Inc()
				return newResident(key, study, lineage), nil
			}
			// Missing, truncated, corrupt, or version-skewed snapshots all
			// degrade to synthesis: corpora are deterministic per key, so
			// the fallback serves identical bytes, just slower. Corrupt
			// files were retried once and quarantined by loadSnapshot; the
			// log line carries the path and failing section.
			s.met.snapshotFallbacks.Inc()
			s.logError(fmt.Sprintf("snapshot fallback for study (%s): synthesizing after %v", key, err))
		}
		study, err := repro.NewStudyFromConfig(cfg)
		if err != nil {
			return Resident{}, err
		}
		lineage := snap.SynthesizedLineage()
		// A synthesized base is byte-identical to the snapshot it replaced,
		// so the snapshot dir's year deltas apply to it just the same. It
		// is not compacted: only a base loaded from the dir is.
		if s.cfg.SnapshotDir != "" {
			lineage, _ = s.applyDeltas(study, lineage, s.deltaFiles(key))
		}
		return newResident(key, study, lineage), nil
	}
	study, err := repro.NewHarvestedStudy(cfg, key.Profile, repro.HarvestHooks{
		OnRetry:   s.met.harvestRetries.Inc,
		OnOutcome: func(outcome string) { s.met.harvestOutcomes.With(outcome).Inc() },
	})
	return newResident(key, study, snap.SynthesizedLineage()), err
}

// statusWriter captures the status code and body size for metrics and the
// access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// status returns the response code, defaulting to 200 for handlers that
// never called WriteHeader.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// accessRecord is one structured access-log line.
type accessRecord struct {
	Time    string  `json:"time"`
	Method  string  `json:"method"`
	Path    string  `json:"path"`
	Route   string  `json:"route"`
	Status  int     `json:"status"`
	Bytes   int     `json:"bytes"`
	Seconds float64 `json:"seconds"`
	Cache   string  `json:"cache,omitempty"`
	Remote  string  `json:"remote,omitempty"`
}

// logAccess writes one JSON line per request; a nil AccessLog disables it.
func (s *Server) logAccess(r *http.Request, route string, rw *statusWriter, elapsed time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	rec := accessRecord{
		Time:    s.clock.Now().UTC().Format(time.RFC3339Nano),
		Method:  r.Method,
		Path:    r.URL.RequestURI(),
		Route:   route,
		Status:  rw.status(),
		Bytes:   rw.bytes,
		Seconds: elapsed.Seconds(),
		Cache:   rw.Header().Get("X-Cache"),
		Remote:  r.RemoteAddr,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.logMu.Lock()
	_, _ = s.cfg.AccessLog.Write(line)
	s.logMu.Unlock()
}
