// Package ingest implements the resilient bibliometric harvester: the
// ingestion layer that links every researcher in a corpus to the simulated
// Google Scholar and Semantic Scholar services through the fault-injection
// decorators (internal/faulty) and the resilience stack
// (internal/resilience). It mirrors the paper's dual-service design — try
// the rich Google Scholar profile first, fall back to Semantic Scholar's
// universal-coverage publication counts — and reports exactly how much of
// the corpus survived the weather (linked / degraded / abandoned), so the
// analysis layer can quantify what ran on partial data.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/faulty"
	"repro/internal/resilience"
	"repro/internal/scholar"
)

// Config tunes the harvester. The zero value takes the documented
// defaults; Seed and Profile select the reproducible fault universe.
type Config struct {
	// Workers is the fan-out width of the worker pool (default 4). Each
	// worker owns a private resilience stack (virtual clock, injectors,
	// breakers, limiter, retryer) over a static round-robin share of the
	// id list, which is what makes the run deterministic: per-worker
	// work is sequential, and the merged report is order-independent.
	Workers int
	// Seed drives every random draw (fault injection and backoff jitter).
	Seed uint64
	// Profile is the fault universe to harvest under (default clean).
	Profile faulty.FaultProfile

	// Hooks receives live harvest telemetry as the workers progress, so a
	// serving layer can export retry and outcome counters without waiting
	// for the final report. The zero value disables observation.
	Hooks Hooks

	// Chaos is the deterministic fault injector consulted once per lookup
	// attempt at chaos.PointIngestLookup, upstream of the per-service
	// faulty.Injector (nil means no injection). Latency faults stall the
	// attempt on the worker's virtual clock; every other kind degrades to a
	// typed injected error that rides the same retry/breaker path as an
	// organic transient. Replaying a chaos schedule hit-for-hit requires
	// Workers=1: per-point hit ordinals are counted globally, so only a
	// single sequential worker makes the Fire sequence — and therefore the
	// fired-event log — identical run to run. (The *report* stays
	// deterministic at any width; only fault *placement* needs Workers=1.)
	Chaos chaos.Injector
}

// Hooks are optional harvest-telemetry callbacks. They fire concurrently
// from worker goroutines and must be safe for concurrent use; nil funcs are
// skipped. Hooks observe the run — they must not feed state back into it,
// or the harvest's determinism guarantee is forfeit.
type Hooks struct {
	// OnRetry fires once per retried attempt, either service.
	OnRetry func()
	// OnOutcome fires once per researcher with the final harvest outcome.
	OnOutcome func(Outcome)
}

// Each worker's resilience stack is tuned the same for every harvest; the
// backoff and breaker times run on the worker's virtual clock.
const (
	maxAttempts   = 4 // per service per researcher
	backoffBase   = 4 * time.Millisecond
	backoffCap    = 50 * time.Millisecond
	perAttempt    = time.Second // per-attempt context deadline
	ratePerSecond = 2000        // per-worker token bucket
	rateBurst     = 50
)

// breakerConfig configures each worker's per-service circuit breaker.
var breakerConfig = resilience.BreakerConfig{FailureThreshold: 3, Cooldown: 30 * time.Millisecond, HalfOpenProbes: 1}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Profile.Name == "" {
		c.Profile = faulty.Clean()
	}
	c.Chaos = chaos.Or(c.Chaos)
	return c
}

// Harvester fans researcher lookups across a bounded worker pool, driving
// each through retry/backoff, circuit breaking and rate limiting.
type Harvester struct {
	gs  *scholar.Directory
	s2  *scholar.SemanticScholar
	cfg Config
}

// New returns a harvester over the two bibliometric services.
func New(gs *scholar.Directory, s2 *scholar.SemanticScholar, cfg Config) (*Harvester, error) {
	if gs == nil || s2 == nil {
		return nil, fmt.Errorf("ingest: nil bibliometric service")
	}
	return &Harvester{gs: gs, s2: s2, cfg: cfg.withDefaults()}, nil
}

// Run harvests the given researcher ids (deduplicated and sorted first)
// and returns the aggregate report. The same ids, seed, profile and
// worker count always yield an identical report.
func (h *Harvester) Run(ctx context.Context, ids []string) (*HarvestReport, error) {
	uniq := dedupeSorted(ids)
	nw := h.cfg.Workers
	if nw > len(uniq) && len(uniq) > 0 {
		nw = len(uniq)
	}
	agg := &HarvestReport{
		Profile:  h.cfg.Profile.Name,
		Seed:     h.cfg.Seed,
		Workers:  h.cfg.Workers,
		Outcomes: make(map[string]Result, len(uniq)),
	}
	if len(uniq) == 0 {
		return agg, nil
	}
	workers := make([]*worker, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		var share []string
		for j := i; j < len(uniq); j += nw {
			share = append(share, uniq[j])
		}
		workers[i] = h.newWorker(i, len(share))
		wg.Add(1)
		go func(i int, w *worker, share []string) {
			defer wg.Done()
			errs[i] = w.run(ctx, share)
		}(i, workers[i], share)
	}
	wg.Wait()
	for i, w := range workers {
		if errs[i] != nil {
			return nil, fmt.Errorf("ingest: worker %d: %w", i, errs[i])
		}
		agg.merge(&w.rep)
	}
	return agg, nil
}

// worker owns one sequential slice of the harvest and a private
// resilience stack on a virtual clock.
type worker struct {
	clock *resilience.VirtualClock
	start time.Time
	gs    *sourceChain
	s2    *sourceChain
	rep   HarvestReport
	hooks Hooks
	chaos chaos.Injector
}

func (h *Harvester) newWorker(index, share int) *worker {
	start := time.Unix(0, 0).UTC()
	clock := resilience.NewVirtualClock(start)
	w := &worker{clock: clock, start: start, hooks: h.cfg.Hooks, chaos: h.cfg.Chaos}
	w.rep.Outcomes = make(map[string]Result, share)
	// Distinct, deterministic seeds per worker and per service.
	mix := func(tag uint64) uint64 {
		return (h.cfg.Seed ^ tag) * 0x9e3779b97f4a7c15
	}
	w.gs = h.newChain(w, faulty.GSSource{Dir: h.gs}, h.cfg.Profile.GS, mix(uint64(index)<<1|1))
	w.s2 = h.newChain(w, faulty.S2Source{S2: h.s2}, h.cfg.Profile.S2, mix(uint64(index)<<1|0x10000))
	return w
}

// sourceChain is one service's full resilience stack: rate limiter, then
// circuit breaker, then fault-injected lookup, all inside the retry loop.
type sourceChain struct {
	w       *worker
	inj     *faulty.Injector
	breaker *resilience.Breaker
	limiter *resilience.TokenBucket
	retry   *resilience.Retryer
}

func (h *Harvester) newChain(w *worker, src faulty.ProfileSource, spec faulty.FaultSpec, seed uint64) *sourceChain {
	c := &sourceChain{
		w:       w,
		inj:     faulty.NewInjector(src, spec, seed, w.clock),
		breaker: resilience.NewBreaker(breakerConfig, w.clock),
	}
	var err error
	c.limiter, err = resilience.NewTokenBucket(rateBurst, ratePerSecond, w.clock)
	if err != nil {
		panic(err) // the rate and burst are positive constants
	}
	c.retry = &resilience.Retryer{
		MaxAttempts: maxAttempts,
		Backoff: &resilience.Backoff{
			Base: backoffBase,
			Cap:  backoffCap,
			Rand: rand.New(rand.NewPCG(h.cfg.Seed, seed)),
		},
		PerAttempt: perAttempt,
		Clock:      w.clock,
		OnRetry: func(int, error, time.Duration) {
			w.rep.Retries++
			if w.hooks.OnRetry != nil {
				w.hooks.OnRetry()
			}
		},
	}
	return c
}

// lookup drives one researcher through the chain.
func (c *sourceChain) lookup(ctx context.Context, id string) (scholar.Profile, error) {
	var prof scholar.Profile
	err := c.retry.Do(ctx, func(ctx context.Context) error {
		if _, err := c.limiter.Wait(ctx); err != nil {
			return err
		}
		if err := c.breaker.Allow(); err != nil {
			// An open breaker sheds the whole lookup: not retryable
			// against this service, fall back instead.
			return resilience.Permanent(err)
		}
		if f := c.w.chaos.Fire(chaos.PointIngestLookup); f != nil {
			switch f.Kind {
			case chaos.KindLatency:
				// The attempt still proceeds — just late, on the worker's
				// virtual clock.
				if err := c.w.clock.Sleep(ctx, f.Latency); err != nil {
					return err
				}
			default:
				// Every other kind degrades to a typed injected error that
				// rides the same retry/breaker path as an organic transient.
				err := chaos.Injected(chaos.PointIngestLookup, f)
				c.breaker.Record(err)
				return err
			}
		}
		p, err := c.inj.Lookup(ctx, id)
		c.classify(err)
		// An authoritative not-found is a healthy response: it must not
		// push the breaker toward open.
		if err == nil || resilience.IsPermanent(err) {
			c.breaker.Record(nil)
		} else {
			c.breaker.Record(err)
		}
		if err != nil {
			return err
		}
		prof = p
		return nil
	})
	return prof, err
}

// classify tallies an attempt error into the worker report.
func (c *sourceChain) classify(err error) {
	var rl *faulty.RateLimitError
	switch {
	case err == nil:
	case errors.As(err, &rl):
		c.w.rep.RateLimited++
	case errors.Is(err, faulty.ErrTimeout):
		c.w.rep.Timeouts++
	case errors.Is(err, faulty.ErrTransient), errors.Is(err, faulty.ErrOutage):
		c.w.rep.Transients++
	case errors.Is(err, faulty.ErrNotFound):
		c.w.rep.NotFound++
	}
}

// run processes the worker's id share sequentially.
func (w *worker) run(ctx context.Context, ids []string) error {
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		gsProf, gsErr := w.gs.lookup(ctx, id)
		if gsErr != nil && errors.Is(gsErr, context.Canceled) {
			return gsErr
		}
		s2Prof, s2Err := w.s2.lookup(ctx, id)
		if s2Err != nil && errors.Is(s2Err, context.Canceled) {
			return s2Err
		}
		res := Result{}
		if gsErr == nil {
			res.HasGS = true
			res.Profile = gsProf
		}
		if s2Err == nil {
			res.HasS2 = true
			res.S2Pubs = s2Prof.Publications
		}
		switch {
		case res.HasGS:
			res.Outcome = OutcomeLinkedGS
			w.rep.LinkedGS++
			if !res.HasS2 {
				w.rep.S2Misses++
			}
		case res.HasS2 && errors.Is(gsErr, faulty.ErrNotFound):
			res.Outcome = OutcomeS2Only
			w.rep.S2Only++
		case res.HasS2:
			res.Outcome = OutcomeFallbackS2
			w.rep.FallbackS2++
		default:
			res.Outcome = OutcomeAbandoned
			w.rep.Abandoned++
		}
		w.rep.Total++
		w.rep.Outcomes[id] = res
		if w.hooks.OnOutcome != nil {
			w.hooks.OnOutcome(res.Outcome)
		}
	}
	for _, ch := range []*sourceChain{w.gs, w.s2} {
		st := ch.breaker.Stats()
		w.rep.BreakerTrips += st.Trips
		w.rep.BreakerRecoveries += st.Recoveries
		w.rep.Shed += st.Shed
	}
	w.rep.VirtualElapsed = w.clock.Elapsed(w.start)
	return nil
}

// dedupeSorted returns the unique ids in sorted order.
func dedupeSorted(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	n := 0
	for i, id := range out {
		if i == 0 || id != out[n-1] {
			out[n] = id
			n++
		}
	}
	return out[:n]
}
