package ingest

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/scholar"
)

// Outcome classifies how one researcher's bibliometric harvest ended.
type Outcome int8

const (
	// OutcomeAbandoned: neither service yielded data.
	OutcomeAbandoned Outcome = iota
	// OutcomeLinkedGS: the Google Scholar profile was linked (the paper's
	// 68.3% happy path).
	OutcomeLinkedGS
	// OutcomeFallbackS2: GS was exhausted by faults (retries spent or
	// breaker open) but Semantic Scholar supplied publications — the
	// degraded-coverage path.
	OutcomeFallbackS2
	// OutcomeS2Only: GS authoritatively has no profile (the paper's
	// unlinkable 31.7%); S2 supplied publications as designed.
	OutcomeS2Only
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeLinkedGS:
		return "linked-gs"
	case OutcomeFallbackS2:
		return "fallback-s2"
	case OutcomeS2Only:
		return "s2-only"
	case OutcomeAbandoned:
		return "abandoned"
	default:
		return fmt.Sprintf("outcome(%d)", int8(o))
	}
}

// Result is the harvested record for one researcher.
type Result struct {
	Outcome Outcome
	// HasGS / Profile carry the linked GS profile when Outcome is
	// OutcomeLinkedGS.
	HasGS   bool
	Profile scholar.Profile
	// HasS2 / S2Pubs carry the S2 record whenever the S2 lookup
	// succeeded (all outcomes but abandoned, and GS-linked researchers
	// whose S2 call happened to fail).
	HasS2  bool
	S2Pubs int
}

// HarvestReport aggregates a harvest run. All counters are sums over
// deterministic per-worker runs, so for a fixed seed, profile and worker
// count the whole report — including its String rendering — is
// byte-identical across runs.
type HarvestReport struct {
	Profile string
	Seed    uint64
	Workers int

	Total      int
	LinkedGS   int
	FallbackS2 int
	S2Only     int
	Abandoned  int
	S2Misses   int // GS-linked researchers whose S2 lookup failed

	Retries     int // attempts beyond the first, both services
	Transients  int
	Timeouts    int
	RateLimited int
	NotFound    int // authoritative GS misses (incl. injected vanishes)

	BreakerTrips      int
	BreakerRecoveries int
	Shed              int // calls rejected while a breaker was open

	// VirtualElapsed is the longest per-worker logical duration: the
	// harvest's simulated wall time.
	VirtualElapsed time.Duration

	// Outcomes maps researcher id to its harvested record.
	Outcomes map[string]Result
}

// EffectiveLinkage is the fraction of researchers for whom the harvest
// obtained bibliometric data from either service.
func (r *HarvestReport) EffectiveLinkage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Total-r.Abandoned) / float64(r.Total)
}

// GSCoverage is the fraction linked to a full Google Scholar profile.
func (r *HarvestReport) GSCoverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.LinkedGS) / float64(r.Total)
}

// String renders the aggregate counters (not the per-id outcomes) in a
// fixed order; equal reports render byte-identically.
func (r *HarvestReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harvest profile=%s seed=%d workers=%d\n", r.Profile, r.Seed, r.Workers)
	fmt.Fprintf(&b, "  researchers:   %d\n", r.Total)
	fmt.Fprintf(&b, "  linked (GS):   %d\n", r.LinkedGS)
	fmt.Fprintf(&b, "  fallback (S2): %d\n", r.FallbackS2)
	fmt.Fprintf(&b, "  s2-only:       %d\n", r.S2Only)
	fmt.Fprintf(&b, "  abandoned:     %d\n", r.Abandoned)
	fmt.Fprintf(&b, "  s2 misses:     %d\n", r.S2Misses)
	fmt.Fprintf(&b, "  effective linkage: %.4f\n", r.EffectiveLinkage())
	fmt.Fprintf(&b, "  gs coverage:       %.4f\n", r.GSCoverage())
	fmt.Fprintf(&b, "  retries=%d transient=%d timeout=%d rate-limited=%d not-found=%d\n",
		r.Retries, r.Transients, r.Timeouts, r.RateLimited, r.NotFound)
	fmt.Fprintf(&b, "  breaker: trips=%d recoveries=%d shed=%d\n",
		r.BreakerTrips, r.BreakerRecoveries, r.Shed)
	fmt.Fprintf(&b, "  virtual elapsed: %s\n", r.VirtualElapsed)
	return b.String()
}

// merge folds a per-worker report into the aggregate.
func (r *HarvestReport) merge(w *HarvestReport) {
	r.Total += w.Total
	r.LinkedGS += w.LinkedGS
	r.FallbackS2 += w.FallbackS2
	r.S2Only += w.S2Only
	r.Abandoned += w.Abandoned
	r.S2Misses += w.S2Misses
	r.Retries += w.Retries
	r.Transients += w.Transients
	r.Timeouts += w.Timeouts
	r.RateLimited += w.RateLimited
	r.NotFound += w.NotFound
	r.BreakerTrips += w.BreakerTrips
	r.BreakerRecoveries += w.BreakerRecoveries
	r.Shed += w.Shed
	if w.VirtualElapsed > r.VirtualElapsed {
		r.VirtualElapsed = w.VirtualElapsed
	}
	for id, res := range w.Outcomes {
		r.Outcomes[id] = res
	}
}

// Apply projects the harvest onto a copy of the dataset: each researcher
// keeps only the bibliometric data the harvest actually obtained for them.
// Under the clean profile this reproduces the corpus exactly; under faulty
// profiles it yields the degraded-coverage dataset the analyses then run
// on. Conferences and papers are shared (they are not mutated); person
// records are copied.
func Apply(d *dataset.Dataset, rep *HarvestReport) *dataset.Dataset {
	out := dataset.New()
	for _, c := range d.Conferences {
		if err := out.AddConference(c); err != nil {
			panic(err) // same IDs as a valid dataset
		}
	}
	for _, p := range d.Papers {
		if err := out.AddPaper(p); err != nil {
			panic(err)
		}
	}
	for _, p := range d.Persons {
		cp := *p
		if res, ok := rep.Outcomes[string(p.ID)]; ok {
			cp.HasGSProfile = res.HasGS
			cp.GS = res.Profile
			cp.HasS2 = res.HasS2
			cp.S2Pubs = res.S2Pubs
		}
		if err := out.AddPerson(&cp); err != nil {
			panic(err)
		}
	}
	return out
}
