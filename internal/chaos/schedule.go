package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trigger arms one fault: the Hit'th Fire of Point (1-based, counted per
// point) returns Fault instead of nil.
type Trigger struct {
	Point string
	Hit   int
	Fault Fault
}

// Schedule is a replayable fault plan: the seed and profile that generated
// it plus the armed triggers, sorted by (point, hit). Two schedules built
// from the same seed and profile are deeply equal, which is the whole
// determinism story — a failing chaos run is reproduced by its seed, not
// by a core dump.
type Schedule struct {
	Seed     uint64
	Profile  string
	Triggers []Trigger
}

// String renders the plan compactly for logs and failure messages, e.g.
// "chaos[flaky-serve seed=7]: serve.render#3=error serve.request#1=panic".
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos[%s seed=%d]:", s.Profile, s.Seed)
	for _, t := range s.Triggers {
		fmt.Fprintf(&b, " %s#%d=%s", t.Point, t.Hit, t.Fault.Kind)
	}
	return b.String()
}

// Profile declares the fault mix schedules are drawn from: which points
// may fire, which kinds they draw, how many triggers to arm, and the hit
// horizon the ordinals are drawn over. The same profile and seed always
// generate the same schedule.
type Profile struct {
	Name string
	// Points are the candidate injection points, in a fixed order (the
	// order is part of the deterministic draw).
	Points []string
	// Kinds are the candidate fault kinds, in a fixed order.
	Kinds []Kind
	// Faults is how many distinct (point, hit) triggers to arm.
	Faults int
	// Horizon bounds the hit ordinals: each trigger arms a hit in
	// [1, Horizon]. Runs that never reach an armed ordinal simply do not
	// fire it — the schedule records intent, the injector records fact.
	Horizon int
	// Latency is the stall magnitude KindLatency triggers carry.
	Latency time.Duration
	// TornBytes is the truncation magnitude KindTorn triggers carry.
	TornBytes int
}

// Schedule deterministically generates the fault plan for seed: the same
// (profile, seed) pair always yields an identical schedule. Draws come
// from a PCG stream keyed by the seed and the profile name, so two
// profiles never share a fault sequence even under the same seed.
func (p Profile) Schedule(seed uint64) *Schedule {
	h := fnv.New64a()
	h.Write([]byte(p.Name)) //whpcvet:ignore errcheck hash.Hash.Write never returns an error (hash package contract)
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))

	horizon := p.Horizon
	if horizon < 1 {
		horizon = 1
	}
	armed := make(map[string]bool, p.Faults) // "point#hit" membership, never iterated
	sched := &Schedule{Seed: seed, Profile: p.Name}
	if len(p.Points) == 0 || len(p.Kinds) == 0 {
		return sched
	}
	// Cap the draw loop: with Faults close to len(Points)*Horizon the
	// rejection sampling could spin, so give up after a generous budget
	// and return the triggers armed so far (still deterministic).
	for tries := 0; len(sched.Triggers) < p.Faults && tries < p.Faults*64; tries++ {
		point := p.Points[rng.IntN(len(p.Points))]
		hit := 1 + rng.IntN(horizon)
		key := fmt.Sprintf("%s#%d", point, hit)
		if armed[key] {
			continue
		}
		armed[key] = true
		kind := p.Kinds[rng.IntN(len(p.Kinds))]
		sched.Triggers = append(sched.Triggers, Trigger{
			Point: point,
			Hit:   hit,
			Fault: Fault{Kind: kind, Latency: p.Latency, TornBytes: p.TornBytes},
		})
	}
	sort.Slice(sched.Triggers, func(i, j int) bool {
		if sched.Triggers[i].Point != sched.Triggers[j].Point {
			return sched.Triggers[i].Point < sched.Triggers[j].Point
		}
		return sched.Triggers[i].Hit < sched.Triggers[j].Hit
	})
	return sched
}

// Event records one fired fault: the point, the per-point hit ordinal it
// fired on, and the kind. Given the same schedule and the same sequence
// of Fire calls, the fired-event log is identical run to run.
type Event struct {
	Point string
	Hit   int
	Kind  Kind
}

// String renders "serve.render#3=error".
func (e Event) String() string {
	return fmt.Sprintf("%s#%d=%s", e.Point, e.Hit, e.Kind)
}

// Scheduled is the schedule-driven Injector: it counts hits per point and
// fires a trigger when its armed ordinal comes up. It is safe for
// concurrent use; determinism of the fired sequence additionally requires
// the Fire call sequence itself to be deterministic (sequential request
// streams in the chaos suite, Workers=1 harvests).
type Scheduled struct {
	mu    sync.Mutex
	hits  map[string]int
	armed map[string]map[int]*Fault
	fired []Event
}

// NewScheduled arms a fresh injector from the schedule.
func NewScheduled(s *Schedule) *Scheduled {
	inj := &Scheduled{
		hits:  make(map[string]int),
		armed: make(map[string]map[int]*Fault),
	}
	for i := range s.Triggers {
		t := s.Triggers[i]
		byHit := inj.armed[t.Point]
		if byHit == nil {
			byHit = make(map[int]*Fault)
			inj.armed[t.Point] = byHit
		}
		f := t.Fault
		byHit[t.Hit] = &f
	}
	return inj
}

// Fire implements Injector: the nth call for a point returns the fault
// armed at ordinal n, or nil.
func (s *Scheduled) Fire(point string) *Fault {
	s.mu.Lock()
	s.hits[point]++
	n := s.hits[point]
	f := s.armed[point][n]
	if f != nil {
		s.fired = append(s.fired, Event{Point: point, Hit: n, Kind: f.Kind})
	}
	s.mu.Unlock()
	return f
}

// Hits returns how many times point has fired (armed or not).
func (s *Scheduled) Hits(point string) int {
	s.mu.Lock()
	n := s.hits[point]
	s.mu.Unlock()
	return n
}

// Fired returns the fired-event log in fire order.
func (s *Scheduled) Fired() []Event {
	s.mu.Lock()
	out := append([]Event(nil), s.fired...)
	s.mu.Unlock()
	return out
}

// FiredString renders the fired log as one space-joined line, the compact
// form replay assertions compare.
func (s *Scheduled) FiredString() string {
	events := s.Fired()
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// --- stock profiles ----------------------------------------------------

// ServeProfile targets the request-serving layer: request handling,
// exhibit renders, study materializations, and clock advances, with every
// kind the serve sites can express. Horizon is sized for a few dozen
// requests.
func ServeProfile() Profile {
	return Profile{
		Name:      "serve",
		Points:    []string{PointRequest, PointRender, PointMaterialize, PointClock},
		Kinds:     []Kind{KindError, KindLatency, KindPanic, KindCancel},
		Faults:    10,
		Horizon:   24,
		Latency:   time.Millisecond,
		TornBytes: 64,
	}
}

// SnapProfile targets the snapshot warm-boot path: file reads (errors and
// torn reads) and section decodes. Horizon is small — a boot touches the
// file a handful of times.
func SnapProfile() Profile {
	return Profile{
		Name:      "snap",
		Points:    []string{PointSnapRead, PointSnapDecode},
		Kinds:     []Kind{KindError, KindTorn},
		Faults:    4,
		Horizon:   6,
		TornBytes: 128,
	}
}

// IngestProfile targets the harvest worker chain's lookup point.
func IngestProfile() Profile {
	return Profile{
		Name:    "ingest",
		Points:  []string{PointIngestLookup, PointClock},
		Kinds:   []Kind{KindError, KindLatency},
		Faults:  8,
		Horizon: 64,
		Latency: time.Millisecond,
	}
}
