package serve

import (
	"context"
	"errors"
	"strconv"
	"strings"

	"repro"
	"repro/internal/obs"
	"repro/internal/snap"
)

// ErrBuildPanicked is what coalesced waiters receive when the caller
// actually materializing their shared study panicked. The panic itself
// propagates up the building caller's stack (where the middleware recover
// counts it); waiters get this typed error instead of a hang.
var ErrBuildPanicked = errors.New("serve: study materialization panicked")

// Corpus names accepted by the API: each maps to one of the calibrated
// synth configurations.
const (
	CorpusDefault  = "default"  // the paper's main 2017 nine-conference corpus
	CorpusFlagship = "flagship" // the §3.4 SC/ISC 2016-2020 series
	CorpusExtended = "extended" // the future-work extended systems corpus
)

// Corpora lists the accepted corpus names in a fixed order.
func Corpora() []string {
	return []string{CorpusDefault, CorpusFlagship, CorpusExtended}
}

// StudyKey identifies one materialized Study: the generator seed, the
// corpus calibration, and the fault profile of the harvested construction
// path ("" for a pristine, unharvested corpus). A key alone does not fix a
// study's bytes — a study re-materialized under it absorbs whatever year
// deltas the snapshot directory holds by then — so the exhibit cache keys
// on a Resident's ID, which adds the inputs' lineage.
type StudyKey struct {
	Seed    uint64
	Corpus  string
	Profile string
}

// String renders the key in a stable, human-readable form used in cache
// keys and access logs.
func (k StudyKey) String() string {
	p := k.Profile
	if p == "" {
		p = "none"
	}
	var b strings.Builder
	b.WriteString("seed=")
	b.WriteString(strconv.FormatUint(k.Seed, 10))
	b.WriteString(",corpus=")
	b.WriteString(k.Corpus)
	b.WriteString(",profile=")
	b.WriteString(p)
	return b.String()
}

// Resident is one materialized study as the registry holds it.
type Resident struct {
	Study *repro.Study
	// ID is the study's cache identity, fixed at materialization: the key
	// plus the lineage (snap.Lineage) of the inputs the study actually
	// absorbed — its base snapshot's checksum, or a synthesized base, and
	// each applied year delta's file name and checksum. Two materializations
	// share an ID exactly when they were built from the same inputs, so the
	// exhibit cache keys renders on it.
	ID string
}

// newResident pairs a study with the identity of its key and lineage.
func newResident(key StudyKey, st *repro.Study, lineage snap.Lineage) Resident {
	return Resident{Study: st, ID: key.String() + ",lineage=" + lineage.String()}
}

// StudyRegistry lazily materializes and LRU-bounds studies per StudyKey in
// a memo. Get on a resident key is a map hit; Get on a new key generates
// the corpus (and runs the harvest, for fault-profile keys) exactly once
// even under concurrent identical requests, then caches the study until it
// is evicted as least-recently-used.
type StudyRegistry struct {
	m            *memo[StudyKey, Resident]
	build        func(StudyKey) (Resident, error)
	materialized *obs.Counter
}

// NewStudyRegistry returns a registry bounded to capacity resident studies
// (minimum 1), materializing misses with build and reporting occupancy
// through the given metrics (any of which may be nil).
func NewStudyRegistry(capacity int, build func(StudyKey) (Resident, error), materialized, evictions *obs.Counter, resident *obs.Gauge) *StudyRegistry {
	if materialized == nil {
		materialized = new(obs.Counter)
	}
	return &StudyRegistry{
		m:            newMemo[StudyKey, Resident](capacity, ErrBuildPanicked, nil, evictions, resident),
		build:        build,
		materialized: materialized,
	}
}

// Get returns the study for key, materializing it on first use. Concurrent
// Gets for the same key share one materialization. A failed materialization
// is not retained: the next Get for that key tries again.
//
// ctx bounds only this caller's wait on an in-flight materialization; the
// build itself is never cancelled, because other waiters (and future
// requests) still want the study. If the build panics, its waiters get
// ErrBuildPanicked before the panic resumes unwinding, so no waiter hangs
// and the panic is still counted by the middleware recover.
func (r *StudyRegistry) Get(ctx context.Context, key StudyKey) (Resident, error) {
	res, how, err := r.m.get(ctx, key, func() (Resident, error) { return r.build(key) })
	if how == fetchBuilt && err == nil {
		r.materialized.Inc()
	}
	return res, err
}

// Len returns the number of resident entries (materialized or in flight).
func (r *StudyRegistry) Len() int { return r.m.len() }
