package serve

import (
	"container/list"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"

	"repro"
	"repro/internal/obs"
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
// path ("" for a pristine, unharvested corpus). Studies are immutable once
// built, so a key fully determines every byte any exhibit of that study
// will ever render — which is what lets the exhibit cache key on it.
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

// studyEntry materializes its study at most once. The done channel closes
// when materialization finished; waiting happens outside every registry
// lock, so a slow corpus generation never blocks lookups of other keys.
type studyEntry struct {
	key   StudyKey
	done  chan struct{}
	study *repro.Study
	err   error
}

// StudyRegistry lazily materializes and LRU-bounds Study instances per
// StudyKey. Get on a resident key is a map hit; Get on a new key generates
// the corpus (and runs the harvest, for fault-profile keys) exactly once
// even under concurrent identical requests, then caches the study until it
// is evicted as least-recently-used.
type StudyRegistry struct {
	cap   int
	build func(StudyKey) (*repro.Study, error)

	mu      sync.Mutex
	entries map[StudyKey]*list.Element
	lru     *list.List // front = most recently used; values are *studyEntry

	materialized *obs.Counter
	evictions    *obs.Counter
	resident     *obs.Gauge
}

// NewStudyRegistry returns a registry bounded to capacity resident studies
// (minimum 1), materializing misses with build and reporting occupancy
// through the given metrics (any of which may be nil).
func NewStudyRegistry(capacity int, build func(StudyKey) (*repro.Study, error), materialized, evictions *obs.Counter, resident *obs.Gauge) *StudyRegistry {
	if capacity < 1 {
		capacity = 1
	}
	if materialized == nil {
		materialized = new(obs.Counter)
	}
	if evictions == nil {
		evictions = new(obs.Counter)
	}
	if resident == nil {
		resident = new(obs.Gauge)
	}
	return &StudyRegistry{
		cap:          capacity,
		build:        build,
		entries:      make(map[StudyKey]*list.Element),
		lru:          list.New(),
		materialized: materialized,
		evictions:    evictions,
		resident:     resident,
	}
}

// Get returns the study for key, materializing it on first use. Concurrent
// Gets for the same key share one materialization. A failed materialization
// is not retained: the next Get for that key tries again.
//
// ctx bounds only this caller's wait on an in-flight materialization; the
// build itself is never cancelled, because other waiters (and future
// requests) still want the study. If the build panics, the latch is failed
// with ErrBuildPanicked before the panic resumes unwinding, so no waiter
// hangs and the panic is still counted by the middleware recover.
func (r *StudyRegistry) Get(ctx context.Context, key StudyKey) (*repro.Study, error) {
	e, fresh := r.entry(key)
	if fresh {
		finished := false
		defer func() {
			if !finished {
				e.err = ErrBuildPanicked
				r.forget(key, e)
				close(e.done)
			}
		}()
		e.study, e.err = r.build(key)
		finished = true
		if e.err == nil {
			r.materialized.Inc()
		}
		close(e.done)
	} else {
		// A finished materialization wins over a cancelled context: when
		// both channels are ready, Go's select picks randomly, and replay
		// determinism requires completed work to be served, not raced.
		select {
		case <-e.done:
		default:
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	if e.err != nil {
		r.forget(key, e)
		return nil, e.err
	}
	return e.study, nil
}

// Len returns the number of resident entries (materialized or in flight).
func (r *StudyRegistry) Len() int {
	r.mu.Lock()
	n := r.lru.Len()
	r.mu.Unlock()
	return n
}

// entry returns the LRU entry for key, creating (and possibly evicting)
// under the registry lock. fresh reports that this caller must materialize.
func (r *StudyRegistry) entry(key StudyKey) (e *studyEntry, fresh bool) {
	r.mu.Lock()
	if el, ok := r.entries[key]; ok {
		r.lru.MoveToFront(el)
		e = el.Value.(*studyEntry)
		r.mu.Unlock()
		return e, false
	}
	e = &studyEntry{key: key, done: make(chan struct{})}
	r.entries[key] = r.lru.PushFront(e)
	for r.lru.Len() > r.cap {
		oldest := r.lru.Back()
		victim := oldest.Value.(*studyEntry)
		r.lru.Remove(oldest)
		delete(r.entries, victim.key)
		r.evictions.Inc()
	}
	r.resident.Set(int64(r.lru.Len()))
	r.mu.Unlock()
	return e, true
}

// forget drops a failed materialization so the error is not pinned in the
// LRU (the entry may already have been evicted or replaced; only the exact
// entry is removed).
func (r *StudyRegistry) forget(key StudyKey, e *studyEntry) {
	r.mu.Lock()
	if el, ok := r.entries[key]; ok && el.Value.(*studyEntry) == e {
		r.lru.Remove(el)
		delete(r.entries, key)
		r.resident.Set(int64(r.lru.Len()))
	}
	r.mu.Unlock()
}
