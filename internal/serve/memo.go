package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obs"
)

// lru is a bounded-by-its-owner least-recently-used table. It is not safe
// for concurrent use; its owner holds the lock.
type lru[K comparable, V any] struct {
	items map[K]*list.Element
	order *list.List // front = most recently used; values are *lruItem[K, V]
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any]() lru[K, V] {
	return lru[K, V]{items: make(map[K]*list.Element), order: list.New()}
}

// get returns key's value, refreshing its recency.
func (l *lru[K, V]) get(key K) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores key's value as the most recently used entry.
func (l *lru[K, V]) put(key K, val V) {
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruItem[K, V]).val = val
		return
	}
	l.items[key] = l.order.PushFront(&lruItem[K, V]{key: key, val: val})
}

// remove drops key, if present.
func (l *lru[K, V]) remove(key K) {
	if el, ok := l.items[key]; ok {
		l.order.Remove(el)
		delete(l.items, key)
	}
}

// trim drops least-recently-used entries until at most n remain, handing
// each to drop (which may be nil), and returns how many it dropped.
func (l *lru[K, V]) trim(n int, drop func(K, V)) int {
	dropped := 0
	for l.order.Len() > n && l.order.Len() > 0 {
		item := l.order.Remove(l.order.Back()).(*lruItem[K, V])
		delete(l.items, item.key)
		if drop != nil {
			drop(item.key, item.val)
		}
		dropped++
	}
	return dropped
}

func (l *lru[K, V]) len() int { return l.order.Len() }

// fetch says how a memo lookup was answered.
type fetch uint8

const (
	fetchHit    fetch = iota // a finished entry was resident
	fetchBuilt               // this caller ran the build
	fetchJoined              // this caller waited on another caller's build
)

// memo is a bounded table whose entries are built at most once among
// concurrent callers. It is the one fail-operational latch under whpcd:
// the study registry and the exhibit cache are thin wrappers over it.
//
//   - A build in flight holds one of the cap slots from the moment it
//     starts, evicting the least-recently-used finished entry if the
//     table is full; in-flight builds are never evicted, so each key is
//     built once among concurrent callers even when more than cap keys
//     are in flight.
//   - A failed build is not retained; every waiter gets its error, and
//     the next caller builds again.
//   - A panicking build releases its waiters with the memo's panicked
//     error before the panic resumes unwinding up the building caller's
//     stack.
//   - ctx bounds only a caller's wait on another caller's build, never the
//     build; a finished build wins over an expired ctx.
type memo[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	done   lru[K, V]
	flight map[K]*latch[V]

	panicked  error        // what waiters get when a build panics
	evicted   func(K, V)   // sees each finished entry the cap pushes out (may be nil)
	evictions *obs.Counter // finished entries pushed out by the cap
	resident  *obs.Gauge   // finished entries plus builds in flight
}

// latch is one build. done closes exactly once, after val and err are
// final.
type latch[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// newMemo returns a memo bounded to capacity entries (minimum 1). evicted
// may be nil; the metrics are created when nil.
func newMemo[K comparable, V any](capacity int, panicked error, evicted func(K, V), evictions *obs.Counter, resident *obs.Gauge) *memo[K, V] {
	if evictions == nil {
		evictions = new(obs.Counter)
	}
	if resident == nil {
		resident = new(obs.Gauge)
	}
	return &memo[K, V]{
		cap:       max(capacity, 1),
		done:      newLRU[K, V](),
		flight:    make(map[K]*latch[V]),
		panicked:  panicked,
		evicted:   evicted,
		evictions: evictions,
		resident:  resident,
	}
}

// get returns key's value, running build when the key is neither resident
// nor in flight. build runs with no memo lock held.
func (m *memo[K, V]) get(ctx context.Context, key K, build func() (V, error)) (V, fetch, error) {
	m.mu.Lock()
	if v, ok := m.done.get(key); ok {
		m.mu.Unlock()
		return v, fetchHit, nil
	}
	if l, ok := m.flight[key]; ok {
		m.mu.Unlock()
		v, err := l.wait(ctx)
		return v, fetchJoined, err
	}
	l := &latch[V]{done: make(chan struct{})}
	m.flight[key] = l
	m.trimLocked()
	m.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// build panicked: fail the latch before the panic unwinds
			// further, so no waiter is left blocked on done.
			var zero V
			l.val, l.err = zero, m.panicked
		}
		m.mu.Lock()
		delete(m.flight, key)
		if l.err == nil {
			m.done.put(key, l.val)
		}
		m.trimLocked()
		m.mu.Unlock()
		close(l.done)
	}()
	l.val, l.err = build()
	finished = true
	return l.val, fetchBuilt, l.err
}

// trimLocked evicts finished entries until they and the builds in flight
// fit the cap, and republishes occupancy. Callers hold m.mu.
func (m *memo[K, V]) trimLocked() {
	m.evictions.Add(int64(m.done.trim(m.cap-len(m.flight), m.evicted)))
	m.resident.Set(int64(m.done.len() + len(m.flight)))
}

// purge drops every finished entry, oldest first, handing each to drop;
// builds in flight are unaffected. Purged entries are not evictions.
func (m *memo[K, V]) purge(drop func(K, V)) {
	m.mu.Lock()
	m.done.trim(0, drop)
	m.resident.Set(int64(len(m.flight)))
	m.mu.Unlock()
}

// len returns the number of finished entries plus builds in flight.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	n := m.done.len() + len(m.flight)
	m.mu.Unlock()
	return n
}

// wait blocks until the build finishes or ctx expires. A finished build
// wins over a cancelled context: when both channels are ready, Go's select
// picks randomly, and replay determinism requires completed work to be
// served, not raced.
func (l *latch[V]) wait(ctx context.Context) (V, error) {
	select {
	case <-l.done:
		return l.val, l.err
	default:
	}
	select {
	case <-l.done:
		return l.val, l.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}
