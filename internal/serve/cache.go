package serve

import (
	"context"
	"errors"
	"sync"

	"repro/internal/obs"
)

// ErrRenderPanicked is what coalesced waiters receive when the caller
// actually executing their shared render panicked. The panic itself
// propagates up the executing caller's stack (where the middleware recover
// counts it in whpcd_panics_total); waiters get this typed error instead
// of a hang or a second panic.
var ErrRenderPanicked = errors.New("serve: shared render panicked")

// Cache outcomes, exposed to clients in the X-Cache response header and to
// the access log.
const (
	// CacheHit: the bytes were already resident.
	CacheHit = "hit"
	// CacheMiss: this request rendered the exhibit.
	CacheMiss = "miss"
	// CacheCoalesced: another in-flight request was already rendering the
	// same exhibit; this one waited for its bytes.
	CacheCoalesced = "coalesced"
	// CacheStale: the render failed, but a previously rendered copy was
	// still held in the stale store and was served instead (degraded mode;
	// the response carries a Warning header). Because renders are
	// deterministic per key, stale bytes are identical to what a successful
	// re-render would have produced — staleness here means "rendered by an
	// earlier request", never "out of date".
	CacheStale = "stale"
)

// ExhibitCache memoizes rendered exhibit bytes in a memo: concurrent
// requests for the same uncached key trigger exactly one render, and the
// resident renders are LRU-bounded. Because every exhibit render is
// deterministic for its cache key (which carries the study's identity), a
// cached response is byte-identical to a fresh one — the cache changes
// latency, never content.
//
// A secondary stale store (same capacity) retains bytes evicted or purged
// from the memo. It is consulted only when a re-render fails: the stale
// copy is served with the CacheStale outcome instead of surfacing the
// error (stale-while-revalidate degraded mode). Context errors are exempt
// — a caller whose deadline expired gets the context error, not a
// consolation payload.
type ExhibitCache struct {
	m *memo[string, []byte]

	staleMu sync.Mutex
	stale   lru[string, []byte] // bounded to the memo's cap

	hits        *obs.Counter
	misses      *obs.Counter
	coalesced   *obs.Counter
	staleServes *obs.Counter
}

// cacheCounters bundles the cache's metrics; any field may be nil.
type cacheCounters struct {
	hits, misses, coalesced, evictions, staleServes *obs.Counter
	resident                                        *obs.Gauge
}

// NewExhibitCache returns a cache bounded to capacity rendered exhibits
// (minimum 1).
func NewExhibitCache(capacity int, c cacheCounters) *ExhibitCache {
	for _, ctr := range []**obs.Counter{&c.hits, &c.misses, &c.coalesced, &c.staleServes} {
		if *ctr == nil {
			*ctr = new(obs.Counter)
		}
	}
	e := &ExhibitCache{
		stale:       newLRU[string, []byte](),
		hits:        c.hits,
		misses:      c.misses,
		coalesced:   c.coalesced,
		staleServes: c.staleServes,
	}
	e.m = newMemo(capacity, ErrRenderPanicked, e.spill, c.evictions, c.resident)
	return e
}

// Get returns the bytes for key, invoking compute at most once across all
// concurrent callers that miss. outcome is one of CacheHit, CacheMiss,
// CacheCoalesced, and CacheStale. Callers must not mutate the returned
// slice. The misses counter increments exactly when compute actually runs,
// so it doubles as the render count. Errors are returned to every
// coalesced caller and never cached.
//
// ctx bounds only this caller's wait on a coalesced render and is passed
// through to compute; an expired ctx abandons the wait without cancelling
// the shared render. When compute fails with a non-context error and the
// stale store still holds bytes for key, those bytes are served with the
// CacheStale outcome instead of the error.
func (c *ExhibitCache) Get(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (val []byte, outcome string, err error) {
	val, how, err := c.m.get(ctx, key, func() ([]byte, error) {
		c.misses.Inc()
		b, err := compute(ctx)
		if err == nil {
			// A fresh render supersedes any stale copy of the same key.
			c.staleMu.Lock()
			c.stale.remove(key)
			c.staleMu.Unlock()
		}
		return b, err
	})
	if err != nil {
		if !isContextError(err) {
			if b, ok := c.staleLookup(key); ok {
				c.staleServes.Inc()
				return b, CacheStale, nil
			}
		}
		return nil, CacheMiss, err
	}
	switch how {
	case fetchHit:
		c.hits.Inc()
		return val, CacheHit, nil
	case fetchJoined:
		c.coalesced.Inc()
		return val, CacheCoalesced, nil
	default:
		return val, CacheMiss, nil
	}
}

// isContextError reports whether err is (or wraps) a context cancellation
// or deadline expiry — failures where the requester is gone and degraded
// serving is pointless.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Len returns the number of resident entries, renders in flight included.
func (c *ExhibitCache) Len() int { return c.m.len() }

// StaleLen returns the number of entries held only in the stale store.
func (c *ExhibitCache) StaleLen() int {
	c.staleMu.Lock()
	n := c.stale.len()
	c.staleMu.Unlock()
	return n
}

// Purge drops every resident entry (used by benchmarks to measure cold
// renders); in-flight computes are unaffected. Purged bytes move to the
// stale store, so a purge never degrades fail-operational coverage — it
// only forces the next request per key to re-render.
func (c *ExhibitCache) Purge() { c.m.purge(c.spill) }

// staleLookup returns the stale-store bytes for key, if any.
func (c *ExhibitCache) staleLookup(key string) ([]byte, bool) {
	c.staleMu.Lock()
	b, ok := c.stale.get(key)
	c.staleMu.Unlock()
	return b, ok
}

// spill moves bytes the memo dropped into the stale store, bounded to the
// same capacity.
func (c *ExhibitCache) spill(key string, val []byte) {
	c.staleMu.Lock()
	c.stale.put(key, val)
	c.stale.trim(c.m.cap, nil)
	c.staleMu.Unlock()
}
