package core

import "sync"

// DefaultMatchCacheSize bounds a MatchCache built with size <= 0.
const DefaultMatchCacheSize = 4096

// matchKey identifies one memoized (query, translator) evaluation.
type matchKey struct {
	query string
	id    TranslatorID
}

// matchEntry records the result plus the profile fingerprint it was
// computed against.
type matchEntry struct {
	fp uint64
	ok bool
}

// MatchCache memoizes Query.Matches. No production path uses it any
// more: a hit, which builds a CacheKey string and a profile Fingerprint,
// costs several times the uncached Matches call, so dynamic binding and
// directory lookups match directly. Only the repo benchmark's
// core.matchcache_hit_ns probe compiles against it; deleting the type
// waits for the benchmark change that retires that probe.
//
// Entries are keyed by (Query.CacheKey, Profile.ID) and carry the
// profile's Fingerprint: a re-announce that changes the profile in any
// query-visible way misses and re-evaluates, so the cache can never
// serve a stale verdict — Invalidate is a memory hygiene hook for
// departed translators, not a correctness requirement.
//
// All methods are safe for concurrent use, and safe on a nil receiver
// (they fall through to the uncached evaluation).
type MatchCache struct {
	mu      sync.Mutex
	entries map[matchKey]matchEntry
	max     int
	hits    uint64
	misses  uint64

	// Hook, when set, observes every lookup (true = hit). Set it before
	// first use; it lets callers surface hit rates through their own
	// metrics registry without this package depending on one.
	Hook func(hit bool)
}

// NewMatchCache builds a cache bounded to max entries (size <= 0 means
// DefaultMatchCacheSize). When full, the cache resets wholesale: a
// rebuild costs one uncached pass, which keeps the implementation free
// of per-entry bookkeeping on the hot path.
func NewMatchCache(max int) *MatchCache {
	if max <= 0 {
		max = DefaultMatchCacheSize
	}
	return &MatchCache{entries: make(map[matchKey]matchEntry), max: max}
}

// Matches returns q.Matches(p), memoized.
func (c *MatchCache) Matches(q Query, p Profile) bool {
	if c == nil {
		return q.Matches(p)
	}
	key := matchKey{query: q.CacheKey(), id: p.ID}
	fp := p.Fingerprint()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.fp == fp {
		c.hits++
		hook := c.Hook
		c.mu.Unlock()
		if hook != nil {
			hook(true)
		}
		return e.ok
	}
	c.mu.Unlock()

	ok := q.Matches(p)

	c.mu.Lock()
	c.misses++
	if len(c.entries) >= c.max {
		c.entries = make(map[matchKey]matchEntry)
	}
	c.entries[key] = matchEntry{fp: fp, ok: ok}
	hook := c.Hook
	c.mu.Unlock()
	if hook != nil {
		hook(false)
	}
	return ok
}

// Invalidate drops every entry for one translator (call when it
// unmaps; correctness does not depend on it — see type comment).
func (c *MatchCache) Invalidate(id TranslatorID) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for k := range c.entries {
		if k.id == id {
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
}

// InvalidateAll empties the cache.
func (c *MatchCache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[matchKey]matchEntry)
	c.mu.Unlock()
}

// Stats reports cumulative hit/miss counts.
func (c *MatchCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the current entry count.
func (c *MatchCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
