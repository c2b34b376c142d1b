// Package resolver simulates the DNS resolution ecosystem the paper's
// traffic traverses: authoritative servers, recursive resolver platforms
// with shared caches (the SC/R distinction of §5.3), device stub-resolver
// caches (the LC/P distinction of §5.2, including TTL-violating gear).
package resolver

import (
	"time"

	"dnscontext/internal/obs"
	"dnscontext/internal/trace"
)

// Cache is a TTL-honoring DNS cache with LRU eviction, keyed on name
// symbols (zonedb.Name.ID). Entries store the original answers with
// their insertion time so reads return decremented remaining TTLs, as
// real resolvers do.
type Cache struct {
	lru lru[cacheEntry]

	hits, misses, expired, evictions uint64

	// evictCtr mirrors the eviction count into the observability layer
	// when the owning platform is instrumented; nil is a no-op.
	evictCtr *obs.Counter
}

type cacheEntry struct {
	answers    []trace.Answer // TTLs as stored (full lifetime from insertedAt)
	rcode      uint8
	insertedAt time.Duration
	expiresAt  time.Duration
}

// NewCache returns a cache holding at most capacity entries; capacity <= 0
// means unbounded.
func NewCache(capacity int) *Cache {
	return &Cache{lru: newLRU[cacheEntry](capacity)}
}

// Len returns the number of live entries (including expired ones not yet
// evicted).
func (c *Cache) Len() int { return c.lru.len() }

// Stats returns cumulative hit/miss/expired-hit counters.
func (c *Cache) Stats() (hits, misses, expired uint64) {
	return c.hits, c.misses, c.expired
}

// Evictions returns the number of entries displaced by LRU capacity
// pressure (expiry removals are not evictions).
func (c *Cache) Evictions() uint64 { return c.evictions }

// Observe mirrors future evictions into ctr (nil detaches).
func (c *Cache) Observe(ctr *obs.Counter) { c.evictCtr = ctr }

// Put stores answers for the name symbol id at time now. The entry's
// lifetime is the minimum answer TTL. Answerless results (e.g. NXDOMAIN)
// may be stored with an explicit negTTL. The cache keeps answers as
// given and never writes to them.
func (c *Cache) Put(now time.Duration, id int32, answers []trace.Answer, rcode uint8, negTTL time.Duration) {
	life := negTTL
	for i, a := range answers {
		if i == 0 || a.TTL < life {
			life = a.TTL
		}
	}
	if c.lru.put(id, cacheEntry{
		answers:    answers,
		rcode:      rcode,
		insertedAt: now,
		expiresAt:  now + life,
	}) {
		c.evictions++
		c.evictCtr.Inc()
	}
}

// Get returns the unexpired answers for id with remaining TTLs, or
// ok=false on a miss or expiry. Expired entries are evicted.
func (c *Cache) Get(now time.Duration, id int32) (answers []trace.Answer, rcode uint8, ok bool) {
	i, e, found := c.lru.find(id)
	if !found {
		c.misses++
		return nil, 0, false
	}
	if now >= e.expiresAt {
		c.expired++
		c.misses++
		c.lru.remove(i)
		return nil, 0, false
	}
	c.hits++
	c.lru.touch(i)
	return remainingTTLs(e.answers, e.insertedAt, now), e.rcode, true
}

// Peek is Get without statistics, LRU promotion, or eviction; the refresh
// simulator uses it to inspect cache state.
func (c *Cache) Peek(now time.Duration, id int32) (expiresAt time.Duration, ok bool) {
	_, e, found := c.lru.find(id)
	if !found {
		return 0, false
	}
	if now >= e.expiresAt {
		return e.expiresAt, false
	}
	return e.expiresAt, true
}

// remainingTTLs copies answers stored at insertedAt with the TTLs left at
// now, clamped at zero.
func remainingTTLs(answers []trace.Answer, insertedAt, now time.Duration) []trace.Answer {
	age := now - insertedAt
	if age < 0 {
		// Entries are stamped with the time their response completes; a
		// concurrent reader a moment earlier sees the full TTL.
		age = 0
	}
	out := make([]trace.Answer, len(answers))
	for i, a := range answers {
		rem := a.TTL - age
		if rem < 0 {
			rem = 0
		}
		out[i] = trace.Answer{Addr: a.Addr, TTL: rem}
	}
	return out
}
