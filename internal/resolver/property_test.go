package resolver

import (
	"testing"
	"testing/quick"
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// Property: a cache read within the TTL returns remaining TTLs that never
// exceed the stored TTL and decrease with the entry's age.
func TestCacheRemainingTTLProperty(t *testing.T) {
	f := func(ttlSecs uint16, ageFrac uint8) bool {
		ttl := time.Duration(int(ttlSecs)%3600+2) * time.Second
		age := time.Duration(float64(ttl) * (float64(ageFrac%100) / 100.0))
		c := NewCache(10)
		c.Put(0, symX, []trace.Answer{ans("203.0.0.1", ttl)}, 0, 0)
		got, _, ok := c.Get(age, symX)
		if age >= ttl {
			return !ok
		}
		if !ok {
			return false
		}
		rem := got[0].TTL
		return rem <= ttl && rem == ttl-age
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache never holds more than its capacity, whatever the
// insertion pattern.
func TestCacheCapacityProperty(t *testing.T) {
	r := stats.NewRNG(1)
	f := func(capRaw uint8, nRaw uint16) bool {
		capacity := int(capRaw%20) + 1
		n := int(nRaw % 500)
		c := NewCache(capacity)
		for i := 0; i < n; i++ {
			id := int32(r.Intn(40))
			c.Put(time.Duration(i)*time.Second, id, []trace.Answer{ans("203.0.0.1", time.Hour)}, 0, 0)
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stub never serves an entry past its hold window, and only
// flags Expired when past the TTL.
func TestStubExpiryFlagProperty(t *testing.T) {
	f := func(ttlSecs, holdSecs uint16, atFrac uint8) bool {
		ttl := time.Duration(int(ttlSecs)%600+2) * time.Second
		hold := time.Duration(int(holdSecs)%1200) * time.Second
		effectiveHold := ttl
		if hold > ttl {
			effectiveHold = hold
		}
		at := time.Duration(float64(2*effectiveHold) * float64(atFrac%100) / 100.0)

		s := NewStub(10, hold)
		s.Put(0, symX, []trace.Answer{ans("203.0.0.1", ttl)})
		got, ok := s.Get(at, symX)
		switch {
		case at >= effectiveHold:
			return !ok
		case at >= ttl:
			return ok && got.Expired
		default:
			return ok && !got.Expired
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Recursive.Lookup always returns a positive duration at least
// the link's minimum RTT, and cache hits are never slower than the
// authoritative path's minimum.
func TestRecursiveDurationProperty(t *testing.T) {
	_, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformLocal)]
	rr := NewRecursive(prof, auth, stats.NewRNG(42))
	zones := auth.Zones()
	r := stats.NewRNG(43)
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		now += 100 * time.Millisecond
		res := rr.Lookup(now, zones.Pick(r).Host)
		if res.Duration < 2*prof.Link.Base {
			t.Fatalf("lookup faster than the wire: %v", res.Duration)
		}
		if len(res.Answers) == 0 && res.RCode == 0 {
			t.Fatal("NOERROR with no answers for an existing name")
		}
		for _, a := range res.Answers {
			if a.TTL < 0 {
				t.Fatalf("negative answer TTL %v", a.TTL)
			}
		}
	}
}
