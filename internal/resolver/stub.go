package resolver

import (
	"time"

	"dnscontext/internal/trace"
)

// Stub models the DNS cache closest to the application: the on-device
// stub resolver. Unlike the shared Cache, a Stub can be configured to
// keep serving entries past their TTL — the paper finds 22.2% of
// local-cache connections use such outdated records, attributing it to
// residential gear that does not respect the TTL.
type Stub struct {
	// MinHold extends every entry's usable lifetime to at least MinHold
	// past insertion. Zero means the stub honors TTLs exactly.
	MinHold time.Duration
	// StaleHold keeps entries around for this long past their normal
	// eviction point so they can be served stale (RFC 8767) when the
	// upstream resolver is unreachable. Zero disables serve-stale; Get
	// still reports such retained entries as misses — only GetStale
	// returns them.
	StaleHold time.Duration

	lru lru[stubEntry]
}

type stubEntry struct {
	answers    []trace.Answer
	insertedAt time.Duration
	ttlExpiry  time.Duration // when the record *should* die
	holdExpiry time.Duration // when this stub actually stops serving it
}

// StubLookup is what the stub returns to the application.
type StubLookup struct {
	Answers []trace.Answer
	// Expired is true when the entry was served past its TTL — a TTL
	// violation observable in the trace.
	Expired bool
}

// NewStub returns a stub cache with the given entry capacity (<=0 means
// unbounded) and TTL-violation hold.
func NewStub(capacity int, minHold time.Duration) *Stub {
	return &Stub{MinHold: minHold, lru: newLRU[stubEntry](capacity)}
}

// Len returns the number of stored entries.
func (s *Stub) Len() int { return s.lru.len() }

// Put stores a response for the name symbol id (zonedb.Name.ID).
// Answerless responses are not cached (stubs do little negative caching,
// and the analysis does not need it). The stub keeps answers as given
// and never writes to them.
func (s *Stub) Put(now time.Duration, id int32, answers []trace.Answer) {
	if len(answers) == 0 {
		return
	}
	life := answers[0].TTL
	for _, a := range answers[1:] {
		if a.TTL < life {
			life = a.TTL
		}
	}
	hold := life
	if s.MinHold > hold {
		hold = s.MinHold
	}
	s.lru.put(id, stubEntry{
		answers:    answers,
		insertedAt: now,
		ttlExpiry:  now + life,
		holdExpiry: now + hold,
	})
}

// Get returns the stored answers if the stub is still willing to serve
// them. Remaining TTLs are decremented, clamping at zero for entries
// served in violation of their TTL.
func (s *Stub) Get(now time.Duration, id int32) (StubLookup, bool) {
	e, ok := s.serve(now, id)
	if !ok {
		return StubLookup{}, false
	}
	return StubLookup{
		Answers: remainingTTLs(e.answers, e.insertedAt, now),
		Expired: now >= e.ttlExpiry,
	}, true
}

// GetStored is Get without the copy: on a hit, Answers is the stored
// slice itself, with the TTLs it was stored with rather than the
// remaining ones. Callers must not modify it. It exists for callers that
// read only the addresses, such as the trace generator, which resolves
// through a stub for every connection.
func (s *Stub) GetStored(now time.Duration, id int32) (StubLookup, bool) {
	e, ok := s.serve(now, id)
	if !ok {
		return StubLookup{}, false
	}
	return StubLookup{Answers: e.answers, Expired: now >= e.ttlExpiry}, true
}

// serve finds id's entry if the stub is still willing to serve it at
// now, promoting it to most recently used. An entry past its hold is a
// miss, and is dropped unless serve-stale still retains it.
func (s *Stub) serve(now time.Duration, id int32) (*stubEntry, bool) {
	i, e, found := s.lru.find(id)
	if !found {
		return nil, false
	}
	if now >= e.holdExpiry {
		if s.StaleHold > 0 && now < e.holdExpiry+s.StaleHold {
			// Retained for serve-stale, but a regular lookup must still
			// miss and go upstream; GetStale is the failure path.
			return nil, false
		}
		s.lru.remove(i)
		return nil, false
	}
	s.lru.touch(i)
	return e, true
}

// GetStale returns an entry retained past its lifetime for RFC 8767
// serve-stale: the failure path a device takes when the upstream resolver
// times out. Answers come back with zero remaining TTL and Expired set.
// Returns ok=false when serve-stale is disabled, the entry is unknown, or
// the stale window itself has lapsed. Entries still inside their normal
// lifetime are returned too — a device that just failed upstream serves
// whatever it has.
func (s *Stub) GetStale(now time.Duration, id int32) (StubLookup, bool) {
	i, e, found := s.lru.find(id)
	if !found {
		return StubLookup{}, false
	}
	if now >= e.holdExpiry {
		if s.StaleHold <= 0 || now >= e.holdExpiry+s.StaleHold {
			s.lru.remove(i)
			return StubLookup{}, false
		}
		out := make([]trace.Answer, len(e.answers))
		for i, a := range e.answers {
			out[i] = trace.Answer{Addr: a.Addr, TTL: 0}
		}
		return StubLookup{Answers: out, Expired: true}, true
	}
	return s.Get(now, id)
}
