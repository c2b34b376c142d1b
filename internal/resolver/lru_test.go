package resolver

import (
	"container/list"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// The reference models below are Stub and Cache as they were built on
// container/list: a map of *list.Element and boxed entries. The property
// tests drive them and the index-linked versions through the same random
// operations and require identical results, contents and recency order.

type refStub struct {
	minHold, staleHold time.Duration
	capacity           int
	entries            map[int32]*list.Element
	lru                *list.List
}

type refStubEntry struct {
	key                               int32
	answers                           []trace.Answer
	insertedAt, ttlExpiry, holdExpiry time.Duration
}

func newRefStub(capacity int, minHold, staleHold time.Duration) *refStub {
	return &refStub{minHold: minHold, staleHold: staleHold, capacity: capacity,
		entries: make(map[int32]*list.Element), lru: list.New()}
}

func (s *refStub) put(now time.Duration, key int32, answers []trace.Answer) {
	if len(answers) == 0 {
		return
	}
	life := answers[0].TTL
	for _, a := range answers[1:] {
		life = min(life, a.TTL)
	}
	e := &refStubEntry{key: key, answers: answers, insertedAt: now,
		ttlExpiry: now + life, holdExpiry: now + max(life, s.minHold)}
	if el, ok := s.entries[key]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(e)
	if s.capacity > 0 && s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*refStubEntry).key)
	}
}

// get is the old Stub.Get; stored selects the answers as stored instead
// of the decremented copy, for comparing GetStored.
func (s *refStub) get(now time.Duration, key int32, stored bool) (StubLookup, bool) {
	el, found := s.entries[key]
	if !found {
		return StubLookup{}, false
	}
	e := el.Value.(*refStubEntry)
	if now >= e.holdExpiry {
		if s.staleHold > 0 && now < e.holdExpiry+s.staleHold {
			return StubLookup{}, false
		}
		s.lru.Remove(el)
		delete(s.entries, key)
		return StubLookup{}, false
	}
	s.lru.MoveToFront(el)
	if stored {
		return StubLookup{Answers: e.answers, Expired: now >= e.ttlExpiry}, true
	}
	return StubLookup{Answers: refRemaining(e.answers, e.insertedAt, now), Expired: now >= e.ttlExpiry}, true
}

func (s *refStub) getStale(now time.Duration, key int32) (StubLookup, bool) {
	el, found := s.entries[key]
	if !found {
		return StubLookup{}, false
	}
	e := el.Value.(*refStubEntry)
	if now >= e.holdExpiry {
		if s.staleHold <= 0 || now >= e.holdExpiry+s.staleHold {
			s.lru.Remove(el)
			delete(s.entries, key)
			return StubLookup{}, false
		}
		out := make([]trace.Answer, len(e.answers))
		for i, a := range e.answers {
			out[i] = trace.Answer{Addr: a.Addr}
		}
		return StubLookup{Answers: out, Expired: true}, true
	}
	return s.get(now, key, false)
}

func (s *refStub) keys() []int32 {
	var out []int32
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*refStubEntry).key)
	}
	return out
}

type refCache struct {
	capacity                         int
	entries                          map[int32]*list.Element
	lru                              *list.List
	hits, misses, expired, evictions uint64
}

type refCacheEntry struct {
	key                   int32
	answers               []trace.Answer
	rcode                 uint8
	insertedAt, expiresAt time.Duration
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: capacity, entries: make(map[int32]*list.Element), lru: list.New()}
}

func (c *refCache) put(now time.Duration, key int32, answers []trace.Answer, rcode uint8, negTTL time.Duration) {
	life := negTTL
	for i, a := range answers {
		if i == 0 || a.TTL < life {
			life = a.TTL
		}
	}
	e := &refCacheEntry{key: key, answers: answers, rcode: rcode, insertedAt: now, expiresAt: now + life}
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	if c.capacity > 0 && c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*refCacheEntry).key)
		c.evictions++
	}
}

func (c *refCache) get(now time.Duration, key int32) ([]trace.Answer, uint8, bool) {
	el, found := c.entries[key]
	if !found {
		c.misses++
		return nil, 0, false
	}
	e := el.Value.(*refCacheEntry)
	if now >= e.expiresAt {
		c.expired++
		c.misses++
		c.lru.Remove(el)
		delete(c.entries, key)
		return nil, 0, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return refRemaining(e.answers, e.insertedAt, now), e.rcode, true
}

func (c *refCache) peek(now time.Duration, key int32) (time.Duration, bool) {
	el, found := c.entries[key]
	if !found {
		return 0, false
	}
	e := el.Value.(*refCacheEntry)
	return e.expiresAt, now < e.expiresAt
}

func (c *refCache) keys() []int32 {
	var out []int32
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*refCacheEntry).key)
	}
	return out
}

func refRemaining(answers []trace.Answer, insertedAt, now time.Duration) []trace.Answer {
	age := max(now-insertedAt, 0)
	out := make([]trace.Answer, len(answers))
	for i, a := range answers {
		out[i] = trace.Answer{Addr: a.Addr, TTL: max(a.TTL-age, 0)}
	}
	return out
}

// keys returns the stored keys from most to least recently used, after
// checking that the backward links, the index and the free list agree
// with the forward walk.
func (l *lru[V]) keys(t *testing.T) []int32 {
	t.Helper()
	var fwd []int32
	prev := nilNode
	for i := l.head; i != nilNode; i = l.nodes[i].next {
		if l.nodes[i].prev != prev {
			t.Fatalf("node %d: prev %d, want %d", i, l.nodes[i].prev, prev)
		}
		if j, ok := l.index[l.nodes[i].key]; !ok || j != i {
			t.Fatalf("index[%d] = %d, %v; want %d", l.nodes[i].key, j, ok, i)
		}
		fwd = append(fwd, l.nodes[i].key)
		prev = i
	}
	if l.tail != prev {
		t.Fatalf("tail %d, want %d", l.tail, prev)
	}
	free := 0
	for i := l.free; i != nilNode; i = l.nodes[i].next {
		free++
	}
	if len(fwd) != len(l.index) || len(fwd)+free != len(l.nodes) {
		t.Fatalf("%d linked, %d indexed, %d free, %d nodes", len(fwd), len(l.index), free, len(l.nodes))
	}
	return fwd
}

// lruOp draws the next operation's key and answers: name symbols from a
// pool a little larger than the capacity, so entries are evicted and
// revived; short TTLs, so entries expire between operations.
type lruOp struct {
	r     *stats.RNG
	nkeys int
}

func newLRUOp(seed uint64, capacity int) *lruOp {
	o := &lruOp{r: stats.NewRNG(seed)}
	o.nkeys = capacity + 3 + o.r.Intn(capacity+1)
	return o
}

func (o *lruOp) key() int32 { return int32(o.r.Intn(o.nkeys)) }

func (o *lruOp) answers() []trace.Answer {
	out := make([]trace.Answer, o.r.Intn(3))
	for i := range out {
		out[i] = ans(fmt.Sprintf("203.0.113.%d", 1+o.r.Intn(250)), time.Duration(1+o.r.Intn(60))*time.Second)
	}
	return out
}

func (o *lruOp) tick() time.Duration { return time.Duration(o.r.Intn(1000)) * time.Millisecond }

// TestStubMatchesListReference runs random Put/Get/GetStored/GetStale
// sequences with time advancing between them, at capacities 1–20 with
// and without TTL-violating and serve-stale holds, against the
// container/list stub.
func TestStubMatchesListReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		capacity := 1 + int(seed%20)
		o := newLRUOp(seed, capacity)
		minHold := time.Duration(o.r.Intn(3)) * 20 * time.Second
		staleHold := time.Duration(o.r.Intn(3)) * 15 * time.Second
		s := NewStub(capacity, minHold)
		s.StaleHold = staleHold
		ref := newRefStub(capacity, minHold, staleHold)
		var now time.Duration
		for step := 0; step < 2000; step++ {
			now += o.tick()
			key := o.key()
			var got, want StubLookup
			var gotOK, wantOK bool
			op := o.r.Intn(4)
			switch op {
			case 0:
				a := o.answers()
				s.Put(now, key, a)
				ref.put(now, key, a)
			case 1:
				got, gotOK = s.Get(now, key)
				want, wantOK = ref.get(now, key, false)
			case 2:
				got, gotOK = s.GetStored(now, key)
				want, wantOK = ref.get(now, key, true)
			case 3:
				got, gotOK = s.GetStale(now, key)
				want, wantOK = ref.getStale(now, key)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d op %d key %d: got %v %+v, want %v %+v", seed, step, op, key, gotOK, got, wantOK, want)
			}
			if k, wk := s.lru.keys(t), ref.keys(); s.Len() != len(wk) || !reflect.DeepEqual(k, wk) {
				t.Fatalf("seed %d step %d: Len %d order %v, want %v", seed, step, s.Len(), k, wk)
			}
		}
	}
}

// TestCacheMatchesListReference is the same check for the shared cache,
// with negative entries, Peek, hit/miss/expired statistics and the
// eviction count. Platform caches hold 400k entries, so the generated
// traces never evict; this test is what pins the eviction order.
func TestCacheMatchesListReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		capacity := 1 + int(seed%20)
		o := newLRUOp(seed, capacity)
		c := NewCache(capacity)
		ref := newRefCache(capacity)
		var now time.Duration
		for step := 0; step < 2000; step++ {
			now += o.tick()
			key := o.key()
			switch op := o.r.Intn(3); op {
			case 0:
				a := o.answers()
				rcode := uint8(0)
				if len(a) == 0 {
					rcode = 3
				}
				negTTL := time.Duration(o.r.Intn(30)) * time.Second
				c.Put(now, key, a, rcode, negTTL)
				ref.put(now, key, a, rcode, negTTL)
			case 1:
				got, gotRC, gotOK := c.Get(now, key)
				want, wantRC, wantOK := ref.get(now, key)
				if gotOK != wantOK || gotRC != wantRC || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d Get key %d: got %v %d %v, want %v %d %v", seed, step, key, gotOK, gotRC, got, wantOK, wantRC, want)
				}
			case 2:
				got, gotOK := c.Peek(now, key)
				want, wantOK := ref.peek(now, key)
				if gotOK != wantOK || got != want {
					t.Fatalf("seed %d step %d Peek key %d: got %v %v, want %v %v", seed, step, key, got, gotOK, want, wantOK)
				}
			}
			h, m, e := c.Stats()
			if h != ref.hits || m != ref.misses || e != ref.expired || c.Evictions() != ref.evictions {
				t.Fatalf("seed %d step %d: stats %d/%d/%d evictions %d, want %d/%d/%d %d",
					seed, step, h, m, e, c.Evictions(), ref.hits, ref.misses, ref.expired, ref.evictions)
			}
			if k, wk := c.lru.keys(t), ref.keys(); c.Len() != len(wk) || !reflect.DeepEqual(k, wk) {
				t.Fatalf("seed %d step %d: Len %d order %v, want %v", seed, step, c.Len(), k, wk)
			}
		}
		if ref.evictions == 0 || ref.expired == 0 {
			t.Fatalf("seed %d: %d evictions, %d expired hits: both paths must be exercised", seed, ref.evictions, ref.expired)
		}
	}
}

// TestStubCacheSteadyStateAllocs gates the LRU's steady state at zero
// allocations: once a stub or cache has grown to its capacity, a hit
// (GetStored for the stub; Peek and a negative-entry Get for the cache,
// whose positive Get must copy its answers), re-putting a present key,
// and putting a new key that evicts the oldest allocate nothing.
func TestStubCacheSteadyStateAllocs(t *testing.T) {
	const capacity = 4
	keys := make([]int32, 2*capacity)
	for i := range keys {
		keys[i] = int32(i)
	}
	answers := []trace.Answer{ans("203.0.113.1", time.Hour)}

	s := NewStub(capacity, 0)
	c := NewCache(capacity)
	i := 0
	cycle := func() {
		now := time.Duration(i) * time.Second
		h := keys[i%len(keys)]
		s.Put(now, h, answers) // new key: evicts
		if _, ok := s.GetStored(now, h); !ok {
			t.Fatal("stub missed a fresh entry")
		}
		s.Put(now, h, answers) // re-put
		c.Put(now, h, nil, 3, time.Hour)
		if _, _, ok := c.Get(now, h); !ok {
			t.Fatal("cache missed a fresh entry")
		}
		if _, ok := c.Peek(now, h); !ok {
			t.Fatal("cache peek missed a fresh entry")
		}
		c.Put(now, h, nil, 3, time.Hour)
		i++
	}
	for range 4 * len(keys) {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state stub/cache cycle allocates %.2f times; want 0", allocs)
	}
	if s.Len() != capacity || c.Len() != capacity || c.Evictions() == 0 {
		t.Fatalf("stub %d, cache %d entries, %d evictions: the cycle did not evict", s.Len(), c.Len(), c.Evictions())
	}
}
