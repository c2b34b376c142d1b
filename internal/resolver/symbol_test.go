package resolver

import (
	"sync"
	"testing"
	"time"

	"dnscontext/internal/stats"
)

// TestNXPlaceholderSymbols: a host outside the namespace gets an
// NXDOMAIN placeholder whose ID lies past NumIDs, is the same on every
// lookup of that platform, and differs between unknown hosts; a repeated
// NX lookup then hits the negative cache under that ID.
func TestNXPlaceholderSymbols(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	rr := NewRecursive(prof, auth, stats.NewRNG(9))

	a, b := rr.name("nx-a.example.test"), rr.name("nx-b.example.test")
	if int(a.ID) < zones.NumIDs() || int(b.ID) < zones.NumIDs() || a.ID == b.ID {
		t.Fatalf("placeholder IDs %d, %d; want distinct and >= NumIDs %d", a.ID, b.ID, zones.NumIDs())
	}
	if again := rr.name("nx-a.example.test"); again != a {
		t.Fatalf("second lookup of an unknown host got %+v, want the first placeholder %+v", again, a)
	}
	if known := zones.ByRank(3); rr.name(known.Host) != known {
		t.Fatal("a namespace host did not resolve to its own name")
	}

	first := rr.Lookup(0, "nx-a.example.test")
	if first.RCode != 3 || first.FromCache {
		t.Fatalf("first NX lookup %+v", first)
	}
	second := rr.Lookup(time.Second, "nx-a.example.test")
	if second.RCode != 3 || !second.FromCache {
		t.Fatalf("repeated NX lookup missed the negative cache: %+v", second)
	}
	if other := rr.Lookup(2*time.Second, "nx-b.example.test"); other.FromCache {
		t.Fatalf("another unknown host hit the first one's negative entry: %+v", other)
	}
}

// TestWarmFractionKnownAndUnknown: WarmFraction sees a known name warm
// after its lookup, an unknown host warm through its negative entry, and
// a host never asked for cold.
func TestWarmFractionKnownAndUnknown(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	rr := NewRecursive(prof, auth, stats.NewRNG(10))
	known := zones.ByRank(0).Host

	if f := rr.WarmFraction(0, known); f != 0 {
		t.Fatalf("cold known host warm fraction %v", f)
	}
	if f := rr.WarmFraction(0, "never.asked.test"); f != 0 {
		t.Fatalf("never-asked unknown host warm fraction %v", f)
	}
	res := rr.Lookup(0, known)
	rr.Lookup(0, "nx.example.test")
	at := res.Duration + time.Second
	if f := rr.WarmFraction(at, known); f != 1 {
		t.Fatalf("known host warm fraction %v after its lookup, want 1", f)
	}
	if f := rr.WarmFraction(at, "nx.example.test"); f != 1 {
		t.Fatalf("unknown host warm fraction %v after its NX lookup, want 1", f)
	}
	if f := rr.WarmFraction(at+auth.NegTTL+time.Minute, "nx.example.test"); f != 0 {
		t.Fatalf("unknown host still warm past the negative TTL: %v", f)
	}
}

// TestRecursivesShareAuthorityConcurrently runs two platforms on one
// Authority from two goroutines, as bulk shards do, over a mix of known
// and unknown hosts; under -race it proves the answer table is only
// read and the NX placeholders are per platform. Each platform must
// also match a serial run of the same seed.
func TestRecursivesShareAuthorityConcurrently(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformOpenDNS)]
	hosts := []string{"nx1.example.test", "nx2.example.test"}
	for i := 0; i < 40; i++ {
		hosts = append(hosts, zones.ByRank(i).Host)
	}
	run := func(seed uint64) []Result {
		rr := NewRecursive(prof, auth, stats.NewRNG(seed))
		r := stats.NewRNG(seed + 100)
		out := make([]Result, 0, 2000)
		for i := 0; i < cap(out); i++ {
			out = append(out, rr.Lookup(time.Duration(i)*200*time.Millisecond, hosts[r.Intn(len(hosts))]))
		}
		return out
	}
	var got [2][]Result
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = run(uint64(k + 1))
		}()
	}
	wg.Wait()
	for k := range got {
		want := run(uint64(k + 1))
		for i := range want {
			g, w := got[k][i], want[i]
			if g.Duration != w.Duration || g.FromCache != w.FromCache || g.RCode != w.RCode || len(g.Answers) != len(w.Answers) {
				t.Fatalf("platform %d lookup %d: concurrent %+v, serial %+v", k, i, g, w)
			}
		}
	}
}

// TestAuthorityResolveAllocs gates the shared answer table: resolving a
// known name hands out its table entry and allocates nothing.
func TestAuthorityResolveAllocs(t *testing.T) {
	zones, auth := newEcosystem(t)
	r := stats.NewRNG(11)
	n := zones.ByRank(5)
	var res AuthResult
	if allocs := testing.AllocsPerRun(1000, func() { res = auth.Resolve(n, r) }); allocs != 0 {
		t.Fatalf("Authority.Resolve allocates %.2f times per call; want 0", allocs)
	}
	if len(res.Answers) != len(n.Addrs) || cap(res.Answers) != len(n.Addrs) || res.Answers[0].TTL != n.TTL {
		t.Fatalf("table entry %+v (cap %d) for %+v", res.Answers, cap(res.Answers), n)
	}
	cc := zones.ConnectivityCheck
	if got := auth.Resolve(cc, r); len(got.Answers) != 1 || got.Answers[0].Addr != cc.Addrs[0] {
		t.Fatalf("probe name resolved to %+v", got)
	}
}
