package resolver

import (
	"strings"
	"time"

	"dnscontext/internal/netsim"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// Authority models the authoritative side of the namespace: the root and
// TLD layers (almost always cached by recursives, so cheap) plus the
// per-zone authoritative servers whose distance dominates cache-miss
// latency.
//
// An Authority is read-only once built, so bulk shards resolving on
// several goroutines share one.
type Authority struct {
	zones *zonedb.DB
	// answers holds every name's full-TTL answer set, back to back in ID
	// order; name id's answers are answers[off[id]:off[id+1]].
	answers []trace.Answer
	off     []int32
	// tldCacheMissProb is the small chance a recursive must re-fetch the
	// TLD delegation (its cached copy expired), adding tldDelay.
	tldCacheMissProb float64
	tldLink          netsim.Link
	// jitter scales the per-zone AuthDelay stochastically.
	jitter netsim.Link
	// NegTTL is the negative-caching lifetime for NXDOMAIN results.
	NegTTL time.Duration
}

// NewAuthority builds the authoritative model over zones, including the
// answer table Resolve hands out.
func NewAuthority(zones *zonedb.DB) *Authority {
	names, cc := zones.Names(), zones.ConnectivityCheck
	total := len(cc.Addrs)
	for i := range names {
		total += len(names[i].Addrs)
	}
	a := &Authority{
		zones:            zones,
		answers:          make([]trace.Answer, 0, total),
		off:              make([]int32, 1, zones.NumIDs()+1),
		tldCacheMissProb: 0.01,
		tldLink:          netsim.Link{Base: 15 * time.Millisecond, Jitter: 10 * time.Millisecond},
		jitter:           netsim.Link{Base: 0, Jitter: 5 * time.Millisecond, SlowProb: 0.03, SlowFactor: 6},
		NegTTL:           300 * time.Second,
	}
	add := func(n *zonedb.Name) {
		for _, addr := range n.Addrs {
			a.answers = append(a.answers, trace.Answer{Addr: addr, TTL: n.TTL})
		}
		a.off = append(a.off, int32(len(a.answers)))
	}
	// IDs are the ranks, then the probe name's: this is ID order.
	for i := range names {
		add(&names[i])
	}
	add(cc)
	return a
}

// AuthResult is the outcome of full authoritative resolution of one name.
type AuthResult struct {
	// Delay is the time the recursive spent iterating.
	Delay   time.Duration
	Answers []trace.Answer
	RCode   uint8
}

// Resolve performs the (simulated) iterative resolution a recursive
// resolver does on a cache miss. A name outside the namespace (an ID at
// or past NumIDs) is NXDOMAIN. Answers is the authority's shared table
// entry for n: it must not be modified, and it allocates nothing.
func (a *Authority) Resolve(n *zonedb.Name, r *stats.RNG) AuthResult {
	delay := time.Duration(0)
	if r.Bool(a.tldCacheMissProb) {
		// Re-fetch the TLD delegation from the root/TLD layer.
		delay += a.tldLink.RTT(r)
	}
	if !a.knows(n) {
		// NXDOMAIN still requires asking an authoritative server; charge a
		// generic zone distance.
		delay += 40*time.Millisecond + a.jitter.Delay(r)
		return AuthResult{Delay: delay, RCode: 3}
	}
	delay += n.AuthDelay + a.jitter.Delay(r)
	return AuthResult{Delay: delay, Answers: a.full(n.ID)}
}

// knows reports whether n is a name of the namespace rather than an
// NXDOMAIN placeholder.
func (a *Authority) knows(n *zonedb.Name) bool { return int(n.ID) < len(a.off)-1 }

// full returns name id's full-TTL answers from the shared table, sliced
// to their own length and capacity so an append can never write into a
// neighbour's.
func (a *Authority) full(id int32) []trace.Answer {
	lo, hi := a.off[id], a.off[id+1]
	return a.answers[lo:hi:hi]
}

// TLDOf returns the last label of host ("com" for "www.example.com"),
// used by zone-level accounting.
func TLDOf(host string) string {
	host = strings.TrimSuffix(host, ".")
	if i := strings.LastIndexByte(host, '.'); i >= 0 {
		return host[i+1:]
	}
	return host
}

// Zones returns the namespace backing this authority.
func (a *Authority) Zones() *zonedb.DB { return a.zones }
