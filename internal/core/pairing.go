package core

import (
	"net/netip"
	"sort"
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// pairEnt is one candidate in a shard index bucket: the DNS record's
// completion time and precomputed TTL expiry carried inline next to its
// client-local index. The pairing scan — binary search plus backward
// expiry sweep — reads only these entries, walking one contiguous
// bucket instead of chasing pointers into the (much larger, scattered)
// record array.
type pairEnt struct {
	ts     time.Duration
	expiry time.Duration
	idx    int32
}

// shardIndex is the DN-Hunter lookup structure for one client: it maps
// each answered address to the client's DNS records (ascending by
// completion time) whose answers contain it. The client is implicit —
// every record in the index shares one — which is exactly what lets the
// pipeline shard the trace with no cross-shard pairing candidates.
type shardIndex map[netip.Addr][]pairEnt

// buildShardIndex constructs the lookup structure over one client's DNS
// records dns[dnsIdx[0]], dns[dnsIdx[1]], ... (time order). Entries carry
// the record's position within dnsIdx, its client-local index.
//
// A counting pre-pass sizes every bucket exactly: all buckets are
// carved out of one shared backing slice, so the fill pass appends
// within capacity and the grow-by-append reallocation churn of the
// naive construction disappears.
func buildShardIndex(dns []trace.DNSRecord, expiry []time.Duration, dnsIdx []int32) shardIndex {
	total := 0
	// Distinct answered addresses are bounded by (and usually close to)
	// the client's record count.
	counts := make(map[netip.Addr]int32, len(dnsIdx))
	for _, i := range dnsIdx {
		for _, ans := range dns[i].Answers {
			counts[ans.Addr]++
			total++
		}
	}
	backing := make([]pairEnt, total)
	idx := make(shardIndex, len(counts))
	off := int32(0)
	for addr, c := range counts {
		idx[addr] = backing[off : off : off+c]
		off += c
	}
	for l, i := range dnsIdx {
		d := &dns[i]
		ent := pairEnt{ts: d.TS, expiry: expiry[i], idx: int32(l)}
		for _, ans := range d.Answers {
			idx[ans.Addr] = append(idx[ans.Addr], ent)
		}
	}
	return idx
}

// classifyClient is the pairing kernel both pipelines run: it pairs one
// client's connections conns[connIdx[j]] (start-time order) with the
// client's lookups dns[dnsIdx[k]] (completion-time order) and returns one
// entry of pairing facts per connection, with client-local lookup
// indices. expiry and rsym are per-record sidecars indexed like dns: the
// precomputed TTL expiry and the resolver symbol the entry's res field
// carries.
//
// The in-memory pipeline passes the whole dataset with a shard's index
// lists; the out-of-core pipeline passes a client's own record slices
// with identity indices. rank is the client's shard rank and seeds the
// PairRandom RNG stream, so both pipelines draw the same numbers in the
// same order. Within a client, connections are processed in start-time
// order so "first use of a lookup" stays well defined; across clients
// there is nothing to order, because a lookup only pairs with its own
// client's connections.
func classifyClient(opts *Options, rank int, dns []trace.DNSRecord, expiry []time.Duration, rsym []int32,
	conns []trace.ConnRecord, dnsIdx, connIdx []int32) []connEntry {
	if len(connIdx) == 0 {
		return nil
	}
	idx := buildShardIndex(dns, expiry, dnsIdx)
	rng := stats.NewRNG(opts.Seed + uint64(rank))
	used := make([]bool, len(dnsIdx))
	// fresh is the pairing scan's scratch, reused across the client's
	// connections so steady-state pairing allocates nothing.
	var fresh []int32
	entries := make([]connEntry, len(connIdx))
	for j, ci := range connIdx {
		conn := &conns[ci]
		e := &entries[j]
		var l, cand int
		l, cand, fresh = pairConn(opts.Pairing, idx, conn, rng, fresh)
		if l < 0 {
			e.localDNS, e.res = -1, -1
			continue
		}
		di := dnsIdx[l]
		d := &dns[di]
		e.localDNS = int32(l)
		e.gap = conn.TS - d.TS
		e.candidates = int32(cand)
		e.firstUse = !used[l]
		used[l] = true
		e.usedExpired = conn.TS >= expiry[di]
		e.lookupDur = d.Duration()
		e.res = rsym[di]
	}
	return entries
}

// pairConn finds the DN-Hunter pairing for one connection: the most
// recent non-expired lookup in idx whose answers contain the
// destination address; if every candidate is expired, the most recent
// one. It also reports the number of non-expired candidates (the §4
// ambiguity measure). The result is a client-local index, or -1.
//
// rng is only consulted under PairRandom, which picks uniformly among
// the non-expired candidates.
//
// scratch is the caller-owned backing for the fresh-candidate scan; the
// (possibly grown) scratch is returned for reuse, so a client's pairing
// loop settles into zero allocations per connection.
func pairConn(policy PairingPolicy, idx shardIndex, conn *trace.ConnRecord, rng *stats.RNG, scratch []int32) (dnsIdx int, candidates int, _ []int32) {
	recs := idx[conn.Resp]
	if len(recs) == 0 {
		return -1, 0, scratch
	}
	// Binary search for the last record completing at or before the
	// connection start. The completion times ride in the bucket entries,
	// so the search never leaves the bucket's contiguous memory.
	hi := sort.Search(len(recs), func(i int) bool {
		return recs[i].ts > conn.TS
	})
	if hi == 0 {
		return -1, 0, scratch
	}
	cand := recs[:hi]

	// Count and locate non-expired candidates, scanning backwards
	// against the expiry carried in each entry.
	fresh := scratch[:0]
	for i := len(cand) - 1; i >= 0; i-- {
		if conn.TS < cand[i].expiry {
			fresh = append(fresh, cand[i].idx)
			continue
		}
		// Everything earlier with the same TTL profile is likelier
		// expired too, but mixed TTLs make that unsound; keep scanning.
	}
	if len(fresh) == 0 {
		// All expired: most recent.
		return int(cand[len(cand)-1].idx), 0, fresh
	}
	if policy == PairRandom && len(fresh) > 1 {
		return int(fresh[rng.Intn(len(fresh))]), len(fresh), fresh
	}
	// fresh[0] is the most recent (we appended backwards).
	return int(fresh[0]), len(fresh), fresh
}
