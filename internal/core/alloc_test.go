package core

import (
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// Allocation budgets (ISSUE 5) for the classify hot path: the pairing
// scan must be allocation-free on its common paths, and the per-shard
// classify loop must cost a small per-shard constant (its index maps),
// not a per-connection toll.

// allocAnalysis builds one analyzed trace for the budget tests.
func allocAnalysis(t *testing.T) *Analysis {
	t.Helper()
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, _, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	return mustAnalyze(t, ds, opts)
}

// TestPairAllocFree gates pairConn's no-candidate and single-candidate
// paths at exactly zero allocations per call (with warmed scratch).
func TestPairAllocFree(t *testing.T) {
	a := allocAnalysis(t)

	// Find a shard with connections and build its index once.
	var sh *clientShard
	var shardID int
	for s := range a.shards {
		if len(a.shards[s].conns) > 0 && len(a.shards[s].dns) > 0 {
			sh = &a.shards[s]
			shardID = s
			break
		}
	}
	if sh == nil {
		t.Fatal("no shard with both conns and dns")
	}
	idx := buildShardIndex(a.DS.DNS, a.expiry, sh.dns)
	rng := stats.NewRNG(a.Opts.Seed + uint64(shardID))
	scratch := make([]int32, 0, 64)

	// No-candidate path: an address no DNS record ever answered.
	noMatch := a.DS.Conns[sh.conns[0]]
	noMatch.Resp = netip.MustParseAddr("203.0.113.253")
	if _, ok := idx[noMatch.Resp]; ok {
		t.Fatal("probe address unexpectedly indexed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		dns, cand, s := pairConn(a.Opts.Pairing, idx, &noMatch, rng, scratch)
		scratch = s
		if dns != -1 || cand != 0 {
			t.Fatalf("no-candidate pair = (%d, %d)", dns, cand)
		}
	})
	if allocs != 0 {
		t.Fatalf("no-candidate pair allocates %.1f per call; budget is 0", allocs)
	}

	// Single-candidate path: a connection whose destination resolves to
	// a one-entry bucket.
	var single trace.ConnRecord
	found := false
	for _, ci := range sh.conns {
		conn := a.DS.Conns[ci]
		if recs := idx[conn.Resp]; len(recs) == 1 && recs[0].ts <= conn.TS {
			single, found = conn, true
			break
		}
	}
	if !found {
		t.Skip("trace has no single-candidate connection in the probed shard")
	}
	allocs = testing.AllocsPerRun(100, func() {
		dns, _, s := pairConn(a.Opts.Pairing, idx, &single, rng, scratch)
		scratch = s
		if dns < 0 {
			t.Fatal("single-candidate pair found nothing")
		}
	})
	if allocs != 0 {
		t.Fatalf("single-candidate pair allocates %.1f per call; budget is 0", allocs)
	}

	// General path with warmed scratch: still allocation-free.
	conns := sh.conns
	allocs = testing.AllocsPerRun(20, func() {
		for _, ci := range conns {
			conn := &a.DS.Conns[ci]
			_, _, s := pairConn(a.Opts.Pairing, idx, conn, rng, scratch)
			scratch = s
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed pairing loop allocates %.1f per pass; budget is 0", allocs)
	}
}

// TestClassifyClientAllocBudget gates the pairing kernel: one client's
// pair+classify pass may allocate its per-client index (a small number
// of maps and one backing array) and its result slices, but nothing per
// connection.
func TestClassifyClientAllocBudget(t *testing.T) {
	a := allocAnalysis(t)
	// Pick the busiest shard so per-connection costs dominate fixed ones.
	best, bestConns := -1, 0
	for s := range a.shards {
		if n := len(a.shards[s].conns); n > bestConns {
			best, bestConns = s, n
		}
	}
	if best < 0 || bestConns < 100 {
		t.Fatalf("no busy shard (best has %d conns)", bestConns)
	}
	sh := &a.shards[best]
	perRun := testing.AllocsPerRun(10, func() {
		classifyClient(&a.Opts, best, a.DS.DNS, a.expiry, a.rsym, a.DS.Conns, sh.dns, sh.conns)
	})
	// Index construction allocates roughly one bucket-map entry per
	// distinct answered address plus the backing array; budget that as
	// 0.5 per connection, far below the old one-plus per connection.
	if budget := 64 + 0.5*float64(bestConns); perRun > budget {
		t.Fatalf("classifyClient allocates %.0f per pass over %d conns; budget is %.0f",
			perRun, bestConns, budget)
	}
}
