package resolver

import (
	"testing"
	"time"

	"dnscontext/internal/netsim"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

func TestRetryPolicyAttempts(t *testing.T) {
	if got := (RetryPolicy{MaxRetries: 2}).Attempts(); got != 3 {
		t.Fatalf("Attempts() = %d, want 3", got)
	}
	if got := (RetryPolicy{MaxRetries: -5}).Attempts(); got != 1 {
		t.Fatalf("negative MaxRetries Attempts() = %d, want 1", got)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{Timeout: 3 * time.Second, Backoff: 2, MaxTimeout: 10 * time.Second}
	if got := p.AttemptTimeout(1); got != 6*time.Second {
		t.Fatalf("AttemptTimeout(1) = %v, want 6s", got)
	}
	if got := p.AttemptTimeout(2); got != 10*time.Second {
		t.Fatalf("AttemptTimeout(2) = %v, want cap 10s", got)
	}
	// Sub-1 backoff behaves as flat.
	flat := RetryPolicy{Timeout: time.Second, Backoff: 0.5}
	if got := flat.AttemptTimeout(1); got != time.Second {
		t.Fatalf("flat AttemptTimeout(1) = %v, want 1s", got)
	}
}

// TestRetryLadder pins the one retry ladder that the simulated
// transports and the live dnsserver clients share, including the edges
// that historically invite off-by-one clamps: the cap binds mid-ladder
// (not the product MaxTimeout·Backoff), MaxTimeout below Timeout caps the
// first attempt too, Backoff exactly 1.0 or below 1 is flat, and a
// negative MaxRetries still allows one attempt.
func TestRetryLadder(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name     string
		rp       RetryPolicy
		attempts int
		want     []time.Duration // indexed by attempt
	}{
		{"plain exponential", RetryPolicy{Timeout: ms(100), MaxRetries: 3, Backoff: 2},
			4, []time.Duration{ms(100), ms(200), ms(400), ms(800)}},
		{"resolv.conf preset", RetryPolicy{Timeout: ms(3000), MaxRetries: 2, Backoff: 2, MaxTimeout: ms(10000)},
			3, []time.Duration{ms(3000), ms(6000), ms(10000)}},
		{"cap binds mid-ladder, not MaxTimeout×Backoff", RetryPolicy{Timeout: ms(100), Backoff: 3, MaxTimeout: ms(250)},
			1, []time.Duration{ms(100), ms(250), ms(250), ms(250)}},
		{"cap exactly hit stays at cap", RetryPolicy{Timeout: ms(100), Backoff: 2, MaxTimeout: ms(200)},
			1, []time.Duration{ms(100), ms(200), ms(200)}},
		{"MaxTimeout below Timeout caps the first attempt too", RetryPolicy{Timeout: ms(500), Backoff: 2, MaxTimeout: ms(200)},
			1, []time.Duration{ms(200), ms(200), ms(200)}},
		{"backoff exactly 1.0 is flat", RetryPolicy{Timeout: ms(100), Backoff: 1.0, MaxTimeout: ms(800)},
			1, []time.Duration{ms(100), ms(100), ms(100), ms(100)}},
		{"backoff below 1 is flat, not shrinking", RetryPolicy{Timeout: ms(100), Backoff: 0.5},
			1, []time.Duration{ms(100), ms(100), ms(100)}},
		{"negative MaxRetries gives one attempt", RetryPolicy{Timeout: ms(100), MaxRetries: -5},
			1, []time.Duration{ms(100)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.rp.Attempts(); got != tc.attempts {
				t.Errorf("Attempts() = %d, want %d", got, tc.attempts)
			}
			for i, want := range tc.want {
				if got := tc.rp.AttemptTimeout(i); got != want {
					t.Errorf("AttemptTimeout(%d) = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestZeroFaultLookupWithMatchesLookup: with no faults the retry policy is
// inert — any policy yields the exact single-attempt result.
func TestZeroFaultLookupWithMatchesLookup(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	a := NewRecursive(prof, auth, stats.NewRNG(11))
	b := NewRecursive(prof, auth, stats.NewRNG(11))
	host := zones.ByRank(0).Host

	for i, now := range []time.Duration{0, time.Second, time.Minute} {
		ra := a.Lookup(now, host)
		rb := b.LookupWith(now, host, AndroidRetryPolicy())
		if ra.Duration != rb.Duration || ra.FromCache != rb.FromCache ||
			ra.Resolver != rb.Resolver || ra.RCode != rb.RCode {
			t.Fatalf("lookup %d diverged: %+v vs %+v", i, ra, rb)
		}
		if rb.Attempts != 1 || rb.ServFail || rb.TCPFallback {
			t.Fatalf("zero-fault lookup shows fault activity: %+v", rb)
		}
	}
}

// TestTotalLossGivesUpWithFullLadder: Loss=1 makes every transmission
// fail, so the client walks the whole timeout ladder and synthesizes
// SERVFAIL with the exact accumulated wait.
func TestTotalLossGivesUpWithFullLadder(t *testing.T) {
	_, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	prof.Faults = netsim.FaultProfile{Loss: 1}
	rr := NewRecursive(prof, auth, stats.NewRNG(12))

	res := rr.LookupWith(0, "a.example.com", DefaultRetryPolicy())
	if !res.ServFail || res.RCode != RCodeServFail {
		t.Fatalf("total loss did not servfail: %+v", res)
	}
	// Default ladder: 3s timeout, one retry at 6s ⇒ 9s total.
	if res.Duration != 9*time.Second {
		t.Fatalf("ladder duration %v, want 9s", res.Duration)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", res.Attempts)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("servfail carried answers: %v", res.Answers)
	}
	if res.Retries() != 1 {
		t.Fatalf("Retries() = %d, want 1", res.Retries())
	}
	retries, servfails, _ := rr.FailureCounters()
	if retries != 2 || servfails != 1 {
		t.Fatalf("counters retries=%d servfails=%d", retries, servfails)
	}
}

func TestIoTSingleShotTimeout(t *testing.T) {
	_, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformLocal)]
	prof.ExternalQPS = 0
	prof.Faults = netsim.FaultProfile{Loss: 1}
	rr := NewRecursive(prof, auth, stats.NewRNG(13))

	res := rr.LookupWith(0, "iot.example.com", IoTRetryPolicy())
	if !res.ServFail || res.Attempts != 1 || res.Duration != 2*time.Second {
		t.Fatalf("IoT giveup = %+v, want 1 attempt, 2s", res)
	}
}

// TestOutageServFailsThenRecovers: during a scheduled platform outage
// every lookup gives up; afterwards the platform answers again.
func TestOutageServFailsThenRecovers(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	prof.Faults = netsim.FaultProfile{Outages: []netsim.Window{{Start: time.Hour, End: 2 * time.Hour}}}
	rr := NewRecursive(prof, auth, stats.NewRNG(14))
	host := zones.ByRank(0).Host

	if res := rr.LookupWith(30*time.Minute, host, IoTRetryPolicy()); res.ServFail {
		t.Fatalf("lookup before the outage failed: %+v", res)
	}
	if res := rr.LookupWith(90*time.Minute, host, IoTRetryPolicy()); !res.ServFail {
		t.Fatalf("lookup during the outage succeeded: %+v", res)
	}
	if res := rr.LookupWith(3*time.Hour, host, IoTRetryPolicy()); res.ServFail {
		t.Fatalf("lookup after the outage failed: %+v", res)
	}
}

// TestRetryStraddlesOutageEnd: an attempt sent just before the outage
// lifts is lost, but the backed-off retry lands after the end and
// succeeds — the recovery behavior retries exist for.
func TestRetryStraddlesOutageEnd(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	prof.Faults = netsim.FaultProfile{Outages: []netsim.Window{{Start: 0, End: time.Hour}}}
	rr := NewRecursive(prof, auth, stats.NewRNG(15))

	start := time.Hour - time.Second // retry fires at +3s, after the outage
	res := rr.LookupWith(start, zones.ByRank(0).Host, DefaultRetryPolicy())
	if res.ServFail {
		t.Fatalf("retry after outage end still failed: %+v", res)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (first lost in outage)", res.Attempts)
	}
	if res.Duration < 3*time.Second {
		t.Fatalf("duration %v must include the first attempt's 3s timeout", res.Duration)
	}
}

// TestRotationMovesToNextServer: with rotation, a retry goes to the next
// anycast address; without it, the client re-asks the same one. Same
// seed, total loss ⇒ the reported (last-tried) resolver must differ.
func TestRotationMovesToNextServer(t *testing.T) {
	_, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformGoogle)] // two addresses
	prof.ExternalQPS = 0
	prof.Faults = netsim.FaultProfile{Loss: 1}

	policy := DefaultRetryPolicy() // one retry
	fixed := policy
	fixed.RotateServers = false

	rot := NewRecursive(prof, auth, stats.NewRNG(16)).LookupWith(0, "x.example.com", policy)
	stay := NewRecursive(prof, auth, stats.NewRNG(16)).LookupWith(0, "x.example.com", fixed)
	if stay.Resolver == rot.Resolver {
		t.Fatalf("rotation did not move off %v", stay.Resolver)
	}
}

// TestTruncationForcesTCPFallback: responses over the truncation
// threshold are re-fetched via TCP, flagged and slower.
func TestTruncationForcesTCPFallback(t *testing.T) {
	zones, auth := newEcosystem(t)
	// Find a name with at least two addresses so TruncateOver=1 triggers.
	var host string
	for _, n := range zones.Names() {
		if len(n.Addrs) >= 2 {
			host = n.Host
			break
		}
	}
	if host == "" {
		t.Skip("no multi-address name in the zone")
	}
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0

	plain := NewRecursive(prof, auth, stats.NewRNG(17)).LookupWith(0, host, DefaultRetryPolicy())
	prof.Faults = netsim.FaultProfile{TruncateOver: 1}
	trunc := NewRecursive(prof, auth, stats.NewRNG(17)).LookupWith(0, host, DefaultRetryPolicy())

	if plain.TCPFallback {
		t.Fatal("fallback without truncation configured")
	}
	if !trunc.TCPFallback {
		t.Fatalf("no TCP fallback for %d answers over threshold 1", len(trunc.Answers))
	}
	if trunc.Duration <= plain.Duration {
		t.Fatalf("TCP fallback %v not slower than UDP %v", trunc.Duration, plain.Duration)
	}
}

// TestLossWarmsCache: a response lost on the way back still warmed the
// frontend, so persistent retries eventually turn misses into hits.
func TestLossWarmsCache(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	prof.Faults = netsim.FaultProfile{Loss: 0.4}
	rr := NewRecursive(prof, auth, stats.NewRNG(18))
	host := zones.ByRank(0).Host

	sawCacheHit := false
	for i := 0; i < 50 && !sawCacheHit; i++ {
		res := rr.LookupWith(time.Duration(i)*time.Second, host, AndroidRetryPolicy())
		sawCacheHit = res.FromCache && !res.ServFail
	}
	if !sawCacheHit {
		t.Fatal("repeated lossy lookups never produced a shared-cache hit")
	}
}

// --- Serve-stale stub (RFC 8767) ---

func TestStubGetStaleDisabledByDefault(t *testing.T) {
	s := NewStub(10, 0)
	s.Put(0, symA, []trace.Answer{ans("203.0.0.1", 60*time.Second)})
	if _, ok := s.GetStale(61*time.Second, symA); ok {
		t.Fatal("GetStale served past TTL with StaleHold disabled")
	}
}

func TestStubServeStaleWindow(t *testing.T) {
	s := NewStub(10, 0)
	s.StaleHold = 10 * time.Minute
	s.Put(0, symA, []trace.Answer{ans("203.0.0.1", 60*time.Second)})

	// Inside the TTL, both paths serve fresh.
	if got, ok := s.GetStale(30*time.Second, symA); !ok || got.Expired {
		t.Fatalf("fresh GetStale = %+v %v", got, ok)
	}

	// Past the TTL: a normal Get must MISS (the device still goes
	// upstream first), but the entry is retained for the failure path.
	if _, ok := s.Get(2*time.Minute, symA); ok {
		t.Fatal("Get served stale entry on the normal path")
	}
	got, ok := s.GetStale(2*time.Minute, symA)
	if !ok {
		t.Fatal("GetStale missed inside the stale window")
	}
	if !got.Expired {
		t.Fatal("stale answer not flagged Expired")
	}
	if got.Answers[0].TTL != 0 {
		t.Fatalf("stale answer TTL %v, want 0", got.Answers[0].TTL)
	}

	// Past TTL + StaleHold: gone for good.
	if _, ok := s.GetStale(12*time.Minute, symA); ok {
		t.Fatal("GetStale served beyond the stale window")
	}
}

func TestStubServeStaleRespectsMinHold(t *testing.T) {
	// A TTL-violating stub already serves to MinHold; serve-stale extends
	// retention past that.
	s := NewStub(10, 2*time.Minute)
	s.StaleHold = 10 * time.Minute
	s.Put(0, symA, []trace.Answer{ans("203.0.0.1", 60*time.Second)})
	if got, ok := s.Get(90*time.Second, symA); !ok || !got.Expired {
		t.Fatalf("MinHold serving broken: %+v %v", got, ok)
	}
	if _, ok := s.Get(3*time.Minute, symA); ok {
		t.Fatal("Get served past MinHold")
	}
	if _, ok := s.GetStale(3*time.Minute, symA); !ok {
		t.Fatal("GetStale missed between MinHold and StaleHold")
	}
}
