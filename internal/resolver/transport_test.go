package resolver

import (
	"testing"
	"time"

	"dnscontext/internal/netsim"
	"dnscontext/internal/stats"
	"dnscontext/internal/zonedb"
)

func TestParseTransportSpellings(t *testing.T) {
	cases := map[string]TransportKind{
		"": TransportUDP, "udp": TransportUDP, "do53": TransportUDP, "Do53": TransportUDP,
		"tcp": TransportTCP, "dotcp": TransportTCP, "DoTCP": TransportTCP,
		"dot": TransportTLS, "tls": TransportTLS, "DoT": TransportTLS,
		"doh": TransportHTTPS, "https": TransportHTTPS, "DoH": TransportHTTPS,
	}
	for s, want := range cases {
		got, err := ParseTransport(s)
		if err != nil || got != want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseTransport("quic"); err == nil {
		t.Error("ParseTransport accepted an unknown transport")
	}
}

func TestTransportKindPredicates(t *testing.T) {
	for _, k := range Transports() {
		if k.Stream() != (k != TransportUDP) {
			t.Errorf("%v.Stream() = %v", k, k.Stream())
		}
		if k.TLS() != (k == TransportTLS || k == TransportHTTPS) {
			t.Errorf("%v.TLS() = %v", k, k.TLS())
		}
	}
	names := map[TransportKind]string{
		TransportUDP: "Do53", TransportTCP: "DoTCP", TransportTLS: "DoT", TransportHTTPS: "DoH",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestStreamConfigDefaultsAndHandshakeRTTs(t *testing.T) {
	for _, k := range []TransportKind{TransportTCP, TransportTLS, TransportHTTPS} {
		c := StreamConfig{}.WithDefaults(k)
		if c.IdleTimeout != 10*time.Second || c.SessionLifetime != time.Hour {
			t.Errorf("%v defaults: idle=%v lifetime=%v", k, c.IdleTimeout, c.SessionLifetime)
		}
		wantOverhead := time.Duration(0)
		if k == TransportHTTPS {
			wantOverhead = 500 * time.Microsecond
		}
		if c.PerQueryOverhead != wantOverhead {
			t.Errorf("%v PerQueryOverhead = %v, want %v", k, c.PerQueryOverhead, wantOverhead)
		}
		// Handshake arithmetic: 1 transport RTT, +2 TLS RTTs cold, +1 resumed.
		wantCold, wantResumed := 1, 1
		if k.TLS() {
			wantCold, wantResumed = 3, 2
		}
		if got := c.HandshakeRTTs(k, false); got != wantCold {
			t.Errorf("%v cold HandshakeRTTs = %d, want %d", k, got, wantCold)
		}
		if got := c.HandshakeRTTs(k, true); got != wantResumed {
			t.Errorf("%v resumed HandshakeRTTs = %d, want %d", k, got, wantResumed)
		}
	}
	// Explicit values survive WithDefaults.
	c := StreamConfig{IdleTimeout: time.Second, TLSRTTs: 1}.WithDefaults(TransportTLS)
	if c.IdleTimeout != time.Second || c.TLSRTTs != 1 {
		t.Errorf("WithDefaults clobbered explicit values: %+v", c)
	}
}

// detEcosystem is newEcosystem with a draw-free authority: zero TLD-miss
// probability and zero jitter links, so answerAt consumes no randomness
// and lookup draw sequences can be replayed by hand.
func detEcosystem(t *testing.T) (*zonedb.DB, *Authority) {
	t.Helper()
	zones, err := zonedb.New(zonedb.Config{NumNames: 200, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 10}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	auth := NewAuthority(zones)
	auth.tldCacheMissProb, auth.jitter = 0, netsim.Link{}
	return zones, auth
}

// detProfile is a deterministic-link platform: no jitter, no slow
// episodes, no external warming — every delay is exact arithmetic and
// the only RNG draws are the documented frontend/address picks.
func detProfile(kind TransportKind, resume bool) PlatformProfile {
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	prof.Partitions = 1
	prof.Link = netsim.Link{Base: 5 * time.Millisecond}
	prof.AuthExtra = netsim.Link{}
	prof.Transport = kind
	prof.Stream = StreamConfig{SessionResumption: resume}
	return prof
}

// TestUDPDrawOrderContract pins the Do53 RNG draw order that the golden
// hashes depend on: frontend pick, outbound delivery, return delivery,
// address pick — and nothing else. A manual replay against a same-seeded
// RNG must land in the exact same state, proving the transport seam adds
// zero draws to the default path.
func TestUDPDrawOrderContract(t *testing.T) {
	zones, auth := detEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)] // jittered link: draws happen
	prof.ExternalQPS = 0
	prof.AuthExtra = netsim.Link{}
	name := zones.ByRank(0)

	rr := NewRecursive(prof, auth, stats.NewRNG(23))
	res := rr.LookupConn(nil, 0, name, DefaultRetryPolicy())
	if res.ServFail || res.Attempts != 1 {
		t.Fatalf("zero-fault lookup failed: %+v", res)
	}

	m := stats.NewRNG(23)
	_ = m.Intn(prof.Partitions)
	d1, _ := prof.Link.DeliverUnder(0, netsim.FaultProfile{}, m)
	_, _ = prof.Link.DeliverUnder(d1, netsim.FaultProfile{}, m)
	_ = m.Intn(len(prof.Addrs))
	if got, want := rr.rng.Uint64(), m.Uint64(); got != want {
		t.Fatalf("RNG state diverged from the documented draw order: %#x vs %#x", got, want)
	}
}

// TestStreamDrawOrderContract pins the stream draw order the same way:
// frontend pick, address pick, handshake deliveries, then the two
// in-stream deliveries.
func TestStreamDrawOrderContract(t *testing.T) {
	zones, auth := detEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	prof.AuthExtra = netsim.Link{}
	prof.Transport = TransportTLS
	name := zones.ByRank(0)

	rr := NewRecursive(prof, auth, stats.NewRNG(29))
	res := rr.LookupConn(&ConnState{}, 0, name, DefaultRetryPolicy())
	if res.ServFail || res.Attempts != 1 {
		t.Fatalf("zero-fault lookup failed: %+v", res)
	}

	m := stats.NewRNG(29)
	_ = m.Intn(prof.Partitions)
	_ = m.Intn(len(prof.Addrs))
	hs, ok := prof.Link.EstablishUnder(0, 3, netsim.FaultProfile{}, m)
	if !ok {
		t.Fatal("zero-fault handshake lost")
	}
	var st netsim.Stream
	st.Touch(hs, 10*time.Second)
	d1, _ := prof.Link.DeliverStream(&st, hs, netsim.FaultProfile{}, m)
	_, _ = prof.Link.DeliverStream(&st, hs+d1, netsim.FaultProfile{}, m)
	if got, want := rr.rng.Uint64(), m.Uint64(); got != want {
		t.Fatalf("RNG state diverged from the documented draw order: %#x vs %#x", got, want)
	}
}

// TestStreamColdReuseResume walks one DoT connection through its three
// cost tiers with exact arithmetic (Base=5ms ⇒ RTT=10ms): a cold lookup
// pays 3 handshake RTTs, a lookup inside the idle window pays none, and
// a reconnect within the ticket lifetime pays the resumed 2.
func TestStreamColdReuseResume(t *testing.T) {
	zones, auth := detEcosystem(t)
	prof := detProfile(TransportTLS, true)
	rr := NewRecursive(prof, auth, stats.NewRNG(31))
	name := zones.ByRank(0)
	cs := &ConnState{}
	rtt := 10 * time.Millisecond

	cold := rr.LookupConn(cs, 0, name, DefaultRetryPolicy())
	if cold.Reused || cold.Resumed || cold.Handshake != 3*rtt {
		t.Fatalf("cold: %+v", cold)
	}
	// Cold, draw-free authority: handshake + query RTT + the name's fixed
	// authoritative iteration delay.
	if cold.Duration != 3*rtt+rtt+name.AuthDelay {
		t.Fatalf("cold duration %v, want %v", cold.Duration, 4*rtt+name.AuthDelay)
	}

	// Within the idle window: reuse, no handshake, cache-warm exchange.
	now := cold.Duration + time.Second
	reused := rr.LookupConn(cs, now, name, DefaultRetryPolicy())
	if !reused.Reused || reused.Handshake != 0 || !reused.FromCache {
		t.Fatalf("reused: %+v", reused)
	}
	if reused.Duration != rtt {
		t.Fatalf("reused duration %v, want %v", reused.Duration, rtt)
	}

	// Past the idle window, inside the ticket lifetime: resumed handshake.
	now += prof.Stream.WithDefaults(TransportTLS).IdleTimeout + time.Minute
	resumed := rr.LookupConn(cs, now, name, DefaultRetryPolicy())
	if resumed.Reused || !resumed.Resumed || resumed.Handshake != 2*rtt {
		t.Fatalf("resumed: %+v", resumed)
	}
	wantIterate := time.Duration(0)
	if !resumed.FromCache {
		wantIterate = name.AuthDelay
	}
	if resumed.Duration != 2*rtt+rtt+wantIterate {
		t.Fatalf("resumed duration %v, want %v", resumed.Duration, 3*rtt+wantIterate)
	}

	// Same schedule without resumption: the reconnect is a full handshake.
	rr2 := NewRecursive(detProfile(TransportTLS, false), auth, stats.NewRNG(31))
	cs2 := &ConnState{}
	rr2.LookupConn(cs2, 0, name, DefaultRetryPolicy())
	full := rr2.LookupConn(cs2, now, name, DefaultRetryPolicy())
	if full.Resumed || full.Handshake != 3*rtt {
		t.Fatalf("resumption disabled: %+v", full)
	}
}

// TestDoTCPHandshakeOneRTT: DoTCP pays only the transport handshake and
// never marks Resumed (no TLS, no tickets).
func TestDoTCPHandshakeOneRTT(t *testing.T) {
	zones, auth := detEcosystem(t)
	rr := NewRecursive(detProfile(TransportTCP, true), auth, stats.NewRNG(37))
	cs := &ConnState{}
	res := rr.LookupConn(cs, 0, zones.ByRank(0), DefaultRetryPolicy())
	if res.Handshake != 10*time.Millisecond || res.Resumed {
		t.Fatalf("DoTCP cold: %+v", res)
	}
}

// TestDoHPerQueryOverhead: DoH is DoT plus the fixed HTTP framing cost on
// every exchange, including reused-connection ones.
func TestDoHPerQueryOverhead(t *testing.T) {
	zones, auth := detEcosystem(t)
	name := zones.ByRank(0)
	overhead := 500 * time.Microsecond

	dot := NewRecursive(detProfile(TransportTLS, false), auth, stats.NewRNG(41))
	doh := NewRecursive(detProfile(TransportHTTPS, false), auth, stats.NewRNG(41))
	csT, csH := &ConnState{}, &ConnState{}

	coldT := dot.LookupConn(csT, 0, name, DefaultRetryPolicy())
	coldH := doh.LookupConn(csH, 0, name, DefaultRetryPolicy())
	if coldH.Duration != coldT.Duration+overhead {
		t.Fatalf("cold DoH %v, DoT %v: want exactly +%v", coldH.Duration, coldT.Duration, overhead)
	}
	warmT := dot.LookupConn(csT, coldT.Duration+time.Second, name, DefaultRetryPolicy())
	warmH := doh.LookupConn(csH, coldT.Duration+time.Second, name, DefaultRetryPolicy())
	if warmH.Duration != warmT.Duration+overhead {
		t.Fatalf("warm DoH %v, DoT %v: want exactly +%v", warmH.Duration, warmT.Duration, overhead)
	}
}

// TestReuseMonotonicityProperty is the connection-reuse cost ordering
// over randomized deterministic links: at equal (zero) faults, a reused
// DoT exchange is never slower than a ticket-resumed reconnect, which is
// never slower than a cold connection.
func TestReuseMonotonicityProperty(t *testing.T) {
	zones, auth := detEcosystem(t)
	name := zones.ByRank(0)
	seeds := stats.NewRNG(43)
	for trial := 0; trial < 25; trial++ {
		base := time.Duration(1+seeds.Intn(50)) * time.Millisecond
		prof := detProfile(TransportTLS, true)
		prof.Link = netsim.Link{Base: base}
		rr := NewRecursive(prof, auth, stats.NewRNG(uint64(100+trial)))
		cs := &ConnState{}

		cold := rr.LookupConn(cs, 0, name, DefaultRetryPolicy())
		reused := rr.LookupConn(cs, cold.Duration+time.Second, name, DefaultRetryPolicy())
		resumedAt := cold.Duration + 2*time.Second + prof.Stream.WithDefaults(TransportTLS).IdleTimeout + time.Second
		resumed := rr.LookupConn(cs, resumedAt, name, DefaultRetryPolicy())

		if !reused.Reused || !resumed.Resumed || cold.Reused || cold.Resumed {
			t.Fatalf("trial %d (base %v): tiers mislabeled: cold=%+v reused=%+v resumed=%+v",
				trial, base, cold, reused, resumed)
		}
		if reused.Duration > resumed.Duration {
			t.Fatalf("trial %d (base %v): reused %v slower than resumed %v",
				trial, base, reused.Duration, resumed.Duration)
		}
		if resumed.Duration > cold.Duration {
			t.Fatalf("trial %d (base %v): resumed %v slower than cold %v",
				trial, base, resumed.Duration, cold.Duration)
		}
	}
}

// TestStreamResetReconnectsNotRetransmits: a fault on an established
// connection tears it down — the next attempt pays a fresh handshake
// (reconnect), the failure lands in the streamResets counter, and the
// datagram timeouts counter stays untouched.
func TestStreamResetReconnectsNotRetransmits(t *testing.T) {
	zones, auth := detEcosystem(t)
	prof := detProfile(TransportTLS, false)
	// Outage window after the first lookup completes but during the
	// second: the in-stream delivery at 6s dies, the reconnect at 9s
	// (after one 3s timeout) lands past the window and succeeds.
	prof.Faults = netsim.FaultProfile{Outages: []netsim.Window{{Start: 5 * time.Second, End: 8 * time.Second}}}
	rr := NewRecursive(prof, auth, stats.NewRNG(47))
	name := zones.ByRank(0)
	cs := &ConnState{}

	first := rr.LookupConn(cs, 0, name, DefaultRetryPolicy())
	if first.ServFail || first.Attempts != 1 {
		t.Fatalf("pre-outage lookup: %+v", first)
	}

	res := rr.LookupConn(cs, 6*time.Second, name, DefaultRetryPolicy())
	if res.ServFail {
		t.Fatalf("post-reset reconnect failed: %+v", res)
	}
	if !res.Reused {
		t.Fatal("connection was live at lookup start; Reused should be true")
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (one reset, one reconnect)", res.Attempts)
	}
	if res.Handshake != 30*time.Millisecond {
		t.Fatalf("reconnect handshake %v, want full 30ms", res.Handshake)
	}
	// 3s burnt timeout + 30ms handshake + 10ms exchange (+ re-iteration
	// if the cache entry expired in between).
	want := 3*time.Second + 40*time.Millisecond
	if !res.FromCache {
		want += zones.ByRank(0).AuthDelay
	}
	if res.Duration != want {
		t.Fatalf("duration %v, want %v", res.Duration, want)
	}
	timeouts, resets := rr.LossCounters()
	if timeouts != 0 || resets != 1 {
		t.Fatalf("counters timeouts=%d resets=%d, want 0/1", timeouts, resets)
	}
}

// TestStreamOutageConnectTimeouts: a connection that cannot even be
// established is a connect timeout, not a reset — the ladder walks to
// SERVFAIL exactly like Do53 and the failures land in the timeouts
// counter.
func TestStreamOutageConnectTimeouts(t *testing.T) {
	zones, auth := detEcosystem(t)
	prof := detProfile(TransportTCP, false)
	prof.Faults = netsim.FaultProfile{Outages: []netsim.Window{{Start: 0, End: time.Hour}}}
	rr := NewRecursive(prof, auth, stats.NewRNG(53))

	res := rr.LookupConn(&ConnState{}, 0, zones.ByRank(0), DefaultRetryPolicy())
	if !res.ServFail || res.RCode != RCodeServFail {
		t.Fatalf("outage lookup did not servfail: %+v", res)
	}
	if res.Duration != 9*time.Second || res.Attempts != 2 {
		t.Fatalf("ladder %v over %d attempts, want 9s over 2", res.Duration, res.Attempts)
	}
	timeouts, resets := rr.LossCounters()
	if timeouts != 2 || resets != 0 {
		t.Fatalf("counters timeouts=%d resets=%d, want 2/0", timeouts, resets)
	}
}

// TestStreamTotalLossServFail mirrors TestTotalLossGivesUpWithFullLadder
// over DoT: Loss=1 kills every handshake delivery, so the client walks
// the full timeout ladder and gives up with the accumulated wait.
func TestStreamTotalLossServFail(t *testing.T) {
	zones, auth := detEcosystem(t)
	prof := detProfile(TransportTLS, false)
	prof.Faults = netsim.FaultProfile{Loss: 1}
	rr := NewRecursive(prof, auth, stats.NewRNG(59))

	res := rr.LookupConn(&ConnState{}, 0, zones.ByRank(0), DefaultRetryPolicy())
	if !res.ServFail || res.Duration != 9*time.Second || res.Attempts != 2 {
		t.Fatalf("total loss: %+v", res)
	}
	if len(res.Answers) != 0 {
		t.Fatal("servfail carried answers")
	}
}

// TestStreamNoTruncationReAsk: responses of any size fit a stream, so a
// truncation threshold that forces Do53 into TCP fallback is a no-op for
// a stream transport.
func TestStreamNoTruncationReAsk(t *testing.T) {
	zones, auth := detEcosystem(t)
	var name *zonedb.Name
	for i := range zones.Names() {
		if n := zones.ByRank(i); len(n.Addrs) >= 2 {
			name = n
			break
		}
	}
	if name == nil {
		t.Skip("no multi-address name in the zone")
	}
	prof := detProfile(TransportTCP, false)
	prof.Faults = netsim.FaultProfile{TruncateOver: 1}
	rr := NewRecursive(prof, auth, stats.NewRNG(61))
	res := rr.LookupConn(&ConnState{}, 0, name, DefaultRetryPolicy())
	if res.TCPFallback {
		t.Fatalf("stream transport took the TC→TCP re-ask: %+v", res)
	}
	if len(res.Answers) < 2 {
		t.Fatalf("expected the full answer set, got %d", len(res.Answers))
	}
}

// TestNilConnStateAlwaysCold: without caller-held state nothing persists
// — every lookup is a fresh connection and a fresh handshake.
func TestNilConnStateAlwaysCold(t *testing.T) {
	zones, auth := detEcosystem(t)
	rr := NewRecursive(detProfile(TransportTLS, true), auth, stats.NewRNG(67))
	name := zones.ByRank(0)

	a := rr.LookupConn(nil, 0, name, DefaultRetryPolicy())
	b := rr.LookupConn(nil, time.Second, name, DefaultRetryPolicy())
	if a.Reused || b.Reused || b.Resumed {
		t.Fatalf("state leaked across nil-ConnState lookups: %+v, %+v", a, b)
	}
	if b.Handshake != 30*time.Millisecond {
		t.Fatalf("second lookup handshake %v, want full 30ms", b.Handshake)
	}
}
