// Package chaos is a seeded userspace fault proxy for real sockets: it
// sits between a DNS client (dnsserver.ClientPool, internal/bulk's live
// engine) and a live server and injects the netsim.FaultProfile failure
// taxonomy — loss, delay, jitter, reordering, duplication, byte
// corruption, scheduled blackhole windows — onto actual UDP datagrams
// and TCP streams, plus the one fault only a real stream can express:
// a mid-stream TCP reset.
//
// Determinism is per-decision, not per-schedule: each direction of a
// proxy draws its fault decisions from its own seeded stats.RNG, so the
// i-th datagram (or stream chunk) a direction carries always receives
// the same fate for a given seed. Wall-clock interleaving between
// directions still varies run to run — this is a real-socket tool, not
// the virtual-time simulator — but fault *rates and patterns* are
// reproducible, which is what soak tests need to be stable.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"dnscontext/internal/netsim"
	"dnscontext/internal/obs"
	"dnscontext/internal/stats"
)

// Profile parameterizes the faults a proxy injects, mirroring
// netsim.FaultProfile on real sockets (see the parity table in
// DESIGN.md §7i). The zero value injects nothing and forwards
// everything unchanged.
type Profile struct {
	// Loss is the probability one datagram is silently dropped. Ignored
	// for TCP (the kernel would just retransmit; use Blackholes or
	// TCPReset to hurt a stream).
	Loss float64
	// Delay is a fixed latency added to every delivery.
	Delay time.Duration
	// Jitter is the mean of an additional exponential latency term added
	// to every delivery, matching netsim.FaultProfile.ExtraJitter.
	Jitter time.Duration
	// Reorder is the probability a datagram is held back an extra
	// 2·(Delay+Jitter)+1ms beyond its computed delay, letting later
	// datagrams overtake it. Requires Delay or Jitter to matter at UDP
	// timescales but works alone too. Ignored for TCP (a stream cannot
	// reorder).
	Reorder float64
	// Duplicate is the probability a datagram is delivered twice.
	// Ignored for TCP.
	Duplicate float64
	// Corrupt is the probability one delivery has a random byte
	// flipped — exercising the decoder-error path end to end.
	Corrupt float64
	// Blackholes are scheduled windows, relative to proxy creation,
	// during which every delivery is dropped (UDP) or the stream stalls
	// (TCP) — netsim.FaultProfile.Outages on real sockets.
	Blackholes []netsim.Window
	// TCPReset is the per-chunk probability a TCP proxy tears the
	// connection down mid-stream with an RST (SO_LINGER 0). Ignored for
	// UDP.
	TCPReset float64
}

// IsZero reports whether the profile injects nothing.
func (p Profile) IsZero() bool {
	return p.Loss <= 0 && p.Delay <= 0 && p.Jitter <= 0 && p.Reorder <= 0 &&
		p.Duplicate <= 0 && p.Corrupt <= 0 && len(p.Blackholes) == 0 && p.TCPReset <= 0
}

// faults is the part of the profile netsim.FaultProfile already models —
// loss, jitter, and outage windows — so both fault layers draw them
// through one implementation.
func (p Profile) faults() netsim.FaultProfile {
	return netsim.FaultProfile{Loss: p.Loss, ExtraJitter: p.Jitter, Outages: p.Blackholes}
}

// Config parameterizes a proxy.
type Config struct {
	// Listen is the address to listen on (default "127.0.0.1:0" — an
	// ephemeral loopback port; read it back with Proxy.Addr).
	Listen string
	// Upstream is the server the proxy forwards to. Required.
	Upstream string
	// Profile is the fault profile to inject.
	Profile Profile
	// Seed seeds the per-direction fault RNGs; the same seed reproduces
	// the same per-datagram fate sequence.
	Seed uint64
	// Metrics, when non-nil, receives the proxy's instrument families
	// (chaos_*).
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	return c
}

// Stats is a point-in-time snapshot of what a proxy has done, summed
// over both directions.
type Stats struct {
	Forwarded  uint64 // deliveries passed through (including delayed/corrupted ones)
	Dropped    uint64 // deliveries dropped by random loss
	Blackholed uint64 // deliveries dropped (UDP) or stalled (TCP) by a blackhole window
	Duplicated uint64 // extra copies sent
	Corrupted  uint64 // deliveries with a byte flipped
	Delayed    uint64 // deliveries held back by delay/jitter
	Reordered  uint64 // deliveries given the extra reorder hold-back
	Resets     uint64 // TCP connections torn down mid-stream
}

// counters is the shared atomic tally behind Stats plus the optional
// obs instruments. All fields are nil-safe on the obs side.
type counters struct {
	forwarded, dropped, blackholed, duplicated atomic.Uint64
	corrupted, delayed, reordered, resets      atomic.Uint64

	mForwarded  *obs.CounterVec // dir
	mDropped    *obs.CounterVec // dir, cause
	mDuplicated *obs.CounterVec // dir
	mCorrupted  *obs.CounterVec // dir
	mDelayed    *obs.CounterVec // dir
	mResets     *obs.Counter
}

func newCounters(reg *obs.Registry) *counters {
	return &counters{
		mForwarded: reg.CounterVec("chaos_forwarded_total",
			"Deliveries the fault proxy passed through, by direction.", "dir"),
		mDropped: reg.CounterVec("chaos_dropped_total",
			"Deliveries the fault proxy dropped, by direction and cause.", "dir", "cause"),
		mDuplicated: reg.CounterVec("chaos_duplicated_total",
			"Extra duplicate deliveries injected, by direction.", "dir"),
		mCorrupted: reg.CounterVec("chaos_corrupted_total",
			"Deliveries with a corrupted byte, by direction.", "dir"),
		mDelayed: reg.CounterVec("chaos_delayed_total",
			"Deliveries held back by delay, jitter, or reordering, by direction.", "dir"),
		mResets: reg.Counter("chaos_resets_total",
			"TCP connections reset mid-stream by the fault proxy."),
	}
}

func (c *counters) snapshot() Stats {
	return Stats{
		Forwarded:  c.forwarded.Load(),
		Dropped:    c.dropped.Load(),
		Blackholed: c.blackholed.Load(),
		Duplicated: c.duplicated.Load(),
		Corrupted:  c.corrupted.Load(),
		Delayed:    c.delayed.Load(),
		Reordered:  c.reordered.Load(),
		Resets:     c.resets.Load(),
	}
}

// fate is the decision set for one delivery, drawn from a direction's
// RNG in a fixed order so fate sequences are seed-reproducible.
type fate struct {
	drop      bool
	blackhole bool
	dup       bool
	corrupt   bool
	// corruptAt is the byte index to flip, modulo the delivery length.
	corruptAt int
	delay     time.Duration
	reorder   bool
	reset     bool
}

// lane is one direction of a proxy: its seeded RNG (mutex-guarded — the
// fate draw is the serialization point that makes per-direction fate
// sequences deterministic) and its metric handles.
type lane struct {
	mu  sync.Mutex
	rng *stats.RNG

	forwarded  *obs.Counter
	dropLoss   *obs.Counter
	dropBlack  *obs.Counter
	duplicated *obs.Counter
	corrupted  *obs.Counter
	delayed    *obs.Counter
}

func newLane(seed uint64, dir string, c *counters) *lane {
	return &lane{
		rng:        stats.NewRNG(seed),
		forwarded:  c.mForwarded.With(dir),
		dropLoss:   c.mDropped.With(dir, "loss"),
		dropBlack:  c.mDropped.With(dir, "blackhole"),
		duplicated: c.mDuplicated.With(dir),
		corrupted:  c.mCorrupted.With(dir),
		delayed:    c.mDelayed.With(dir),
	}
}

// decide draws one delivery's fate. Outages, loss, and jitter draw
// through netsim.FaultProfile; the faults only real sockets have follow.
// Zero-probability faults consume no randomness (RNG.Bool(p≤0) draws
// nothing), so enabling one fault does not perturb another's sequence.
func (l *lane) decide(p Profile, elapsed time.Duration) fate {
	l.mu.Lock()
	defer l.mu.Unlock()
	var f fate
	fp := p.faults()
	if fp.OutageAt(elapsed) {
		f.blackhole = true
		return f // no randomness consumed during an outage, as in netsim
	}
	if fp.Lost(elapsed, l.rng) {
		f.drop = true
		return f
	}
	f.dup = l.rng.Bool(p.Duplicate)
	if l.rng.Bool(p.Corrupt) {
		f.corrupt = true
		f.corruptAt = int(l.rng.Uint64n(1 << 16))
	}
	f.delay = p.Delay + fp.Jitter(l.rng)
	if l.rng.Bool(p.Reorder) {
		f.reorder = true
		f.delay += 2*(p.Delay+p.Jitter) + time.Millisecond
	}
	f.reset = l.rng.Bool(p.TCPReset)
	return f
}

// corruptByte flips one bit of the byte at the fate's index (modulo
// len) in place.
func corruptByte(b []byte, at int) {
	if len(b) == 0 {
		return
	}
	b[at%len(b)] ^= 0x20
}
