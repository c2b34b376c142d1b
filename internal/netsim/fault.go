package netsim

import (
	"time"

	"dnscontext/internal/stats"
)

// Window is a half-open interval [Start, End) of virtual time.
type Window struct {
	Start, End time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End }

// FaultProfile parameterizes the failures injected into a link: random
// per-transmission packet loss, extra latency jitter (congestion), and
// scheduled total-loss windows (a resolver-platform outage). The zero
// value injects nothing and — critically for reproducibility — consumes
// no randomness, so a zero-fault run is bit-identical to a run built
// before fault injection existed.
type FaultProfile struct {
	// Loss is the probability one transmission (a single one-way packet
	// delivery) is dropped.
	Loss float64
	// ExtraJitter is the mean of an additional exponential latency term
	// added to every delivery that survives.
	ExtraJitter time.Duration
	// Outages are scheduled windows during which every delivery is lost,
	// regardless of Loss — the link's far end is down.
	Outages []Window
	// TruncateOver, when positive, marks UDP responses carrying more than
	// this many answers as truncated, forcing the client into TCP
	// fallback (one extra handshake plus exchange). Zero disables
	// truncation.
	TruncateOver int
}

// IsZero reports whether the profile injects nothing.
func (f FaultProfile) IsZero() bool {
	return f.Loss <= 0 && f.ExtraJitter <= 0 && len(f.Outages) == 0 && f.TruncateOver <= 0
}

// OutageAt reports whether t falls inside a scheduled outage window.
func (f FaultProfile) OutageAt(t time.Duration) bool {
	for _, w := range f.Outages {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// OutageEnd returns when the outage covering t ends: the latest End among
// the windows containing t, or t itself when no window does. A stream
// that cannot drop bytes stalls until then.
func (f FaultProfile) OutageEnd(t time.Duration) time.Duration {
	end := t
	for _, w := range f.Outages {
		if w.Contains(t) && w.End > end {
			end = w.End
		}
	}
	return end
}

// Lost samples whether a transmission sent at time t is dropped. During
// an outage it is always dropped (consuming no randomness); otherwise it
// is dropped with probability Loss. Loss <= 0 consumes no randomness.
func (f FaultProfile) Lost(t time.Duration, r *stats.RNG) bool {
	if f.OutageAt(t) {
		return true
	}
	return r.Bool(f.Loss)
}

// Jitter samples the extra latency added to one delivery. A zero
// ExtraJitter returns zero without consuming randomness.
func (f FaultProfile) Jitter(r *stats.RNG) time.Duration {
	if f.ExtraJitter <= 0 {
		return 0
	}
	return time.Duration(float64(f.ExtraJitter) * r.ExpFloat64())
}

// Truncated reports whether a UDP response with n answers exceeds the
// truncation threshold.
func (f FaultProfile) Truncated(n int) bool {
	return f.TruncateOver > 0 && n > f.TruncateOver
}
