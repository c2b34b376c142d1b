package resolver

import "time"

// RetryPolicy is the client-side failure handling for one query: how long
// to wait for a response, how many times to retry, how the timeout grows,
// and whether retries rotate across the platform's anycast addresses.
// This is the standard resilient-measurement ladder (ZDNS, resolv.conf),
// and the only ladder arithmetic in the repository: the simulator charges
// its timeouts to the lookup's client-observed duration, and the live
// dnsserver clients arm real timers with the same values.
type RetryPolicy struct {
	// Timeout is how long the client waits for the first response.
	Timeout time.Duration
	// MaxRetries is the number of additional attempts after the first.
	// Negative means none.
	MaxRetries int
	// Backoff multiplies the timeout after each failed attempt (bounded
	// exponential backoff). Values below 1 are treated as 1 (flat).
	Backoff float64
	// MaxTimeout caps every attempt's timeout, the first one included.
	// Zero means uncapped.
	MaxTimeout time.Duration
	// RotateServers advances to the platform's next anycast address on
	// each retry instead of re-asking the same frontend.
	RotateServers bool
}

// Attempts is the total number of transmission attempts the policy allows.
func (p RetryPolicy) Attempts() int {
	return 1 + max(p.MaxRetries, 0)
}

// AttemptTimeout is the timeout of the 0-based attempt i:
// Timeout·max(Backoff,1)^i, with MaxTimeout capping every attempt. The
// product is taken one step at a time, each truncated to a Duration, and
// stops growing once it reaches the cap.
func (p RetryPolicy) AttemptTimeout(i int) time.Duration {
	capped := func(d time.Duration) bool { return p.MaxTimeout > 0 && d >= p.MaxTimeout }
	d := p.Timeout
	for ; i > 0 && !capped(d); i-- {
		d = time.Duration(float64(d) * max(p.Backoff, 1))
	}
	if capped(d) {
		return p.MaxTimeout
	}
	return d
}

// DefaultRetryPolicy mirrors a glibc resolv.conf stub: 3 s timeout, one
// retry with doubled timeout, rotating across the configured servers.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:       3 * time.Second,
		MaxRetries:    1,
		Backoff:       2,
		MaxTimeout:    10 * time.Second,
		RotateServers: true,
	}
}

// AndroidRetryPolicy mirrors the Android/Bionic resolver: a longer 5 s
// deadline but more attempts, rotating servers — phones try hard before
// surfacing a failure to the app.
func AndroidRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:       5 * time.Second,
		MaxRetries:    2,
		Backoff:       1.5,
		MaxTimeout:    15 * time.Second,
		RotateServers: true,
	}
}

// IoTRetryPolicy mirrors cheap embedded firmware: one shot, a short
// timeout, no server rotation — the gear just waits for its next period.
func IoTRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:       2 * time.Second,
		MaxRetries:    0,
		Backoff:       1,
		RotateServers: false,
	}
}
