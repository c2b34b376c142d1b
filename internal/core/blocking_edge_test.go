package core

import (
	"testing"
	"time"

	"dnscontext/internal/trace"
)

// TestBlockingGapEdgeCases pins the boundary semantics of the blocking
// heuristic: classify uses Gap > BlockThreshold for "on hand", so a gap
// exactly at the threshold still counts as blocked, a zero gap (the
// connection's SYN in the same capture tick as the DNS answer) is
// blocked, and a record whose answer lands after the connection starts
// (clock skew between the DNS and conn logs) never pairs at all.
func TestBlockingGapEdgeCases(t *testing.T) {
	const th = 100 * time.Millisecond // DefaultOptions().BlockThreshold
	cases := []struct {
		name      string
		gap       time.Duration // conn.TS - dns.TS; negative ⇒ skewed record
		wantClass Class
		wantGap   time.Duration
	}{
		{"zero gap", 0, ClassSC, 0},
		{"one tick inside", time.Microsecond, ClassSC, time.Microsecond},
		{"exactly at threshold", th, ClassSC, th},
		{"one tick beyond", th + time.Microsecond, ClassP, th + time.Microsecond},
		{"well beyond", time.Minute, ClassP, time.Minute},
		// The DNS answer timestamp sits after the connection start — a
		// skewed or reordered log. Pairing refuses future records, so the
		// connection is N rather than carrying a negative gap.
		{"negative gap (clock skew)", -time.Millisecond, ClassN, 0},
		{"negative gap (gross skew)", -time.Hour, ClassN, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dnsTS := 10 * time.Hour
			ds := &trace.Dataset{
				DNS: []trace.DNSRecord{
					mkDNS(houseA, resLoc, dnsTS, 3*time.Millisecond, "a.com", webIP, 12*time.Hour),
				},
				Conns: []trace.ConnRecord{
					mkConn(houseA, webIP, dnsTS+c.gap, time.Second, 443),
				},
			}
			a := mustAnalyze(t, ds, testOptions())
			pc := a.Paired[0]
			if pc.Class != c.wantClass {
				t.Fatalf("gap %v: class = %v, want %v", c.gap, pc.Class, c.wantClass)
			}
			if c.wantClass == ClassN {
				if pc.DNS != -1 {
					t.Fatalf("gap %v: skewed record paired (DNS=%d)", c.gap, pc.DNS)
				}
				return
			}
			if pc.Gap != c.wantGap {
				t.Fatalf("gap recorded as %v, want %v", pc.Gap, c.wantGap)
			}
		})
	}
}

// TestBlockingSCRBoundaryAtDerivedThreshold checks the SC/R split at the
// exact derived threshold: Duration <= threshold is SC, one tick above
// is R.
func TestBlockingSCRBoundaryAtDerivedThreshold(t *testing.T) {
	ds := &trace.Dataset{}
	// 50 lookups at 2 ms pin the local resolver's threshold at 5 ms
	// (2.5x the minimum, rounded up to a millisecond).
	for i := 0; i < 50; i++ {
		ds.DNS = append(ds.DNS, mkDNS(houseA, resLoc,
			time.Duration(i+1)*time.Minute, 2*time.Millisecond, "warm.com", cdnIP, time.Minute))
	}
	base := 100 * time.Minute
	ds.DNS = append(ds.DNS,
		mkDNS(houseA, resLoc, base, 5*time.Millisecond, "at.com", webIP, time.Hour),
		mkDNS(houseA, resLoc, base+time.Minute, 5*time.Millisecond+time.Microsecond, "above.com", webIP2, time.Hour),
	)
	ds.Conns = []trace.ConnRecord{
		mkConn(houseA, webIP, base+time.Millisecond, time.Second, 443),
		mkConn(houseA, webIP2, base+time.Minute+time.Millisecond, time.Second, 443),
	}
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	a := mustAnalyze(t, ds, opts)
	if th := a.Thresholds[resLoc.String()]; th != 5*time.Millisecond {
		t.Fatalf("derived threshold %v, want 5ms", th)
	}
	if got := a.Paired[0].Class; got != ClassSC {
		t.Fatalf("duration == threshold: %v, want SC", got)
	}
	if got := a.Paired[1].Class; got != ClassR {
		t.Fatalf("duration just above threshold: %v, want R", got)
	}
}

// TestThresholdGateTinyTraces exercises the sample gate for the SC/R
// threshold derivation at small trace sizes: the gate is
// max(50, len(DNS)/9200) capped at Opts.SCRMinSamples, and resolvers
// below it fall back to the 5 ms default.
func TestThresholdGateTinyTraces(t *testing.T) {
	mk := func(n int, dur time.Duration) *trace.Dataset {
		ds := &trace.Dataset{}
		for i := 0; i < n; i++ {
			ds.DNS = append(ds.DNS, mkDNS(houseA, resLoc,
				time.Duration(i+1)*time.Second, dur, "a.com", webIP, time.Hour))
		}
		return ds
	}

	t.Run("below the 50-sample floor", func(t *testing.T) {
		a := mustAnalyze(t, mk(49, 20*time.Millisecond), DefaultOptions())
		if _, ok := a.Thresholds[resLoc.String()]; ok {
			t.Fatal("resolver with 49 lookups got a derived threshold")
		}
		if th := a.thresholdFor(resLoc.String()); th != 5*time.Millisecond {
			t.Fatalf("fallback threshold %v, want 5ms default", th)
		}
	})

	t.Run("exactly at the floor", func(t *testing.T) {
		a := mustAnalyze(t, mk(50, 20*time.Millisecond), DefaultOptions())
		if th := a.Thresholds[resLoc.String()]; th != 50*time.Millisecond {
			t.Fatalf("threshold %v, want 50ms (2.5x 20ms)", th)
		}
	})

	t.Run("sub-millisecond minimum clamps to the default", func(t *testing.T) {
		// 2.5 x 200µs = 500µs, rounds up to 1 ms, then clamps to the 5 ms
		// default: the derived threshold never undercuts it.
		a := mustAnalyze(t, mk(50, 200*time.Microsecond), DefaultOptions())
		if th := a.Thresholds[resLoc.String()]; th != 5*time.Millisecond {
			t.Fatalf("threshold %v, want clamped 5ms", th)
		}
	})

	t.Run("rounding lands on whole milliseconds", func(t *testing.T) {
		// 2.5 x 3ms = 7.5ms rounds up to 8ms.
		a := mustAnalyze(t, mk(50, 3*time.Millisecond), DefaultOptions())
		if th := a.Thresholds[resLoc.String()]; th != 8*time.Millisecond {
			t.Fatalf("threshold %v, want 8ms", th)
		}
	})

	t.Run("SCRMinSamples caps the gate", func(t *testing.T) {
		opts := DefaultOptions()
		opts.SCRMinSamples = 10
		a := mustAnalyze(t, mk(10, 20*time.Millisecond), opts)
		if th := a.Thresholds[resLoc.String()]; th != 50*time.Millisecond {
			t.Fatalf("threshold %v, want 50ms with lowered gate", th)
		}
	})
}
