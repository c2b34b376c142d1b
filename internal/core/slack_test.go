package core

import (
	"testing"
	"time"

	"dnscontext/internal/trace"
)

func TestSlackBasics(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			// Used immediately: no slack.
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "fast.com", webIP, time.Hour),
			// First used 30 s later: 30 s of slack.
			mkDNS(houseA, resLoc, 20*time.Second, 3*time.Millisecond, "slow.com", webIP2, time.Hour),
			// Never used: not part of the slack population.
			mkDNS(houseA, resLoc, 30*time.Second, 3*time.Millisecond, "unused.com", cdnIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
			mkConn(houseA, webIP2, 50*time.Second, time.Second, 443),
			// Reuse of fast.com must not enter the slack population (it
			// is not the record's first use).
			mkConn(houseA, webIP, 100*time.Second, time.Second, 443),
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	s := a.Slack()
	if s.TotalLookups != 2 {
		t.Fatalf("slack population %d, want 2 used lookups", s.TotalLookups)
	}
	if s.BlockedLookups != 1 {
		t.Fatalf("blocked lookups %d, want 1", s.BlockedLookups)
	}
	if s.FirstUseGap.N() != 2 {
		t.Fatalf("gap samples %d", s.FirstUseGap.N())
	}
	if s.SlackOver1s != 0.5 || s.SlackOver10s != 0.5 {
		t.Fatalf("slack fractions %v / %v", s.SlackOver1s, s.SlackOver10s)
	}
}

func TestTolerableExtraDelay(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			// Blocked (gap 5ms) — already blocked, never "newly" blocked.
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
			// Gap 500 ms — newly blocked if lookups were 1 s slower.
			mkConn(houseA, webIP, 10*time.Second+500*time.Millisecond, time.Second, 443),
			// Gap 1 min — safe even against 1 s extra delay.
			mkConn(houseA, webIP, 11*time.Second+time.Minute, time.Second, 443),
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	if got := a.TolerableExtraDelay(time.Second); got < 0.33 || got > 0.34 {
		t.Fatalf("newly blocked at +1s = %v, want 1/3", got)
	}
	if got := a.TolerableExtraDelay(100 * time.Millisecond); got != 0 {
		t.Fatalf("newly blocked at +100ms = %v, want 0", got)
	}
	var empty Analysis
	empty.Opts = DefaultOptions()
	if empty.TolerableExtraDelay(time.Second) != 0 {
		t.Fatal("empty analysis slack not zero")
	}
}

func TestSlackPaperBand(t *testing.T) {
	a := analysisForPaperBands(t)
	s := a.Slack()
	// The slack phenomenon the authors' earlier work leveraged: a
	// sizeable share of lookups have seconds of headroom before first
	// use.
	within(t, "lookups with >1s slack", s.SlackOver1s, 0.05, 0.60)
	if s.BlockedLookups >= s.TotalLookups {
		t.Fatal("every lookup blocked; no slack at all")
	}
	// Adding 100ms to every lookup pushes only a tiny extra fraction of
	// connections into blocking.
	if f := a.TolerableExtraDelay(100 * time.Millisecond); f > 0.05 {
		t.Fatalf("+100ms would newly block %.3f of connections", f)
	}
}
