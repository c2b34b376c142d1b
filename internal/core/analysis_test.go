package core

import (
	"testing"
	"time"

	"dnscontext/internal/trace"
)

func TestFigure1FirstUseSplit(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
			mkDNS(houseA, resLoc, 100*time.Second, 3*time.Millisecond, "b.com", webIP2, time.Hour),
		},
		Conns: []trace.ConnRecord{
			// Within knee, first use.
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
			// Beyond knee, first use (prefetch-like).
			mkConn(houseA, webIP2, 200*time.Second, time.Second, 443),
			// Beyond knee, reuse.
			mkConn(houseA, webIP, 300*time.Second, time.Second, 443),
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	f1 := a.Figure1()
	if f1.Gaps.N() != 3 {
		t.Fatalf("gaps %d", f1.Gaps.N())
	}
	if f1.FirstUseWithinKnee != 1.0 {
		t.Fatalf("within-knee first-use %v, want 1.0", f1.FirstUseWithinKnee)
	}
	if f1.FirstUseBeyondKnee != 0.5 {
		t.Fatalf("beyond-knee first-use %v, want 0.5", f1.FirstUseBeyondKnee)
	}
}

func TestFigure2AndSignificance(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			// SC lookup: 4 ms, app 1 s => contribution ~0.4%.
			mkDNS(houseA, resLoc, 10*time.Second, 4*time.Millisecond, "a.com", webIP, time.Hour),
			// R lookup: 50 ms, app 0.1 s => contribution 33%, abs high.
			mkDNS(houseA, resLoc, 20*time.Second, 50*time.Millisecond, "b.com", webIP2, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+time.Millisecond, time.Second, 443),
			mkConn(houseA, webIP2, 20*time.Second+time.Millisecond, 100*time.Millisecond, 443),
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	f2 := a.Figure2()
	if f2.LookupDelays.N() != 2 || f2.ContributionSC.N() != 1 || f2.ContributionR.N() != 1 {
		t.Fatalf("figure2 sample counts wrong: %d/%d/%d",
			f2.LookupDelays.N(), f2.ContributionSC.N(), f2.ContributionR.N())
	}
	wantSC := 100 * 4.0 / 1004.0
	if got := f2.ContributionSC.Median(); got < wantSC-0.01 || got > wantSC+0.01 {
		t.Fatalf("SC contribution %.3f%%, want %.3f%%", got, wantSC)
	}

	sig := a.Significance()
	if sig.N != 2 {
		t.Fatalf("sig N=%d", sig.N)
	}
	if sig.BothInsignificant != 0.5 || sig.BothSignificant != 0.5 {
		t.Fatalf("quadrants: %+v", sig)
	}
	if sig.OverallSignificant != 0.5 {
		t.Fatalf("overall %v, want 0.5 (1 of 2 conns)", sig.OverallSignificant)
	}
}

func TestTTLViolationsAndGapMedians(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, 60*time.Second),
		},
		Conns: []trace.ConnRecord{
			// First use 100 s after lookup: record expired 30 s before
			// use (expiry at 70 s) -> P with violation, lateness 40 s.
			mkConn(houseA, webIP, 110*time.Second, time.Second, 443),
			// Reuse at 10 min: LC with violation.
			mkConn(houseA, webIP, 10*time.Minute, time.Second, 443),
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	v := a.TTLViolations()
	if v.PExpiredFraction != 1 || v.LCExpiredFraction != 1 {
		t.Fatalf("expired fractions %v / %v", v.PExpiredFraction, v.LCExpiredFraction)
	}
	if v.Lateness.N() != 2 {
		t.Fatalf("lateness samples %d", v.Lateness.N())
	}
	if got := v.Lateness.Min(); got != 40 {
		t.Fatalf("min lateness %v s, want 40", got)
	}
	if v.LatenessBeyond30s != 1 {
		t.Fatalf("beyond-30s %v", v.LatenessBeyond30s)
	}
	if v.GapMedianP != 100*time.Second {
		t.Fatalf("P gap median %v", v.GapMedianP)
	}
	if v.GapMedianLC != 10*time.Minute-10*time.Second {
		t.Fatalf("LC gap median %v", v.GapMedianLC)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "used.com", webIP, time.Hour),
			mkDNS(houseA, resLoc, 11*time.Second, 3*time.Millisecond, "unused1.com", webIP2, time.Hour),
			mkDNS(houseA, resLoc, 12*time.Second, 3*time.Millisecond, "unused2.com", cdnIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 60*time.Second, time.Second, 443), // P
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	pf := a.Prefetch()
	if pf.TotalLookups != 3 || pf.UnusedLookups != 2 {
		t.Fatalf("lookups %d unused %d", pf.TotalLookups, pf.UnusedLookups)
	}
	if pf.UnusedFraction < 0.66 || pf.UnusedFraction > 0.67 {
		t.Fatalf("unused fraction %v", pf.UnusedFraction)
	}
	// 1 P lookup / (1 + 2 unused) = 1/3.
	if pf.SpeculativeUsedFraction < 0.33 || pf.SpeculativeUsedFraction > 0.34 {
		t.Fatalf("speculative used %v", pf.SpeculativeUsedFraction)
	}
}

func TestNoDNSBreakdown(t *testing.T) {
	ds := &trace.Dataset{
		Conns: []trace.ConnRecord{
			mkConn(houseA, peerIP, time.Second, time.Second, 50000), // p2p
			mkConn(houseA, peerIP, 2*time.Second, time.Second, 123), // hardcoded NTP
			mkConn(houseA, peerIP, 3*time.Second, time.Second, 853), // DoT!
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	nd := a.NoDNS()
	if nd.Total != 3 {
		t.Fatalf("N total %d", nd.Total)
	}
	if nd.HighPortFraction < 0.33 || nd.HighPortFraction > 0.34 {
		t.Fatalf("high-port %v", nd.HighPortFraction)
	}
	if nd.ReservedPortCounts[123] != 1 {
		t.Fatalf("NTP count %d", nd.ReservedPortCounts[123])
	}
	if nd.DoTConns != 1 {
		t.Fatalf("DoT conns %d", nd.DoTConns)
	}
	if nd.UnpairedNonP2PFraction < 0.66 || nd.UnpairedNonP2PFraction > 0.67 {
		t.Fatalf("unpaired non-p2p %v", nd.UnpairedNonP2PFraction)
	}
}

func TestWholeHouseCrossDevice(t *testing.T) {
	// Device 1 (house A) looks up a.com at t=10s (TTL 10 min). Device 2
	// (same house, cold stub) must block on its own lookup at t=60s; a
	// whole-house cache would have served it.
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, 10*time.Minute),
			mkDNS(houseA, resLoc, 60*time.Second, 3*time.Millisecond, "a.com", webIP, 10*time.Minute),
			// Unrelated house B lookup must not help house A.
			mkDNS(houseB, resLoc, 30*time.Second, 3*time.Millisecond, "b.com", webIP2, 10*time.Minute),
			mkDNS(houseB, resLoc, 90*time.Second, 50*time.Millisecond, "b.com", webIP2, 10*time.Minute),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
			mkConn(houseA, webIP, 60*time.Second+5*time.Millisecond, time.Second, 443),
			mkConn(houseB, webIP2, 30*time.Second+5*time.Millisecond, time.Second, 443),
			mkConn(houseB, webIP2, 90*time.Second+60*time.Millisecond, time.Second, 443),
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	wh := a.WholeHouse()
	// Conn 1 (house A second lookup) and conn 3 (house B second lookup)
	// are covered; conns 0 and 2 are first-ever and are not.
	if wh.Moved != 2 {
		t.Fatalf("moved %d, want 2", wh.Moved)
	}
	if wh.SCTotal+wh.RTotal != 4 {
		t.Fatalf("blocked totals %d+%d", wh.SCTotal, wh.RTotal)
	}
	if wh.MovedFraction != 0.5 {
		t.Fatalf("moved fraction %v", wh.MovedFraction)
	}
}

func TestWholeHouseExpiredNotCovered(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, 20*time.Second),
			mkDNS(houseA, resLoc, 120*time.Second, 3*time.Millisecond, "a.com", webIP, 20*time.Second),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443),
			// The earlier record expired at t=30s; at t=120s a
			// whole-house cache holds nothing.
			mkConn(houseA, webIP, 120*time.Second+5*time.Millisecond, time.Second, 443),
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	if wh := a.WholeHouse(); wh.Moved != 0 {
		t.Fatalf("expired record counted as coverage: %+v", wh)
	}
}

func TestRefreshSimulation(t *testing.T) {
	// One name, TTL 100 s, house A connects every 60 s for 10 minutes:
	// standard cache alternates hit/miss; refresh-all only misses once.
	ds := &trace.Dataset{}
	for i := 0; i < 10; i++ {
		ts := time.Duration(i) * time.Minute
		ds.DNS = append(ds.DNS, mkDNS(houseA, resLoc, ts, 3*time.Millisecond, "a.com", webIP, 100*time.Second))
		ds.Conns = append(ds.Conns, mkConn(houseA, webIP, ts+5*time.Millisecond, time.Second, 443))
	}
	a := mustAnalyze(t, ds, testOptions())
	rf := a.RefreshSimulation(10 * time.Second)
	if rf.Conns != 10 {
		t.Fatalf("conns %d", rf.Conns)
	}
	// Standard: conn at t=0 miss, t=60 hit (TTL 100), t=120 miss, ...
	if rf.Standard.Misses != 5 || rf.Standard.Hits != 5 {
		t.Fatalf("standard hits/misses %d/%d", rf.Standard.Hits, rf.Standard.Misses)
	}
	if rf.RefreshAll.Misses != 1 || rf.RefreshAll.Hits != 9 {
		t.Fatalf("refresh hits/misses %d/%d", rf.RefreshAll.Hits, rf.RefreshAll.Misses)
	}
	// Refresh lookups: initial + one per TTL over the remaining window
	// (~9 min / 100 s = 5).
	if rf.RefreshAll.Lookups < 5 || rf.RefreshAll.Lookups > 7 {
		t.Fatalf("refresh lookups %d", rf.RefreshAll.Lookups)
	}
	if rf.LookupMultiplier <= 1 {
		t.Fatalf("multiplier %v", rf.LookupMultiplier)
	}
}

func TestRefreshTTLFloorNotRefreshed(t *testing.T) {
	// TTL 5 s with floor 10 s: refresh-all behaves exactly like the
	// standard cache.
	ds := &trace.Dataset{}
	for i := 0; i < 6; i++ {
		ts := time.Duration(i) * time.Minute
		ds.DNS = append(ds.DNS, mkDNS(houseA, resLoc, ts, 3*time.Millisecond, "s.com", webIP, 5*time.Second))
		ds.Conns = append(ds.Conns, mkConn(houseA, webIP, ts+5*time.Millisecond, time.Second, 443))
	}
	a := mustAnalyze(t, ds, testOptions())
	rf := a.RefreshSimulation(10 * time.Second)
	if rf.RefreshAll.Lookups != rf.Standard.Lookups {
		t.Fatalf("short-TTL name was refreshed: %d vs %d", rf.RefreshAll.Lookups, rf.Standard.Lookups)
	}
}

func TestDatasetStats(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
			{QueryTS: 20 * time.Second, TS: 20*time.Second + time.Millisecond,
				Client: houseA, Resolver: resLoc, Query: "a.com", QType: 28},
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, time.Minute, time.Second, 443),
			{TS: 2 * time.Minute, Proto: trace.UDP, Orig: houseB, OrigPort: 1,
				Resp: peerIP, RespPort: 123, OrigBytes: 48},
		},
	}
	a := mustAnalyze(t, ds, testOptions())
	s := a.DatasetStats()
	if s.DNSTransactions != 2 || s.Connections != 2 || s.Houses != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.TCPFraction != 0.5 || s.UDPFraction != 0.5 {
		t.Fatalf("proto split %v/%v", s.TCPFraction, s.UDPFraction)
	}
	if s.AnswerlessFraction != 0.5 {
		t.Fatalf("answerless %v", s.AnswerlessFraction)
	}
	if s.TotalBytes != 20500+48 {
		t.Fatalf("bytes %d", s.TotalBytes)
	}
	if s.Window != 2*time.Minute {
		t.Fatalf("window %v", s.Window)
	}
}

func TestDatasetStatsPaperBand(t *testing.T) {
	a := analysisForPaperBands(t)
	s := a.DatasetStats()
	// Paper: 88% TCP / 12% UDP.
	within(t, "TCP fraction (paper 0.88)", s.TCPFraction, 0.75, 0.97)
	if s.Houses < 40 {
		t.Fatalf("houses %d", s.Houses)
	}
}
