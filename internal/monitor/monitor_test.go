package monitor

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/pcap"
	"dnscontext/internal/trace"
)

var (
	houseA   = netip.MustParseAddr("10.1.0.1")
	remoteA  = netip.MustParseAddr("203.0.0.5")
	resolver = netip.MustParseAddr("10.0.0.2")
)

func sampleDataset() *trace.Dataset {
	return &trace.Dataset{
		DNS: []trace.DNSRecord{{
			QueryTS:  100 * time.Millisecond,
			TS:       105 * time.Millisecond,
			Client:   houseA,
			Resolver: resolver,
			ID:       7,
			Query:    "www.site00001.com",
			QType:    1,
			Answers:  []trace.Answer{{Addr: remoteA, TTL: 300 * time.Second}},
		}},
		Conns: []trace.ConnRecord{
			{
				TS: 110 * time.Millisecond, Duration: 2 * time.Second, Proto: trace.TCP,
				Orig: houseA, OrigPort: 40001, Resp: remoteA, RespPort: 443,
				OrigBytes: 1200, RespBytes: 90000,
			},
			{
				TS: 500 * time.Millisecond, Duration: 0, Proto: trace.UDP,
				Orig: houseA, OrigPort: 40002, Resp: netip.MustParseAddr("198.51.100.123"), RespPort: 123,
				OrigBytes: 48, RespBytes: 48,
			},
		},
	}
}

func runThrough(t *testing.T, ds *trace.Dataset, opts SynthOptions) *trace.Dataset {
	t.Helper()
	m := New(DefaultOptions())
	err := Synthesize(ds, opts, func(ts time.Duration, frame []byte) error {
		m.FeedFrame(ts, frame)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.DecodeErrors != 0 || m.DNSParseErrs != 0 {
		t.Fatalf("monitor errors: decode=%d dns=%d", m.DecodeErrors, m.DNSParseErrs)
	}
	return m.Flush()
}

func TestRoundTripSmall(t *testing.T) {
	in := sampleDataset()
	out := runThrough(t, in, SynthOptions{})

	if len(out.DNS) != 1 {
		t.Fatalf("DNS records: %d", len(out.DNS))
	}
	d := out.DNS[0]
	want := in.DNS[0]
	if d.QueryTS != want.QueryTS || d.TS != want.TS {
		t.Errorf("dns times %v/%v, want %v/%v", d.QueryTS, d.TS, want.QueryTS, want.TS)
	}
	if d.Client != want.Client || d.Resolver != want.Resolver || d.Query != want.Query {
		t.Errorf("dns identity mismatch: %+v", d)
	}
	if len(d.Answers) != 1 || d.Answers[0].Addr != remoteA || d.Answers[0].TTL != 300*time.Second {
		t.Errorf("dns answers %+v", d.Answers)
	}

	if len(out.Conns) != 2 {
		t.Fatalf("conns: %d (%+v)", len(out.Conns), out.Conns)
	}
	// Sorted by TS: TCP conn first.
	tcp := out.Conns[0]
	if tcp.Proto != trace.TCP || tcp.OrigBytes != 1200 || tcp.RespBytes != 90000 {
		t.Errorf("tcp conn %+v", tcp)
	}
	if tcp.TS != 110*time.Millisecond || tcp.Duration != 2*time.Second {
		t.Errorf("tcp timing %v + %v", tcp.TS, tcp.Duration)
	}
	udp := out.Conns[1]
	if udp.Proto != trace.UDP || udp.OrigBytes != 48 || udp.RespBytes != 48 {
		t.Errorf("udp conn %+v", udp)
	}
	if udp.Orig != houseA {
		t.Errorf("udp orig %v", udp.Orig)
	}
}

func TestByteCapTruncates(t *testing.T) {
	in := sampleDataset()
	in.Conns[0].RespBytes = 10 << 20 // 10 MiB
	opts := SynthOptions{MaxBytesPerConn: 64 << 10}
	out := runThrough(t, in, opts)
	if out.Conns[0].RespBytes != 64<<10 {
		t.Fatalf("resp bytes %d, want cap", out.Conns[0].RespBytes)
	}
	capped := ApplyByteCap(in, opts)
	if capped.Conns[0].RespBytes != 64<<10 || in.Conns[0].RespBytes != 10<<20 {
		t.Fatal("ApplyByteCap wrong or mutated input")
	}
}

func TestUDPTimeoutSplitsFlows(t *testing.T) {
	m := New(Options{UDPTimeout: 60 * time.Second})
	mk := func(ts time.Duration) {
		frame, err := pcap.BuildUDP(houseA, remoteA, 5000, 9000, []byte{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		m.FeedFrame(ts, frame)
	}
	mk(0)
	mk(10 * time.Second)
	mk(2 * time.Minute) // >60s gap: new "connection"
	ds := m.Flush()
	if len(ds.Conns) != 2 {
		t.Fatalf("conns %d, want 2", len(ds.Conns))
	}
	if ds.Conns[0].Duration != 10*time.Second {
		t.Fatalf("first flow duration %v", ds.Conns[0].Duration)
	}
}

func TestTCPRSTCloses(t *testing.T) {
	m := New(DefaultOptions())
	syn, _ := pcap.BuildTCP(houseA, remoteA, 40000, 443, 0, 0, pcap.FlagSYN, nil)
	rst, _ := pcap.BuildTCP(remoteA, houseA, 443, 40000, 0, 0, pcap.FlagRST, nil)
	m.FeedFrame(0, syn)
	m.FeedFrame(300*time.Millisecond, rst)
	ds := m.Flush()
	if len(ds.Conns) != 1 || ds.Conns[0].Duration != 300*time.Millisecond {
		t.Fatalf("conns %+v", ds.Conns)
	}
	if ds.Conns[0].Orig != houseA {
		t.Fatalf("orig %v", ds.Conns[0].Orig)
	}
}

func TestRemoteInitiatedWithoutSYNOrientsToLocal(t *testing.T) {
	m := New(DefaultOptions())
	// Mid-stream packet from the remote side, no SYN seen.
	data, _ := pcap.BuildTCP(remoteA, houseA, 443, 40000, 5, 0, pcap.FlagACK|pcap.FlagPSH, []byte("x"))
	m.FeedFrame(0, data)
	ds := m.Flush()
	if len(ds.Conns) != 1 {
		t.Fatalf("conns %d", len(ds.Conns))
	}
	if ds.Conns[0].Orig != houseA || ds.Conns[0].RespBytes != 1 {
		t.Fatalf("orientation wrong: %+v", ds.Conns[0])
	}
}

func TestGarbageFramesCounted(t *testing.T) {
	m := New(DefaultOptions())
	m.FeedFrame(0, []byte{1, 2, 3})
	if m.DecodeErrors != 1 {
		t.Fatalf("decode errors %d", m.DecodeErrors)
	}
	// A UDP/53 packet with a garbage payload.
	frame, _ := pcap.BuildUDP(houseA, resolver, 1234, 53, []byte{0xde, 0xad})
	m.FeedFrame(0, frame)
	if m.DNSParseErrs != 1 {
		t.Fatalf("dns errors %d", m.DNSParseErrs)
	}
}

func TestUnsolicitedDNSResponseDropped(t *testing.T) {
	m := New(DefaultOptions())
	// Build a response with no preceding query.
	ds := sampleDataset()
	ds.Conns = nil
	var frames [][]byte
	err := Synthesize(ds, SynthOptions{}, func(ts time.Duration, frame []byte) error {
		frames = append(frames, frame)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// frames[0] is the query, frames[1] the response; feed only the
	// response.
	m.FeedFrame(0, frames[1])
	out := m.Flush()
	if len(out.DNS) != 0 || m.DNSParseErrs != 1 {
		t.Fatalf("dns=%d errs=%d", len(out.DNS), m.DNSParseErrs)
	}
}

// TestForgedQueryNameDropped is the forged-record regression: a query
// name whose label bytes hold a newline and then the leading fields of
// a record for another house. Logged verbatim, its line split in two
// and a quarantining reader accepted the second as genuine. The monitor
// drops such a transaction as a DNS parse error — the query and its
// response, one each — and logs the genuine one beside it.
func TestForgedQueryNameDropped(t *testing.T) {
	ds := sampleDataset()
	forged := ds.DNS[0]
	forged.ID = 8
	forged.Query = "evil.example\n1.000000\t1.010000\t10.9.9.9\t8.8.8.8\t7\tbank.example"
	ds.DNS = append(ds.DNS, forged)
	ds.Conns = nil
	m := New(DefaultOptions())
	if err := Synthesize(ds, SynthOptions{}, func(ts time.Duration, frame []byte) error {
		m.FeedFrame(ts, frame)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	out := m.Flush()
	if len(out.DNS) != 1 || out.DNS[0].Query != "www.site00001.com" || m.DNSParseErrs != 2 {
		t.Fatalf("records %+v, dns parse errors %d; want only the genuine record and 2 errors", out.DNS, m.DNSParseErrs)
	}
	var buf bytes.Buffer
	if err := trace.WriteDNS(&buf, out.DNS); err != nil {
		t.Fatal(err)
	}
	sc := trace.NewDNSScanner(&buf, trace.QuarantineAll())
	for sc.Scan() {
		if c := sc.Record().Client; c != houseA {
			t.Fatalf("log holds a record for %v", c)
		}
	}
	if len(sc.Quarantined()) != 0 {
		t.Fatalf("log has malformed lines: %+v", sc.Quarantined())
	}
}

func TestDuplicateFramesCountTwice(t *testing.T) {
	// A passive monitor cannot distinguish a retransmission from new
	// data without sequence tracking; like Bro's byte counters, duplicate
	// payload frames add up. This test pins that (documented) behavior.
	m := New(DefaultOptions())
	syn, _ := pcap.BuildTCP(houseA, remoteA, 40000, 443, 0, 0, pcap.FlagSYN, nil)
	data, _ := pcap.BuildTCP(houseA, remoteA, 40000, 443, 1, 0, pcap.FlagACK|pcap.FlagPSH, []byte("abcd"))
	m.FeedFrame(0, syn)
	m.FeedFrame(time.Millisecond, data)
	m.FeedFrame(2*time.Millisecond, data)
	ds := m.Flush()
	if len(ds.Conns) != 1 || ds.Conns[0].OrigBytes != 8 {
		t.Fatalf("conns %+v", ds.Conns)
	}
}

func TestIPv6FlowThroughMonitor(t *testing.T) {
	m := New(Options{
		UDPTimeout: time.Minute,
		LocalNet:   netip.MustParsePrefix("fd00::/8"),
	})
	src := netip.MustParseAddr("fd00::1")
	dst := netip.MustParseAddr("2001:db8::9")
	frame, err := pcap.BuildUDP(src, dst, 5000, 9000, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	m.FeedFrame(0, frame)
	ds := m.Flush()
	if len(ds.Conns) != 1 || ds.Conns[0].Orig != src || ds.Conns[0].OrigBytes != 3 {
		t.Fatalf("v6 conn %+v", ds.Conns)
	}
}

func TestDecodeBudgetLatches(t *testing.T) {
	budget := trace.ErrorBudget{MaxErrors: 2}
	opts := DefaultOptions()
	opts.DecodeBudget = &budget
	m := New(opts)

	good, _ := pcap.BuildUDP(houseA, remoteA, 40002, 123, []byte("ntp"))
	m.FeedFrame(0, good)
	m.FeedFrame(0, []byte{1})
	m.FeedFrame(0, []byte{2})
	if m.Err() != nil {
		t.Fatalf("budget of 2 tripped after 2 errors: %v", m.Err())
	}
	m.FeedFrame(0, []byte{3})
	err := m.Err()
	if !errors.Is(err, trace.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// Latched: further frames — even good ones — are ignored.
	m.FeedFrame(time.Second, good)
	if m.DecodeErrors != 3 {
		t.Fatalf("decode errors %d, want 3", m.DecodeErrors)
	}
	ds := m.Flush()
	if len(ds.Conns) != 1 {
		t.Fatalf("conns %d, want the one pre-trip flow", len(ds.Conns))
	}
}

func TestNilDecodeBudgetNeverFatal(t *testing.T) {
	m := New(DefaultOptions())
	for i := 0; i < 1000; i++ {
		m.FeedFrame(0, []byte{byte(i)})
	}
	if m.Err() != nil {
		t.Fatalf("nil budget latched: %v", m.Err())
	}
	if m.DecodeErrors != 1000 {
		t.Fatalf("decode errors %d", m.DecodeErrors)
	}
}
