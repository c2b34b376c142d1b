package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The fmt-based TSV writers the append-style encoders replaced, kept as
// the reference they must match byte for byte on every record they
// accept.

func refSecs(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
}

func refWriteDNS(w io.Writer, recs []DNSRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, dnsFields); err != nil {
		return err
	}
	for i := range recs {
		d := &recs[i]
		answers := make([]string, len(d.Answers))
		for j, a := range d.Answers {
			answers[j] = fmt.Sprintf("%s/%s", a.Addr, refSecs(a.TTL))
		}
		ans := strings.Join(answers, ",")
		if ans == "" {
			ans = "-"
		}
		tc := "F"
		if d.TC {
			tc = "T"
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%s\t%d\t%s\t%d\t%d\t%s\t%d\t%s\n",
			refSecs(d.QueryTS), refSecs(d.TS), d.Client, d.Resolver, d.ID,
			d.Query, d.QType, d.RCode, ans, d.Retries, tc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refWriteConns(w io.Writer, recs []ConnRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, connFields); err != nil {
		return err
	}
	for i := range recs {
		c := &recs[i]
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%s\t%d\t%s\t%d\t%d\t%d\n",
			refSecs(c.TS), refSecs(c.Duration), c.Proto, c.Orig, c.OrigPort,
			c.Resp, c.RespPort, c.OrigBytes, c.RespBytes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// assertSameBytes writes recs with the encoder and the reference and
// requires identical output.
func assertSameBytes[R any](t testing.TB, recs []R, enc, ref func(io.Writer, []R) error) {
	t.Helper()
	var got, want bytes.Buffer
	if err := enc(&got, recs); err != nil {
		t.Fatalf("encoder: %v", err)
	}
	if err := ref(&want, recs); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("outputs differ in length: %d vs %d lines", len(g), len(w))
	}
}

// AssertSameDNS and AssertSameConns hold the encoders to the reference
// writers from the external test package, which can generate whole
// days.
func AssertSameDNS(t testing.TB, recs []DNSRecord) {
	t.Helper()
	assertSameBytes(t, recs, WriteDNS, refWriteDNS)
}

func AssertSameConns(t testing.TB, recs []ConnRecord) {
	t.Helper()
	assertSameBytes(t, recs, WriteConns, refWriteConns)
}

// edgeDurations are the timestamps where the integer fast path meets
// the float path: half-microsecond ties, carries into the next second,
// negatives, the 1e15 ns boundary, and the int64 extremes.
var edgeDurations = []time.Duration{
	0, 1, 499, 500, 501, 999, 1000, 1500, 2500,
	999_999_499, 999_999_500, 999_999_501, time.Second - 1, time.Second,
	1_234_567_890, 86_399_999_999_500, 3 * 24 * time.Hour,
	1e15 - 501, 1e15 - 500, 1e15 - 499, 1e15 - 1, 1e15, 1e15 + 500, 1e16 + 123_456_789,
	-1, -500, -1500, -time.Second, -1_234_567_890_500,
	math.MaxInt64, math.MaxInt64 - 500, math.MinInt64, math.MinInt64 + 1,
}

func TestAppendSecsMatchesFormatFloat(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := string(appendSecs(nil, d)), refSecs(d); got != want {
			t.Fatalf("appendSecs(%d) = %q, want %q", int64(d), got, want)
		}
	}
	for _, d := range edgeDurations {
		check(d)
	}
	// A deterministic sweep: random durations across the fast path's
	// range, and the same values forced onto the tie.
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d := time.Duration(x % 1e15)
		check(d)
		check(d - d%1000 + 500)
		check(-d)
		check(time.Duration(x >> 1))
	}
}

// handDNS covers what generated days never produce: ties, negative and
// huge durations, IPv6 and IPv4-mapped addresses, many answers, and
// maximum-width integers.
func handDNS() []DNSRecord {
	v6 := netip.MustParseAddr("2001:db8::53")
	mapped := netip.MustParseAddr("::ffff:192.0.2.1")
	zonedClient := netip.MustParseAddr("fe80::1%eth0")
	var many []Answer
	for i := 0; i < 40; i++ {
		many = append(many, Answer{
			Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}),
			TTL:  time.Duration(i)*time.Second + 500,
		})
	}
	var recs []DNSRecord
	for i, d := range edgeDurations {
		recs = append(recs, DNSRecord{
			QueryTS: d, TS: d + 500,
			Client:   netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}),
			Resolver: v6, ID: uint16(i), Query: "edge.example", QType: 28,
			Answers: []Answer{{Addr: mapped, TTL: -d}, {Addr: v6, TTL: d}},
		})
	}
	return append(recs,
		DNSRecord{Client: mapped, Resolver: mapped, Query: "", Answers: []Answer{}},
		DNSRecord{
			QueryTS: 1, TS: 2, Client: zonedClient, Resolver: v6,
			ID: math.MaxUint16, Query: "max.example", QType: math.MaxUint16,
			RCode: math.MaxUint8, Retries: math.MaxUint8, TC: true, Answers: many,
		},
		DNSRecord{
			QueryTS: 3, TS: 4, Client: netip.IPv6Unspecified(), Resolver: netip.IPv4Unspecified(),
			Query: "ünïcode.example\x00\x7f", Answers: []Answer{{Addr: netip.IPv6Loopback(), TTL: 1}},
		},
	)
}

func handConns() []ConnRecord {
	var recs []ConnRecord
	for i, d := range edgeDurations {
		recs = append(recs, ConnRecord{
			TS: d, Duration: d/2 + 500, Proto: Proto(i % 3),
			Orig: netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}), OrigPort: uint16(i),
			Resp: netip.MustParseAddr("2001:db8::80"), RespPort: 443,
			OrigBytes: int64(d), RespBytes: -int64(i),
		})
	}
	return append(recs,
		ConnRecord{
			Orig: netip.MustParseAddr("::ffff:10.0.0.1"), OrigPort: math.MaxUint16,
			Resp: netip.MustParseAddr("fe80::2%wlan0"), RespPort: math.MaxUint16,
			OrigBytes: math.MaxInt64, RespBytes: math.MinInt64,
		},
	)
}

func TestWriteTSVMatchesReferenceOnEdgeCases(t *testing.T) {
	AssertSameDNS(t, handDNS())
	AssertSameConns(t, handConns())
	AssertSameDNS(t, nil)
	AssertSameConns(t, nil)
}

// TestWriteTSVBatchesAcrossFlushes writes enough records to cross the
// flush threshold many times, through a writer that sees each chunk
// separately.
func TestWriteTSVBatchesAcrossFlushes(t *testing.T) {
	base := handDNS()
	var recs []DNSRecord
	for len(recs) < 20*flushAt/64 {
		recs = append(recs, base...)
	}
	AssertSameDNS(t, recs)
	var cw countingWriter
	if err := WriteDNS(&cw, recs); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 10 || cw.max > 2*flushAt {
		t.Fatalf("%d writes of up to %d bytes; want chunks near %d bytes", cw.writes, cw.max, flushAt)
	}
}

type countingWriter struct{ writes, max int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.max = max(c.max, len(p))
	return len(p), nil
}

func TestWriteTSVReturnsWriterError(t *testing.T) {
	errBoom := fmt.Errorf("boom")
	if err := WriteDNS(failWriter{errBoom}, handDNS()); err != errBoom {
		t.Fatalf("WriteDNS error = %v, want %v", err, errBoom)
	}
	if err := WriteConns(failWriter{errBoom}, handConns()); err != errBoom {
		t.Fatalf("WriteConns error = %v, want %v", err, errBoom)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestWriteDNSRejectsUnencodableRecords(t *testing.T) {
	good := handDNS()[0]
	cases := []struct {
		name string
		edit func(*DNSRecord)
		want string
	}{
		{"tab in query", func(d *DNSRecord) { d.Query = "a\tb" }, "query"},
		{"newline in query", func(d *DNSRecord) { d.Query = "a\nb" }, "query"},
		{"carriage return in query", func(d *DNSRecord) { d.Query = "a\rb" }, "query"},
		{"invalid client", func(d *DNSRecord) { d.Client = netip.Addr{} }, "client"},
		{"invalid resolver", func(d *DNSRecord) { d.Resolver = netip.Addr{} }, "resolver"},
		{"invalid answer", func(d *DNSRecord) { d.Answers = []Answer{{}} }, "answer 0"},
		{"zoned answer", func(d *DNSRecord) {
			d.Answers = []Answer{good.Answers[0], {Addr: netip.MustParseAddr("fe80::1%a,b")}}
		}, "answer 1"},
	}
	for _, tc := range cases {
		bad := good
		tc.edit(&bad)
		err := WriteDNS(io.Discard, []DNSRecord{good, good, bad, good})
		if err == nil || !strings.Contains(err.Error(), "dns record 2") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming record 2 and %q", tc.name, err, tc.want)
		}
	}
}

func TestWriteConnsRejectsInvalidAddresses(t *testing.T) {
	good := handConns()[0]
	for _, tc := range []struct {
		name string
		edit func(*ConnRecord)
	}{
		{"orig", func(c *ConnRecord) { c.Orig = netip.Addr{} }},
		{"resp", func(c *ConnRecord) { c.Resp = netip.Addr{} }},
	} {
		bad := good
		tc.edit(&bad)
		err := WriteConns(io.Discard, []ConnRecord{good, bad})
		if err == nil || !strings.Contains(err.Error(), "conn record 1") || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: err = %v, want one naming record 1 and %q", tc.name, err, tc.name)
		}
	}
}

// forgedQuery is a query name, decodable from the wire, that carries a
// newline and then the leading fields of a record for another house;
// the real record's trailing fields complete the forged line.
const forgedQuery = "evil.example\n1.000000\t1.010000\t10.9.9.9\t8.8.8.8\t7\tbank.example"

// TestForgedQueryLineRejected is the forged-record regression. Written
// verbatim, the name split its record into a fragment a quarantining
// reader sets aside and a second line it accepts as genuine.
func TestForgedQueryLineRejected(t *testing.T) {
	forged := forgedQuery
	rec := handDNS()[0]
	rec.Query = forged
	var buf bytes.Buffer
	err := WriteDNS(&buf, []DNSRecord{rec})
	if err == nil || !strings.Contains(err.Error(), "dns record 0") {
		t.Fatalf("WriteDNS = %v, want an error naming record 0", err)
	}
	// The old writer's bytes show what the error prevents: read back
	// under a quarantine policy, they yield a record for 10.9.9.9.
	buf.Reset()
	if err := refWriteDNS(&buf, []DNSRecord{rec}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		src := NewScannerSource(bytes.NewReader(buf.Bytes()), nil, QuarantineAll())
		src.SetIngestWorkers(workers)
		var clients []string
		if err := src.StreamDNS(func(d *DNSRecord) error {
			clients = append(clients, d.Client.String())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(clients) != 1 || clients[0] != "10.9.9.9" {
			t.Fatalf("workers=%d: reference bytes read back as clients %v; the regression fixture no longer forges a record", workers, clients)
		}
	}
}

// TestWriteTSVAllocsIndependentOfRecords gates the encoders at O(1)
// allocations per call: the reused line buffer and nothing per record.
func TestWriteTSVAllocsIndependentOfRecords(t *testing.T) {
	dns, conns := benchRecords(100)
	bigDNS, bigConns := benchRecords(20_000)
	for _, tc := range []struct {
		name       string
		small, big func()
	}{
		{"WriteDNS", func() { _ = WriteDNS(io.Discard, dns) }, func() { _ = WriteDNS(io.Discard, bigDNS) }},
		{"WriteConns", func() { _ = WriteConns(io.Discard, conns) }, func() { _ = WriteConns(io.Discard, bigConns) }},
	} {
		small := testing.AllocsPerRun(5, tc.small)
		big := testing.AllocsPerRun(5, tc.big)
		if small > 2 || big != small {
			t.Errorf("%s: %.0f allocs for 100 records, %.0f for 20000; want the same constant, at most 2", tc.name, small, big)
		}
	}
}

// benchRecords builds n records of each stream shaped like a generated
// day: IPv4 houses, a few resolvers, one or two answers, µs timestamps.
func benchRecords(n int) ([]DNSRecord, []ConnRecord) {
	resolvers := []netip.Addr{
		netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("8.8.8.8"),
		netip.MustParseAddr("1.1.1.1"), netip.MustParseAddr("208.67.222.222"),
	}
	dns := make([]DNSRecord, n)
	conns := make([]ConnRecord, n)
	for i := range dns {
		ts := time.Duration(i)*137_123_456 + time.Duration(i%7)*time.Microsecond
		client := netip.AddrFrom4([4]byte{10, 1, byte(i % 50), 1})
		answer := netip.AddrFrom4([4]byte{203, 0, byte(i % 251), byte(i % 13)})
		dns[i] = DNSRecord{
			QueryTS: ts, TS: ts + 23_456_789, Client: client, Resolver: resolvers[i%4],
			ID: uint16(i), Query: fmt.Sprintf("host%d.cdn%d.example.com", i%300, i%17), QType: 1,
			Answers: []Answer{{Addr: answer, TTL: 300 * time.Second}, {Addr: answer.Next(), TTL: 300 * time.Second}}[:1+i%2],
		}
		conns[i] = ConnRecord{
			TS: ts + 31_234_567, Duration: time.Duration(i%5000) * 1_234_567, Proto: Proto(i % 2),
			Orig: client, OrigPort: uint16(40000 + i%20000), Resp: answer, RespPort: 443,
			OrigBytes: int64(200 + i%3000), RespBytes: int64(1000 + i*37%900_000),
		}
	}
	return dns, conns
}

// BenchmarkWriteTSV measures both encoders on day-shaped records.
func BenchmarkWriteTSV(b *testing.B) {
	dns, conns := benchRecords(50_000)
	var cw countingWriter
	var size int64
	for _, w := range []func(io.Writer) error{
		func(w io.Writer) error { return WriteDNS(w, dns) },
		func(w io.Writer) error { return WriteConns(w, conns) },
	} {
		var buf bytes.Buffer
		if err := w(&buf); err != nil {
			b.Fatal(err)
		}
		size += int64(buf.Len())
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteDNS(&cw, dns); err != nil {
			b.Fatal(err)
		}
		if err := WriteConns(&cw, conns); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*len(dns)*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkReadTSV measures both slice readers on the encoders'
// day-shaped records.
func BenchmarkReadTSV(b *testing.B) {
	dns, conns := benchRecords(50_000)
	var dnsTSV, connTSV bytes.Buffer
	if err := WriteDNS(&dnsTSV, dns); err != nil {
		b.Fatal(err)
	}
	if err := WriteConns(&connTSV, conns); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(dnsTSV.Len() + connTSV.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadDNS(bytes.NewReader(dnsTSV.Bytes())); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadConns(bytes.NewReader(connTSV.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*len(dns)*b.N)/b.Elapsed().Seconds(), "records/s")
}

// fuzzAddr builds an address from fuzz bytes: none is the zero Addr,
// 4 to 15 bytes an IPv4 address, 16 or more an IPv6 one (IPv4-mapped
// when the bytes say so) with any bytes past 16 as its zone. Zones
// never hold a tab, newline or carriage return: no address the wire or
// the reader produces does, and the encoder does not police them.
func fuzzAddr(b []byte) netip.Addr {
	switch {
	case len(b) > 16:
		zone := strings.Map(func(r rune) rune {
			if r == '\t' || r == '\n' || r == '\r' {
				return '_'
			}
			return r
		}, string(b[16:]))
		return netip.AddrFrom16([16]byte(b[:16])).WithZone(zone)
	case len(b) == 16:
		return netip.AddrFrom16([16]byte(b))
	case len(b) >= 4:
		return netip.AddrFrom4([4]byte(b[:4]))
	}
	return netip.Addr{}
}

// fuzzEncode runs the encoder and the reference on one record. A record
// the encoder accepts must match the reference byte for byte and be
// exactly one line; one it rejects must be one the format cannot carry.
func fuzzEncode[R any](t *testing.T, rec R, encodable bool, enc, ref func(io.Writer, []R) error) {
	var got, want bytes.Buffer
	err := enc(&got, []R{rec})
	if !encodable {
		if err == nil {
			t.Fatalf("encoder accepted an unencodable record %+v: %q", rec, got.String())
		}
		return
	}
	if err != nil {
		t.Fatalf("encoder rejected %+v: %v", rec, err)
	}
	if err := ref(&want, []R{rec}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encoder and reference differ:\n got  %q\n want %q", got.String(), want.String())
	}
	if n := bytes.Count(got.Bytes(), []byte("\n")); n != 2 {
		t.Fatalf("one record wrote %d lines: %q", n, got.String())
	}
}

func FuzzWriteDNS(f *testing.F) {
	for _, d := range handDNS() {
		var ans []byte
		var ttl int64
		for _, a := range d.Answers {
			a16 := a.Addr.As16()
			ans = append(ans, a16[12:]...)
			ttl = int64(a.TTL)
		}
		c16, r16 := d.Client.As16(), d.Resolver.As16()
		f.Add(int64(d.QueryTS), int64(d.TS), c16[:], r16[12:], d.ID, d.Query, d.QType, d.RCode, ans, ttl, d.Retries, d.TC)
	}
	f.Fuzz(func(t *testing.T, qts, ts int64, client, resolver []byte, id uint16, query string,
		qtype uint16, rcode uint8, answers []byte, ttl int64, retries uint8, tc bool) {
		d := DNSRecord{
			QueryTS: time.Duration(qts), TS: time.Duration(ts),
			Client: fuzzAddr(client), Resolver: fuzzAddr(resolver),
			ID: id, Query: query, QType: qtype, RCode: rcode, Retries: retries, TC: tc,
		}
		encodable := d.Client.IsValid() && d.Resolver.IsValid() && !strings.ContainsAny(query, "\t\n\r")
		// Answers: 4-byte IPv4 chunks; a chunk starting 0xfe becomes a
		// zoned IPv6 address and one starting 0xff the zero Addr.
		for j := 0; j+4 <= len(answers) && j < 64; j += 4 {
			a := Answer{Addr: netip.AddrFrom4([4]byte(answers[j : j+4])), TTL: time.Duration(ttl) + time.Duration(j)*499}
			switch answers[j] {
			case 0xfe:
				a.Addr = netip.MustParseAddr("fe80::1%z")
				encodable = false
			case 0xff:
				a.Addr = netip.Addr{}
				encodable = false
			}
			d.Answers = append(d.Answers, a)
		}
		fuzzEncode(t, d, encodable, WriteDNS, refWriteDNS)
	})
}

func FuzzWriteConns(f *testing.F) {
	for _, c := range handConns() {
		o16, r16 := c.Orig.As16(), c.Resp.As16()
		f.Add(int64(c.TS), int64(c.Duration), uint8(c.Proto), o16[12:], c.OrigPort, r16[:], c.RespPort, c.OrigBytes, c.RespBytes)
	}
	f.Fuzz(func(t *testing.T, ts, dur int64, proto uint8, orig []byte, oport uint16, resp []byte, rport uint16, ob, rb int64) {
		c := ConnRecord{
			TS: time.Duration(ts), Duration: time.Duration(dur), Proto: Proto(proto),
			Orig: fuzzAddr(orig), OrigPort: oport, Resp: fuzzAddr(resp), RespPort: rport,
			OrigBytes: ob, RespBytes: rb,
		}
		fuzzEncode(t, c, c.Orig.IsValid() && c.Resp.IsValid(), WriteConns, refWriteConns)
	})
}
