package trace

// Chunked-ingest parity and edge cases. The chunked scan's contract is
// bit-identical behavior to the serial reference (reference_test.go) at
// every worker count and chunk size: same records in the same order,
// same quarantine decisions with the same line numbers, same budget
// trip points, same errors. These tests drive the internal entry points
// with tiny chunk sizes so splits land inside and between records.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

// chunkTestDNS builds n parseable DNS records with a mix of repeated
// and distinct query names (so symbol re-canonicalization is exercised)
// and renders them as TSV.
func chunkTestDNS(t testing.TB, n int) (string, []DNSRecord) {
	t.Helper()
	recs := make([]DNSRecord, n)
	for i := range recs {
		recs[i] = DNSRecord{
			QueryTS:  time.Duration(i) * time.Millisecond,
			TS:       time.Duration(i)*time.Millisecond + 3*time.Millisecond,
			Client:   netip.AddrFrom4([4]byte{10, 0, byte(i % 50), 2}),
			Resolver: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			ID:       uint16(i),
			Query:    fmt.Sprintf("host-%d.example.com", i%257),
			QType:    1,
			Answers: []Answer{
				{Addr: netip.AddrFrom4([4]byte{93, 184, byte(i % 200), 34}), TTL: 300 * time.Second},
				{Addr: netip.AddrFrom4([4]byte{93, 185, byte(i % 100), 7}), TTL: 60 * time.Second},
			},
		}
	}
	var buf bytes.Buffer
	if err := WriteDNS(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.String(), recs
}

// collectDNSSerial runs the serial reference and returns its records,
// quarantines, and terminal error.
func collectDNSSerial(input string, policy ErrorPolicy) ([]DNSRecord, []Quarantined, error) {
	return refScan(strings.NewReader(input), policy, parseDNSLineBytes)
}

// collectChunked runs the chunked scanner at the given worker count
// and chunk size.
func collectChunked[R any](input string, workers, chunkBytes int, policy ErrorPolicy,
	parse func(int, []byte, *parseState) (R, error)) ([]R, []Quarantined, error) {
	var quar []Quarantined
	if policy.Quarantine && policy.Sink == nil {
		policy.Sink = func(q Quarantined) { quar = append(quar, q) }
	}
	var recs []R
	_, err := scanChunked(strings.NewReader(input), workers, chunkBytes, policy, parse,
		func(batch []R) error { recs = append(recs, batch...); return nil })
	return recs, quar, err
}

func collectDNSChunked(input string, workers, chunkBytes int, policy ErrorPolicy) ([]DNSRecord, []Quarantined, error) {
	return collectChunked(input, workers, chunkBytes, policy, parseDNSLineBytes)
}

// assertScanParity compares a chunked run against the serial reference:
// records, quarantine line numbers, texts and causes, and error values.
func assertScanParity[R any](t *testing.T, label string,
	wantRecs, gotRecs []R, wantQuar, gotQuar []Quarantined, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: serial=%v chunked=%v", label, wantErr, gotErr)
	}
	if wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: error text mismatch:\nserial:  %v\nchunked: %v", label, wantErr, gotErr)
	}
	if !reflect.DeepEqual(wantRecs, gotRecs) {
		t.Fatalf("%s: records mismatch (serial %d vs chunked %d)", label, len(wantRecs), len(gotRecs))
	}
	if len(wantQuar) != len(gotQuar) {
		t.Fatalf("%s: quarantine count mismatch: serial %d vs chunked %d", label, len(wantQuar), len(gotQuar))
	}
	for i := range wantQuar {
		if wantQuar[i].Line != gotQuar[i].Line || wantQuar[i].Text != gotQuar[i].Text ||
			wantQuar[i].Err.Error() != gotQuar[i].Err.Error() {
			t.Fatalf("%s: quarantine %d mismatch:\nserial:  %+v\nchunked: %+v", label, i, wantQuar[i], gotQuar[i])
		}
	}
}

// TestChunkedDNSParityAcrossChunkSizes sweeps chunk sizes that land
// splits everywhere — mid-record, exactly on record boundaries, and a
// single chunk covering the whole input — across worker counts.
func TestChunkedDNSParityAcrossChunkSizes(t *testing.T) {
	input, _ := chunkTestDNS(t, 1000)
	wantRecs, wantQuar, wantErr := collectDNSSerial(input, Strict())
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	// One record line for the boundary-exact case.
	lineLen := strings.Index(input[strings.Index(input, "\n")+1:], "\n") + 1
	for _, chunkBytes := range []int{64, lineLen, lineLen + 1, 4096, len(input), len(input) * 2} {
		for _, workers := range []int{1, 2, 8} {
			gotRecs, gotQuar, gotErr := collectDNSChunked(input, workers, chunkBytes, Strict())
			assertScanParity(t, fmt.Sprintf("chunk=%d workers=%d", chunkBytes, workers),
				wantRecs, gotRecs, wantQuar, gotQuar, wantErr, gotErr)
		}
	}
}

// TestChunkedBoundaryAtRecordSplit pins the exact-boundary case: with
// the chunk size equal to one record line (terminator included), every
// chunk holds exactly one record and the carry path never engages; one
// byte less and every record spans a split. Both must be invisible.
func TestChunkedBoundaryAtRecordSplit(t *testing.T) {
	recs := []DNSRecord{{
		QueryTS: time.Second, TS: time.Second + 5*time.Millisecond,
		Client:   netip.MustParseAddr("10.0.0.2"),
		Resolver: netip.MustParseAddr("10.0.0.1"),
		Query:    "a.example.com", QType: 1,
		Answers: []Answer{{Addr: netip.MustParseAddr("93.184.216.34"), TTL: time.Minute}},
	}}
	var buf bytes.Buffer
	if err := WriteDNS(&buf, recs); err != nil {
		t.Fatal(err)
	}
	// Strip the header comment so every line is one record, then repeat.
	body := buf.String()[strings.Index(buf.String(), "\n")+1:]
	input := strings.Repeat(body, 200)
	wantRecs, _, wantErr := collectDNSSerial(input, Strict())
	if wantErr != nil || len(wantRecs) != 200 {
		t.Fatalf("serial: %d recs, err %v", len(wantRecs), wantErr)
	}
	for _, chunkBytes := range []int{len(body), len(body) - 1, len(body) + 1} {
		gotRecs, _, gotErr := collectDNSChunked(input, 4, chunkBytes, Strict())
		assertScanParity(t, fmt.Sprintf("chunk=%d", chunkBytes), wantRecs, gotRecs, nil, nil, wantErr, gotErr)
	}
}

// TestChunkedQuarantineSpanningSplit places a corrupt line so chunk
// splits land inside it: the quarantine must still report the full
// text, the right 1-based line number, and trip the budget exactly
// where the serial scan does.
func TestChunkedQuarantineSpanningSplit(t *testing.T) {
	input, _ := chunkTestDNS(t, 50)
	lines := strings.Split(strings.TrimSuffix(input, "\n"), "\n")
	// A corrupt line much longer than the chunk size, mid-file.
	corrupt := "CORRUPT\t" + strings.Repeat("x", 300)
	lines = append(lines[:20], append([]string{corrupt, corrupt}, lines[20:]...)...)
	in := strings.Join(lines, "\n") + "\n"

	wantRecs, wantQuar, wantErr := collectDNSSerial(in, QuarantineAll())
	if wantErr != nil || len(wantQuar) != 2 {
		t.Fatalf("serial: quar %d, err %v", len(wantQuar), wantErr)
	}
	if wantQuar[0].Line != 21 || wantQuar[0].Text != corrupt {
		t.Fatalf("serial quarantine misplaced: %+v", wantQuar[0])
	}
	for _, chunkBytes := range []int{64, 128, 301} {
		gotRecs, gotQuar, gotErr := collectDNSChunked(in, 4, chunkBytes, QuarantineAll())
		assertScanParity(t, fmt.Sprintf("chunk=%d", chunkBytes),
			wantRecs, gotRecs, wantQuar, gotQuar, wantErr, gotErr)
	}

	// Budget of one: the second corrupt line must trip it with the same
	// BudgetError counters on both paths.
	wantRecs, wantQuar, wantErr = collectDNSSerial(in, QuarantineBudget(1, 0))
	gotRecs, gotQuar, gotErr := collectDNSChunked(in, 4, 96, QuarantineBudget(1, 0))
	assertScanParity(t, "budget", wantRecs, gotRecs, wantQuar, gotQuar, wantErr, gotErr)
	var be *BudgetError
	if !errors.As(gotErr, &be) || be.Quarantined != 2 || !errors.Is(gotErr, ErrBudgetExceeded) {
		t.Fatalf("chunked budget error: %v", gotErr)
	}
}

// TestChunkedStrictAbortParity: in strict mode the chunked scan must
// yield exactly the records before the corrupt line, then return the
// parse error with the serial reference's text.
func TestChunkedStrictAbortParity(t *testing.T) {
	input, _ := chunkTestDNS(t, 40)
	lines := strings.Split(strings.TrimSuffix(input, "\n"), "\n")
	lines[30] = "not\ta\trecord"
	in := strings.Join(lines, "\n") + "\n"
	wantRecs, _, wantErr := collectDNSSerial(in, Strict())
	if wantErr == nil {
		t.Fatal("serial scan unexpectedly clean")
	}
	gotRecs, _, gotErr := collectDNSChunked(in, 8, 128, Strict())
	assertScanParity(t, "strict", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
}

// TestChunkedSingleChunkDegenerate: input far smaller than one chunk
// with many workers — the whole stream is one chunk, and the scan must
// still complete and match.
func TestChunkedSingleChunkDegenerate(t *testing.T) {
	input, _ := chunkTestDNS(t, 5)
	wantRecs, _, wantErr := collectDNSSerial(input, Strict())
	gotRecs, _, gotErr := collectDNSChunked(input, 16, ingestChunkBytes, Strict())
	assertScanParity(t, "single-chunk", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
	if len(gotRecs) != 5 {
		t.Fatalf("got %d records", len(gotRecs))
	}
}

// TestChunkedCRLFAndUnterminatedTail: CRLF terminators are stripped
// like bufio.ScanLines does, and a final line without a newline is
// still parsed.
func TestChunkedCRLFAndUnterminatedTail(t *testing.T) {
	input, _ := chunkTestDNS(t, 10)
	crlf := strings.ReplaceAll(input, "\n", "\r\n")
	crlf = strings.TrimSuffix(crlf, "\r\n") // unterminated last record
	wantRecs, _, wantErr := collectDNSSerial(crlf, Strict())
	if wantErr != nil || len(wantRecs) != 10 {
		t.Fatalf("serial: %d recs, err %v", len(wantRecs), wantErr)
	}
	gotRecs, _, gotErr := collectDNSChunked(crlf, 4, 100, Strict())
	assertScanParity(t, "crlf", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
}

// TestChunkedTooLongLineFailsLikeBufio: a line that outgrows the serial
// reference's token cap fails the chunked scan with bufio.ErrTooLong
// too, after yielding the records before it.
func TestChunkedTooLongLineFailsLikeBufio(t *testing.T) {
	input, _ := chunkTestDNS(t, 3)
	in := input + strings.Repeat("y", maxIngestLine+2) + "\n"
	wantRecs, _, wantErr := collectDNSSerial(in, Strict())
	gotRecs, _, gotErr := collectDNSChunked(in, 2, 1<<16, Strict())
	assertScanParity(t, "too-long", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
	if !errors.Is(gotErr, io.EOF) && gotErr == nil {
		t.Fatal("expected an error")
	}
	if len(gotRecs) != 3 {
		t.Fatalf("prefix records lost: %d", len(gotRecs))
	}
}

// TestChunkedConnParity covers the connection stream.
func TestChunkedConnParity(t *testing.T) {
	recs := make([]ConnRecord, 500)
	for i := range recs {
		recs[i] = ConnRecord{
			TS:        time.Duration(i) * time.Millisecond,
			Duration:  2 * time.Second,
			Proto:     TCP,
			Orig:      netip.AddrFrom4([4]byte{10, 0, byte(i % 50), 2}),
			OrigPort:  uint16(40000 + i),
			Resp:      netip.AddrFrom4([4]byte{93, 184, byte(i % 200), 34}),
			RespPort:  443,
			OrigBytes: int64(i) * 10, RespBytes: int64(i) * 100,
		}
	}
	var buf bytes.Buffer
	if err := WriteConns(&buf, recs); err != nil {
		t.Fatal(err)
	}
	input := buf.String()

	want, _, err := refScan(strings.NewReader(input), Strict(), parseConnLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		var got []ConnRecord
		_, err := scanChunked(strings.NewReader(input), workers, 96, Strict(), parseConnLineBytes,
			func(batch []ConnRecord) error { got = append(got, batch...); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: conn records mismatch", workers)
		}
	}
}

// TestScannerSourceIngestWorkers drives the public knob: a
// ScannerSource must stream exactly the serial reference's records at
// every ingest width, one worker and a negative width included, DNS and
// conns both.
func TestScannerSourceIngestWorkers(t *testing.T) {
	dnsIn, _ := chunkTestDNS(t, 300)
	var connBuf bytes.Buffer
	if err := WriteConns(&connBuf, []ConnRecord{{
		TS: time.Second, Duration: time.Second, Proto: TCP,
		Orig: netip.MustParseAddr("10.0.1.2"), OrigPort: 40000,
		Resp: netip.MustParseAddr("93.184.216.34"), RespPort: 443,
	}}); err != nil {
		t.Fatal(err)
	}

	collect := func(workers int) ([]DNSRecord, []ConnRecord, error) {
		src := NewScannerSource(strings.NewReader(dnsIn), strings.NewReader(connBuf.String()), QuarantineAll())
		src.SetIngestWorkers(workers)
		var ds []DNSRecord
		var cs []ConnRecord
		if err := src.StreamDNS(func(d *DNSRecord) error { ds = append(ds, *d); return nil }); err != nil {
			return nil, nil, err
		}
		if err := src.StreamConns(func(c *ConnRecord) error { cs = append(cs, *c); return nil }); err != nil {
			return nil, nil, err
		}
		return ds, cs, nil
	}
	wantDNS, _, err := refScan(strings.NewReader(dnsIn), Strict(), parseDNSLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	wantConns, _, err := refScan(strings.NewReader(connBuf.String()), Strict(), parseConnLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 0, 1, 2, 8} {
		gotDNS, gotConns, err := collect(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantDNS, gotDNS) || !reflect.DeepEqual(wantConns, gotConns) {
			t.Fatalf("ingest-workers=%d: stream mismatch", w)
		}
	}
}

// FuzzChunkedMatchesReference checks the one engine against the serial
// reference on arbitrary input: chunk sizes of 1–256 bytes so splits
// land everywhere, one worker and three, both formats, and both the
// strict policy and a fuzzed QuarantineBudget(k, r). Every run must
// produce the reference's records, quarantined {Line, Text, Err} and
// terminal error.
func FuzzChunkedMatchesReference(f *testing.F) {
	dnsIn, _ := chunkTestDNS(f, 6)
	f.Add([]byte(dnsIn), uint8(40), int8(-1), uint8(0))
	f.Add([]byte("#fields\nnot\ta\trecord\n"+dnsIn+"garbage\r\nx"), uint8(7), int8(1), uint8(0))
	f.Add([]byte("0.5\t1.0\tudp\t10.1.0.1\t50000\t203.0.113.9\t53\t64\t128\nbroken\tline\n\n0.6\t1\ttcp\t10.1.0.1\t1\t203.0.113.9\t2\t3\t4"), uint8(0), int8(0), uint8(50))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, maxErrors int8, ratePct uint8) {
		chunkBytes := 1 + int(chunk)
		policies := []ErrorPolicy{Strict(), QuarantineBudget(int(maxErrors), float64(ratePct%101)/100)}
		for _, policy := range policies {
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("chunk=%d workers=%d policy=%+v", chunkBytes, workers, policy.Budget)
				wantRecs, wantQuar, wantErr := refScan(bytes.NewReader(data), policy, parseDNSLineBytes)
				gotRecs, gotQuar, gotErr := collectDNSChunked(string(data), workers, chunkBytes, policy)
				assertScanParity(t, "dns "+label, wantRecs, gotRecs, wantQuar, gotQuar, wantErr, gotErr)

				wantConns, wantQuar, wantErr := refScan(bytes.NewReader(data), policy, parseConnLineBytes)
				gotConns, gotQuar, gotErr := collectChunked(string(data), workers, chunkBytes, policy, parseConnLineBytes)
				assertScanParity(t, "conn "+label, wantConns, gotConns, wantQuar, gotQuar, wantErr, gotErr)
			}
		}
	})
}
