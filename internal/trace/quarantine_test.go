package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dnscontext/internal/trace"
)

// corpusInputs loads every seed input of one fuzz corpus directory
// (go test fuzz v1 format: one quoted string argument).
func corpusInputs(t *testing.T, target string) map[string]string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", dir, err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a fuzz corpus file", e.Name())
		}
		body := strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")")
		s, err := strconv.Unquote(body)
		if err != nil {
			t.Fatalf("%s: unquoting %q: %v", e.Name(), body, err)
		}
		out[e.Name()] = s
	}
	if len(out) == 0 {
		t.Fatalf("empty corpus %s", dir)
	}
	return out
}

// ingestWidths are the parse widths every quarantine test runs at: one
// worker (the width a 1-CPU host or a negative IngestWorkers gets) and
// several.
var ingestWidths = []int{1, 2}

// scanSource streams input through a ScannerSource at the given ingest
// width — the production read path — and collects the records, every
// quarantined line in sink order, and the terminal error. A policy's
// own Sink still receives each line.
func scanSource[R any](input string, workers int, policy trace.ErrorPolicy,
	stream func(*trace.ScannerSource, func(*R) error) error) ([]R, []trace.Quarantined, error) {
	var recs []R
	var quar []trace.Quarantined
	if policy.Quarantine {
		sink := policy.Sink
		policy.Sink = func(q trace.Quarantined) {
			quar = append(quar, q)
			if sink != nil {
				sink(q)
			}
		}
	}
	r := strings.NewReader(input)
	src := trace.NewScannerSource(r, r, policy)
	src.SetIngestWorkers(workers)
	err := stream(src, func(rec *R) error { recs = append(recs, *rec); return nil })
	return recs, quar, err
}

func scanDNS(input string, workers int, policy trace.ErrorPolicy) ([]trace.DNSRecord, []trace.Quarantined, error) {
	return scanSource(input, workers, policy, (*trace.ScannerSource).StreamDNS)
}

func scanConns(input string, workers int, policy trace.ErrorPolicy) ([]trace.ConnRecord, []trace.Quarantined, error) {
	return scanSource(input, workers, policy, (*trace.ScannerSource).StreamConns)
}

// checkStrictParity proves a strict ScannerSource stream yields exactly
// the records AND errors of the slice reader over one fuzz corpus,
// which includes both clean zeeklite output and every known
// malformed-line shape.
func checkStrictParity[R any](t *testing.T, target string, read func(io.Reader) ([]R, error),
	scan func(string, int, trace.ErrorPolicy) ([]R, []trace.Quarantined, error)) {
	t.Helper()
	for name, input := range corpusInputs(t, target) {
		wantRecs, wantErr := read(strings.NewReader(input))
		for _, w := range ingestWidths {
			gotRecs, _, gotErr := scan(input, w, trace.Strict())
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s workers=%d: error mismatch: reader=%v stream=%v", name, w, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s workers=%d: error text mismatch:\nreader: %v\nstream: %v", name, w, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(wantRecs, gotRecs) {
				t.Fatalf("%s workers=%d: records mismatch:\nreader: %+v\nstream: %+v", name, w, wantRecs, gotRecs)
			}
		}
	}
}

// TestDNSScannerStrictParityWithReadDNS: a strict ScannerSource's DNS
// stream is ReadDNS, record for record and error for error.
func TestDNSScannerStrictParityWithReadDNS(t *testing.T) {
	checkStrictParity(t, "FuzzReadDNS", trace.ReadDNS, scanDNS)
}

// TestConnScannerStrictParityWithReadConns is the connection-side
// parity proof.
func TestConnScannerStrictParityWithReadConns(t *testing.T) {
	checkStrictParity(t, "FuzzReadConns", trace.ReadConns, scanConns)
}

// corruptedDNSTrace interleaves the sample records with malformed lines
// and returns the TSV text plus the 1-based line numbers of the
// corrupt lines.
func corruptedDNSTrace(t *testing.T) (string, []int) {
	t.Helper()
	var clean bytes.Buffer
	if err := trace.WriteDNS(&clean, sampleDNS()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(clean.String(), "\n"), "\n")
	// Inject after the header and between records.
	var out []string
	var corrupt []int
	bad := []string{
		"garbage line with no tabs",
		"NaN\t1.0\t10.0.0.1\t8.8.8.8\t1\th\t1\t0\t-\t0\tF",
		"1.0\t1.01\tnot-an-ip\t8.8.8.8\t1\th\t1\t0\t-\t0\tF",
	}
	bi := 0
	for i, l := range lines {
		out = append(out, l)
		if i > 0 && bi < len(bad) { // after the first data line and onward
			out = append(out, bad[bi])
			corrupt = append(corrupt, len(out))
			bi++
		}
	}
	return strings.Join(out, "\n") + "\n", corrupt
}

// TestQuarantineYieldsCleanRecords proves quarantine mode ingests a
// corrupted trace and yields exactly the records of the pre-cleaned
// trace, reporting exact quarantined line numbers and causes.
func TestQuarantineYieldsCleanRecords(t *testing.T) {
	dirty, corruptLines := corruptedDNSTrace(t)
	// The pre-cleaned trace is just the sample records.
	var cleanBuf bytes.Buffer
	if err := trace.WriteDNS(&cleanBuf, sampleDNS()); err != nil {
		t.Fatal(err)
	}
	want, err := trace.ReadDNS(&cleanBuf)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range ingestWidths {
		got, q, err := scanDNS(dirty, w, trace.QuarantineAll())
		if err != nil {
			t.Fatalf("workers=%d: unbudgeted quarantine scan failed: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: quarantined scan records != pre-cleaned records:\ngot:  %+v\nwant: %+v", w, got, want)
		}
		if len(q) != len(corruptLines) {
			t.Fatalf("workers=%d: quarantined %d lines, want %d", w, len(q), len(corruptLines))
		}
		for i, qq := range q {
			if qq.Line != corruptLines[i] {
				t.Errorf("workers=%d: quarantine %d: line %d, want %d", w, i, qq.Line, corruptLines[i])
			}
			if qq.Err == nil || qq.Text == "" {
				t.Errorf("workers=%d: quarantine %d: missing cause or text: %+v", w, i, qq)
			}
		}
		// Causes carry the exact line number in their text.
		if !strings.Contains(q[1].Err.Error(), fmt.Sprintf("line %d", corruptLines[1])) {
			t.Errorf("workers=%d: cause %q does not name line %d", w, q[1].Err, corruptLines[1])
		}
	}
}

// TestQuarantineSinkReceivesLines: the policy's sink receives every
// quarantined line, in input order.
func TestQuarantineSinkReceivesLines(t *testing.T) {
	dirty, corruptLines := corruptedDNSTrace(t)
	for _, w := range ingestWidths {
		var sunk []int
		p := trace.QuarantineAll()
		p.Sink = func(q trace.Quarantined) { sunk = append(sunk, q.Line) }
		if _, _, err := scanDNS(dirty, w, p); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sunk, corruptLines) {
			t.Fatalf("workers=%d: sink received lines %v, want %v in order", w, sunk, corruptLines)
		}
	}
}

// TestQuarantineBudgetZero: a zero budget allows no errors — the first
// malformed line trips it.
func TestQuarantineBudgetZero(t *testing.T) {
	dirty, corruptLines := corruptedDNSTrace(t)
	for _, w := range ingestWidths {
		recs, _, err := scanDNS(dirty, w, trace.QuarantineBudget(0, 0))
		if !errors.Is(err, trace.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExceeded", w, err)
		}
		var be *trace.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err %T, want *BudgetError", w, err)
		}
		if be.Quarantined != 1 || be.Last.Line != corruptLines[0] {
			t.Fatalf("workers=%d: budget error %+v, want 1 quarantined at line %d", w, be, corruptLines[0])
		}
		if len(recs) == 0 {
			t.Fatalf("workers=%d: no records yielded before the first corrupt line", w)
		}
	}
}

// TestQuarantineBudgetHitExactly: MaxErrors errors complete the scan;
// MaxErrors+1 trips on the extra one.
func TestQuarantineBudgetHitExactly(t *testing.T) {
	dirty, corruptLines := corruptedDNSTrace(t) // 3 corrupt lines
	last := corruptLines[len(corruptLines)-1]
	for _, w := range ingestWidths {
		// Budget exactly equal to the number of corrupt lines: full scan.
		_, q, err := scanDNS(dirty, w, trace.QuarantineBudget(len(corruptLines), 0))
		if err != nil {
			t.Fatalf("workers=%d: budget == errors should not trip, got %v", w, err)
		}
		if len(q) != len(corruptLines) {
			t.Fatalf("workers=%d: quarantined %d, want %d", w, len(q), len(corruptLines))
		}

		// One less: trips on the last corrupt line, exactly.
		_, _, err = scanDNS(dirty, w, trace.QuarantineBudget(len(corruptLines)-1, 0))
		var be *trace.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %v, want *BudgetError", w, err)
		}
		if be.Quarantined != len(corruptLines) || be.Last.Line != last {
			t.Fatalf("workers=%d: tripped at %+v, want quarantined=%d line=%d", w, be, len(corruptLines), last)
		}
	}
}

// TestRateBudgetCleanTail: a corrupt head inside the rate grace window
// must not trip a rate budget that the whole input satisfies.
func TestRateBudgetCleanTail(t *testing.T) {
	// 3 corrupt lines among the first 10, then a long clean tail:
	// overall rate 3/503 ≈ 0.6% < 1%.
	var buf bytes.Buffer
	bad := "garbage\n"
	good := "1.000000\t1.010000\t10.1.0.1\t8.8.8.8\t5\thost.example\t1\t0\t-\t0\tF\n"
	for i := 0; i < 10; i++ {
		if i < 3 {
			buf.WriteString(bad)
		}
		buf.WriteString(good)
	}
	for i := 0; i < 490; i++ {
		buf.WriteString(good)
	}
	cleanTail := buf.String()

	// Control: the same rate sustained past the grace window trips.
	buf.Reset()
	for i := 0; i < 300; i++ {
		buf.WriteString(good)
		if i%10 == 0 {
			buf.WriteString(bad) // 10% corrupt throughout
		}
	}
	sustained := buf.String()

	p := trace.ErrorPolicy{Quarantine: true, Budget: trace.ErrorBudget{MaxErrors: -1, MaxErrorRate: 0.01}}
	for _, w := range ingestWidths {
		recs, _, err := scanDNS(cleanTail, w, p)
		if err != nil {
			t.Fatalf("workers=%d: clean-tail scan tripped: %v", w, err)
		}
		if len(recs) != 500 {
			t.Fatalf("workers=%d: yielded %d records, want 500", w, len(recs))
		}
		if _, _, err := scanDNS(sustained, w, p); !errors.Is(err, trace.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: sustained 10%% corruption did not trip the 1%% rate budget: %v", w, err)
		}
	}
}

// TestConnScannerQuarantine covers the conn-side quarantine path.
func TestConnScannerQuarantine(t *testing.T) {
	var clean bytes.Buffer
	if err := trace.WriteConns(&clean, sampleConns()); err != nil {
		t.Fatal(err)
	}
	want, err := trace.ReadConns(bytes.NewReader(clean.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(clean.String(), "\n"), "\n")
	dirty := lines[0] + "\nbroken\tline\n" + strings.Join(lines[1:], "\n") + "\n"

	for _, w := range ingestWidths {
		got, q, err := scanConns(dirty, w, trace.QuarantineAll())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: records mismatch:\ngot:  %+v\nwant: %+v", w, got, want)
		}
		if len(q) != 1 || q[0].Line != 2 {
			t.Fatalf("workers=%d: quarantined %+v, want one entry at line 2", w, q)
		}
	}
}

// TestDatasetMatchesReference: ScannerSource.Dataset, the resident
// load, reads both logs exactly as the serial reference does at every
// width — records, quarantined lines and budget trips — and returns a
// nil Dataset when a stream fails.
func TestDatasetMatchesReference(t *testing.T) {
	dirtyDNS, _ := corruptedDNSTrace(t)
	var clean bytes.Buffer
	if err := trace.WriteConns(&clean, sampleConns()); err != nil {
		t.Fatal(err)
	}
	dirtyConns := "broken\tline\n" + clean.String()
	for _, policy := range []trace.ErrorPolicy{trace.QuarantineAll(), trace.QuarantineBudget(3, 0), trace.QuarantineBudget(2, 0), trace.Strict()} {
		wantDNS, wantQuar, dnsErr := trace.RefScanDNS(strings.NewReader(dirtyDNS), policy)
		wantConns, connQuar, connErr := trace.RefScanConns(strings.NewReader(dirtyConns), policy)
		wantErr := dnsErr
		if wantErr == nil {
			wantQuar = append(wantQuar, connQuar...)
			wantErr = connErr
		}
		for _, w := range ingestWidths {
			var gotQuar []trace.Quarantined
			p := policy
			p.Sink = func(q trace.Quarantined) { gotQuar = append(gotQuar, q) }
			src := trace.NewScannerSource(strings.NewReader(dirtyDNS), strings.NewReader(dirtyConns), p)
			src.SetIngestWorkers(w)
			ds, err := src.Dataset()
			label := fmt.Sprintf("policy=%+v workers=%d", policy.Budget, w)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
			}
			if len(gotQuar) != len(wantQuar) {
				t.Fatalf("%s: quarantined %d lines, reference %d", label, len(gotQuar), len(wantQuar))
			}
			for i := range wantQuar {
				if gotQuar[i].Line != wantQuar[i].Line || gotQuar[i].Text != wantQuar[i].Text {
					t.Fatalf("%s: quarantine %d is %+v, reference %+v", label, i, gotQuar[i], wantQuar[i])
				}
			}
			if err != nil {
				if ds != nil {
					t.Fatalf("%s: failed load returned a dataset", label)
				}
				continue
			}
			if !reflect.DeepEqual(ds.DNS, wantDNS) || !reflect.DeepEqual(ds.Conns, wantConns) {
				t.Fatalf("%s: dataset differs from the reference", label)
			}
		}
	}
}
