package trace_test

// The slice readers' contract. ReadDNS/ReadConns parse on the chunked
// engine with one worker per CPU; the serial reference loop
// (reference_test.go) is what they must match at any GOMAXPROCS: the
// same records, the same error text, and the same return shapes — a
// parse failure returns a nil slice, a read error returns the records
// before it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"dnscontext/internal/households"
	"dnscontext/internal/trace"
)

// readSpy remembers the last error its reader returned other than EOF.
type readSpy struct {
	r   io.Reader
	err error
}

func (s *readSpy) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF {
		s.err = err
	}
	return n, err
}

// serialRead is the reference reader: the strict serial reference, with
// the slice readers' return shapes. An error that did not come from the
// reader or bufio's own limits is a parse failure and drops the records.
func serialRead[R any](r io.Reader, scan func(io.Reader, trace.ErrorPolicy) ([]R, []trace.Quarantined, error)) ([]R, error) {
	spy := &readSpy{r: r}
	out, _, err := scan(spy, trace.Strict())
	if err != nil && err != spy.err && err != bufio.ErrTooLong && err != io.ErrNoProgress {
		return nil, err
	}
	return out, err
}

func serialReadDNS(r io.Reader) ([]trace.DNSRecord, error) { return serialRead(r, trace.RefScanDNS) }

func serialReadConns(r io.Reader) ([]trace.ConnRecord, error) {
	return serialRead(r, trace.RefScanConns)
}

// readCase is one reader input; open returns a fresh reader each call.
// wantRecs < 0 skips the record-count pin, and wantErr, when set, must
// match the error with errors.Is.
type readCase struct {
	name     string
	open     func() io.Reader
	wantRecs int
	wantNil  bool
	wantErr  error
}

// checkReadContract runs read and its serial reference on every case at
// GOMAXPROCS 1, 2 and 8.
func checkReadContract[R any](t *testing.T, cases []readCase,
	read, ref func(io.Reader) ([]R, error)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			label := fmt.Sprintf("%s/GOMAXPROCS=%d", c.name, procs)
			want, wantErr := ref(c.open())
			got, gotErr := read(c.open())
			if (wantErr == nil) != (gotErr == nil) ||
				(wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s: error %v, serial reference %v", label, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d records differ from the serial reference's %d", label, len(got), len(want))
			}
			if c.wantErr != nil && !errors.Is(gotErr, c.wantErr) {
				t.Fatalf("%s: error %v, want %v", label, gotErr, c.wantErr)
			}
			if c.wantNil && got != nil {
				t.Fatalf("%s: %d records, want a nil slice", label, len(got))
			}
			if c.wantRecs >= 0 && len(got) != c.wantRecs {
				t.Fatalf("%s: %d records, want %d", label, len(got), c.wantRecs)
			}
		}
	}
}

// stringCase reads a fixed input.
func stringCase(name, input string, wantRecs int) readCase {
	return readCase{name: name, open: func() io.Reader { return strings.NewReader(input) }, wantRecs: wantRecs}
}

// failAfter reads prefix and then fails with err.
func failAfter(prefix string, err error) func() io.Reader {
	return func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(err)) }
}

// noProgress never returns data or an error.
type noProgress struct{}

func (noProgress) Read([]byte) (int, error) { return 0, nil }

// contractCases builds the shared cases over one TSV input with a
// header line and at least 28 records: the whole input, reader failures
// at a line boundary and mid-line (plus a reader's own
// io.ErrUnexpectedEOF), an over-long line, comment-only input, CRLF
// terminators, and a reader that makes no progress.
func contractCases(input string) []readCase {
	lines := strings.SplitAfter(input, "\n")
	boundary := strings.Join(lines[:14], "") // header + 13 records
	midLine := boundary + lines[14][:5]
	boom := errors.New("boom")
	return []readCase{
		stringCase("whole", input, len(lines)-2),
		{name: "fail-at-boundary", open: failAfter(boundary, boom), wantRecs: 13, wantErr: boom},
		{name: "fail-mid-line", open: failAfter(midLine, boom), wantNil: true, wantRecs: 0},
		{name: "unexpected-eof", open: failAfter(boundary, io.ErrUnexpectedEOF), wantRecs: 13, wantErr: io.ErrUnexpectedEOF},
		{name: "too-long", open: func() io.Reader {
			return strings.NewReader(boundary + strings.Repeat("y", 5<<20) + "\n" + lines[14])
		}, wantRecs: 13, wantErr: bufio.ErrTooLong},
		stringCase("comment-only", "#fields\tx\n#close\n\n", 0),
		stringCase("crlf", strings.ReplaceAll(input, "\n", "\r\n"), len(lines)-2),
		{name: "no-progress", open: func() io.Reader { return noProgress{} }, wantRecs: 0, wantErr: io.ErrNoProgress},
	}
}

// generatedTSV writes a generated window's two logs, the DNS body
// repeated so the input spans several of the engine's 1 MiB chunks.
func generatedTSV(t *testing.T) (dns, conns string) {
	t.Helper()
	ds, _, err := households.Generate(households.SmallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	var d, c bytes.Buffer
	if err := trace.WriteDNS(&d, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteConns(&c, ds.Conns); err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(d.String(), "\n")
	return header + "\n" + strings.Repeat(body, 1+(3<<20)/len(body)), c.String()
}

func TestReadDNSContract(t *testing.T) {
	dns, _ := generatedTSV(t)
	cases := contractCases(dns)
	for name, input := range corpusInputs(t, "FuzzReadDNS") {
		cases = append(cases, stringCase("corpus/"+name, input, -1))
	}
	checkReadContract(t, cases, trace.ReadDNS, serialReadDNS)
}

func TestReadConnsContract(t *testing.T) {
	_, conns := generatedTSV(t)
	cases := contractCases(conns)
	for name, input := range corpusInputs(t, "FuzzReadConns") {
		cases = append(cases, stringCase("corpus/"+name, input, -1))
	}
	checkReadContract(t, cases, trace.ReadConns, serialReadConns)
}
