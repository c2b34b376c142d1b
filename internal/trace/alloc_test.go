package trace

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// Allocation budgets: the zero-copy streaming read must stay
// allocation-free per line in the steady state — named strings come
// from the intern table, addresses from the parse cache, answers from
// the shared arena — so a regression back to per-line garbage fails
// `go test` instead of only showing up in benchmarks.

// allocTSV builds a DNS TSV blob of lines cycling through a small set
// of names and addresses, the shape of a real trace (bounded symbol
// universe, unbounded lines).
func allocTSV(lines int) string {
	var sb strings.Builder
	sb.WriteString(dnsFields + "\n")
	for i := 0; i < lines; i++ {
		name := fmt.Sprintf("host%d.example.com", i%16)
		addr := fmt.Sprintf("192.0.2.%d", i%32)
		fmt.Fprintf(&sb, "%d.%06d\t%d.%06d\t10.1.0.1\t203.0.113.7\t%d\t%s\t1\t0\t%s/300.000000,198.51.100.%d/60.000000\t0\tF\n",
			i, i%1000000, i, (i+400)%1000000, i%65536, name, addr, i%32)
	}
	return sb.String()
}

// allocConnTSV is allocTSV for the conn stream.
func allocConnTSV(lines int) string {
	var sb strings.Builder
	sb.WriteString(connFields + "\n")
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "%d.%06d\t1.500000\ttcp\t10.1.0.1\t%d\t198.51.100.%d\t443\t%d\t%d\n",
			i, i%1000000, 40000+i%20000, i%32, i*10, i*100)
	}
	return sb.String()
}

// scanAllocBudget gates one stream of a ScannerSource at ingest widths
// 1 and 2: a scan may pay a fixed setup cost (goroutines, chunk
// buffers, parse states, intern tables, the first arena blocks —
// independent of input length) plus at most 0.01 allocations per line.
// A regression to even one allocation per line overshoots the budget by
// two orders of magnitude.
func scanAllocBudget(t *testing.T, stream string, lines int, scan func(workers int) (int, error)) {
	t.Helper()
	budget := 200 + 0.01*float64(lines)
	for _, workers := range []int{1, 2} {
		perRun := testing.AllocsPerRun(5, func() {
			if n, err := scan(workers); err != nil || n != lines {
				t.Fatalf("scan: n=%d err=%v", n, err)
			}
		})
		if perRun > budget {
			t.Fatalf("%s stream at %d workers allocates %.0f allocs per %d-line scan; budget is %.0f (fixed setup + 0.01/line)",
				stream, workers, perRun, lines, budget)
		}
	}
}

// TestScannerAllocsPerLine gates the per-line DNS stream cost.
func TestScannerAllocsPerLine(t *testing.T) {
	const lines = 8000
	input := allocTSV(lines)
	scanAllocBudget(t, "dns", lines, func(workers int) (n int, err error) {
		src := NewScannerSource(strings.NewReader(input), nil, Strict())
		src.SetIngestWorkers(workers)
		err = src.StreamDNS(func(*DNSRecord) error { n++; return nil })
		return n, err
	})
}

// TestConnScannerAllocsPerLine is the same gate for the conn stream.
func TestConnScannerAllocsPerLine(t *testing.T) {
	const lines = 8000
	input := allocConnTSV(lines)
	scanAllocBudget(t, "conn", lines, func(workers int) (n int, err error) {
		src := NewScannerSource(nil, strings.NewReader(input), Strict())
		src.SetIngestWorkers(workers)
		err = src.StreamConns(func(*ConnRecord) error { n++; return nil })
		return n, err
	})
}

// TestReadAllocsGrowWithChunksNotRecords gates the slice readers: on
// the chunked engine their allocations grow with the input's 1 MiB
// chunks (a record slice, the answer arena's blocks) and its distinct
// names, not with its records. Inputs cycling through the same names at
// 20k and 100k records may differ by at most 16 allocations per extra
// chunk; one allocation per record would add 80,000.
func TestReadAllocsGrowWithChunksNotRecords(t *testing.T) {
	const small, large, perChunk = 20_000, 100_000, 16
	for _, tc := range []struct {
		stream string
		tsv    func(int) string
		read   func(io.Reader) (int, error)
	}{
		{"dns", allocTSV, func(r io.Reader) (int, error) { recs, err := ReadDNS(r); return len(recs), err }},
		{"conn", allocConnTSV, func(r io.Reader) (int, error) { recs, err := ReadConns(r); return len(recs), err }},
	} {
		allocs := func(lines int) (float64, int) {
			input := tc.tsv(lines)
			perRun := testing.AllocsPerRun(3, func() {
				if n, err := tc.read(strings.NewReader(input)); err != nil || n != lines {
					t.Fatalf("%s: read %d of %d records, err %v", tc.stream, n, lines, err)
				}
			})
			return perRun, len(input)/ingestChunkBytes + 1
		}
		smallAllocs, smallChunks := allocs(small)
		largeAllocs, largeChunks := allocs(large)
		if budget := smallAllocs + float64(perChunk*(largeChunks-smallChunks)); largeAllocs > budget {
			t.Fatalf("%s reader allocates %.0f per %d-record read (%d chunks) against %.0f per %d-record read (%d chunks); budget %.0f",
				tc.stream, largeAllocs, large, largeChunks, smallAllocs, small, smallChunks, budget)
		}
	}
}
