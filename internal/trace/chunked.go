package trace

// Parallel chunked ingestion. The chunked engine splits the input
// into record-aligned (newline-aligned) chunks, parses the chunks
// concurrently — each worker with its own parseState, so the zero-copy
// field splitting and per-worker name interning need no locks — and
// merges the parsed chunks back in input order. It is the only TSV
// reader: the slice readers (ReadDNS/ReadConns, on GOMAXPROCS workers),
// ScannerSource and DirSource (at their ingest width, one worker
// included) and ScannerSource.Dataset all run on it.
//
// Determinism is the contract: the record sequence, every quarantine
// decision, the error-budget trip point, and the strict-mode abort all
// replay in line order at the merge, so a chunked scan is
// indistinguishable from a one-line-at-a-time scan at any worker count.
// A parsed chunk carries its records and, separately, only its failed
// lines with their record position, so the merge hands records over a
// chunk slice at a time and replays the error policy at each failure.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"runtime/pprof"

	"dnscontext/internal/parallel"
)

const (
	// ingestChunkBytes is the target chunk size handed to one parse
	// worker: large enough to amortize the hand-off, small enough that
	// a few chunks per worker stay in flight.
	ingestChunkBytes = 1 << 20
	// maxIngestLine is the longest line the reader accepts, as a
	// bufio.Scanner with a 4 MiB token cap would: a line this long fails
	// the scan with bufio.ErrTooLong.
	maxIngestLine = 1 << 22
	// chunkSlack is the room a chunk buffer keeps past the read for the
	// partial line carried over from the previous read, so a recycled
	// buffer fits the next read.
	chunkSlack = 4 << 10
	// maxEmptyReads mirrors bufio.Scanner: that many consecutive empty
	// reads fail the scan with io.ErrNoProgress.
	maxEmptyReads = 100
)

// ingestChunk is one newline-aligned slice of the input: whole lines
// only (the final chunk of the stream may lack a trailing '\n').
type ingestChunk struct {
	// startLine is the 1-based physical line number of the chunk's
	// first line, so workers report exact line numbers without any
	// global counter.
	startLine int
	data      []byte
	// buf is the whole buffer data lies in, handed back to the producer
	// once the chunk is parsed.
	buf []byte
}

// fill reads into b until b is full or the reader fails, and returns
// the bytes read. Unlike io.ReadFull it passes the reader's error
// through unchanged, so a reader's own io.ErrUnexpectedEOF (a truncated
// compressed stream) stays an error, as bufio.Scanner reports it.
func fill(r io.Reader, b []byte) (int, error) {
	n, empty := 0, 0
	for n < len(b) {
		m, err := r.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty >= maxEmptyReads {
			return n, io.ErrNoProgress
		}
	}
	return n, nil
}

// produceIngestChunks reads r into newline-aligned chunks, drawing
// buffers from free before allocating. A line that accumulates
// maxIngestLine bytes without a newline fails with bufio.ErrTooLong,
// exactly where a bufio.Scanner's token cap would; a mid-stream read
// error still emits every buffered line first — a bufio.Scanner yields
// those (including a partial final line) before reporting the error,
// and the ordered merge preserves that prefix.
func produceIngestChunks(r io.Reader, chunkBytes int, free freeList[[]byte], emit func(ingestChunk) error) error {
	startLine := 1
	var carry []byte // partial trailing line of the previous read
	for {
		// A line longer than a chunk doubles the read instead of growing
		// it by chunkBytes, so it costs O(log) reads and copies, not
		// O(length/chunkBytes).
		need := len(carry) + max(chunkBytes, len(carry))
		buf, _ := free.get()
		if cap(buf) < need {
			buf = make([]byte, need, need+chunkSlack)
		}
		// copy is a memmove: carry may lie in the tail of this very
		// buffer, recycled since its chunk was parsed.
		n := copy(buf[:need], carry)
		m, rerr := fill(r, buf[n:need])
		data := buf[:n+m]
		// Only the first line of data can be overlong: carry holds no
		// newline, so any later line is bounded by one read's bytes.
		if i := bytes.IndexByte(data, '\n'); i >= maxIngestLine || (i < 0 && len(data) >= maxIngestLine) {
			return bufio.ErrTooLong
		}
		if rerr != nil {
			if len(data) > 0 {
				if err := emit(ingestChunk{startLine: startLine, data: data, buf: buf}); err != nil {
					return err
				}
			}
			if rerr == io.EOF {
				return nil
			}
			return rerr
		}
		cut := bytes.LastIndexByte(data, '\n')
		if cut < 0 {
			carry = data // the line continues; grow it next read
			continue
		}
		// Cap the emitted slice's capacity: carry lies in the same
		// buffer and is copied out on the next iteration.
		if err := emit(ingestChunk{startLine: startLine, data: data[: cut+1 : cut+1], buf: buf}); err != nil {
			return err
		}
		startLine += bytes.Count(data[:cut+1], newline)
		carry = data[cut+1:]
	}
}

var newline = []byte{'\n'}

// freeList recycles values between goroutines. It is a channel rather
// than a sync.Pool so that what it holds survives garbage collections
// and, under the race detector, is not dropped at random.
type freeList[T any] chan T

// get returns a recycled value, or reports false when none is free.
func (f freeList[T]) get() (v T, ok bool) {
	select {
	case v = <-f:
		return v, true
	default:
		return v, false
	}
}

// put offers v for reuse, dropping it when the list is full.
func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}

// scanFailure is one data line of a parsed chunk that failed to parse:
// its copied text and cause, so the merge can replay the error policy
// exactly, and at, the number of the chunk's records parsed before it.
type scanFailure struct {
	at   int
	line int
	text string
	err  error
}

// parsedChunk is one chunk's parse output: its records in line order
// and its failed lines.
type parsedChunk[R any] struct {
	recs  []R
	fails []scanFailure
}

// parseChunkLines splits one chunk into lines — mirroring
// bufio.ScanLines: '\n' terminators, one trailing '\r' dropped, a final
// unterminated line kept — and parses every data line. Comment ('#')
// and blank lines advance the line counter and produce nothing. recs is
// sized from the chunk's line count, so it never grows.
func parseChunkLines[R any](c ingestChunk, parse func(lineNo int, line []byte) (R, error)) parsedChunk[R] {
	pc := parsedChunk[R]{recs: make([]R, 0, bytes.Count(c.data, newline)+1)}
	line := c.startLine - 1
	data := c.data
	for len(data) > 0 {
		var ln []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			ln, data = data[:i], data[i+1:]
		} else {
			ln, data = data, nil
		}
		line++
		if len(ln) > 0 && ln[len(ln)-1] == '\r' {
			ln = ln[:len(ln)-1]
		}
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		rec, err := parse(line, ln)
		if err != nil {
			pc.fails = append(pc.fails, scanFailure{at: len(pc.recs), line: line, text: string(ln), err: err})
			continue
		}
		pc.recs = append(pc.recs, rec)
	}
	return pc
}

// scanChunked is the chunked-scan driver: produce chunks, parse them on
// `workers` goroutines (0 means GOMAXPROCS, negative one; each draws a
// recycled parseState), and replay the outcomes in input order —
// handing each run of records between failures to yield as one slice,
// and applying the error policy and budget at each failure in line
// order. The slices yield receives are the chunks' own, never reused.
// parseFailed reports that err is a strict-mode parse error rather than
// a read error or a budget trip.
//
// Chunk buffers are recycled once parsed: a parsed record holds no view
// into its line (names are interned copies, quarantined text and error
// values are copied), so a buffer is free as soon as its chunk is.
func scanChunked[R any](r io.Reader, workers, chunkBytes int, policy ErrorPolicy,
	parse func(lineNo int, line []byte, st *parseState) (R, error),
	yield func([]R) error) (parseFailed bool, err error) {

	w := parallel.Workers(workers)
	if workers < 0 {
		w = 1
	}
	ahead := 2 * w
	// free holds parsed chunks' buffers for the producer to reuse, and
	// states the workers' parse states; at most ahead chunks are in
	// flight and w states in use, so neither needs more room.
	free := make(freeList[[]byte], ahead)
	states := make(freeList[*parseState], w)
	var lines, nQuar int
	flush := func(recs []R) error {
		lines += len(recs)
		if len(recs) == 0 {
			return nil
		}
		return yield(recs)
	}
	// Label the scan so profiles attribute parse samples to the stage;
	// the chunk workers inherit the label from this goroutine.
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "scan"), func(ctx context.Context) {
		err = parallel.OrderedStream(ctx, w, ahead,
			func(emit func(ingestChunk) error) error {
				return produceIngestChunks(r, chunkBytes, free, emit)
			},
			func(c ingestChunk) (parsedChunk[R], error) {
				st, ok := states.get()
				if !ok {
					st = newParseState()
				}
				pc := parseChunkLines(c, func(lineNo int, line []byte) (R, error) {
					return parse(lineNo, line, st)
				})
				states.put(st)
				free.put(c.buf)
				return pc, nil
			},
			func(pc parsedChunk[R]) error {
				next := 0
				for _, f := range pc.fails {
					if err := flush(pc.recs[next:f.at]); err != nil {
						return err
					}
					next = f.at
					lines++
					if !policy.Quarantine {
						parseFailed = true
						return f.err
					}
					nQuar++
					q := Quarantined{Line: f.line, Text: f.text, Err: f.err}
					if policy.Sink != nil {
						policy.Sink(q)
					}
					if policy.Budget.Exceeded(nQuar, lines) {
						return &BudgetError{Quarantined: nQuar, Lines: lines, Last: q}
					}
				}
				return flush(pc.recs[next:])
			})
	})
	return parseFailed, err
}

// readChunked reads r whole: a chunked scan on `workers` goroutines
// (as scanChunked counts them) under policy that keeps each chunk's
// record slice and copies them once into an exact-length result. A
// strict parse failure returns nil and the parse error; a read error or
// a budget trip returns the records before it and the error.
func readChunked[R any](r io.Reader, workers int, policy ErrorPolicy,
	parse func(lineNo int, line []byte, st *parseState) (R, error)) ([]R, error) {
	var parts [][]R
	n := 0
	parseFailed, err := scanChunked(r, workers, ingestChunkBytes, policy, parse, func(recs []R) error {
		parts = append(parts, recs)
		n += len(recs)
		return nil
	})
	if parseFailed || n == 0 {
		return nil, err
	}
	out := make([]R, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, err
}

// eachRecord adapts a per-record yield to scanChunked's slice yield.
func eachRecord[R any](yield func(*R) error) func([]R) error {
	return func(recs []R) error {
		for i := range recs {
			if err := yield(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// scanChunkedDNS streams r's DNS records through the chunked parser,
// yielding them in input order under policy. Each worker interned names
// into its own table, so equal names from different chunks arrive as
// distinct strings; every record's Query is re-canonicalized through
// one merge-side table (a map lookup per record), so equal names share
// storage and the table's numbering is global first-appearance order.
func scanChunkedDNS(r io.Reader, workers int, policy ErrorPolicy, yield func(*DNSRecord) error) error {
	names := NewSymbolTable()
	_, err := scanChunked(r, workers, ingestChunkBytes, policy, parseDNSLineBytes,
		eachRecord(func(d *DNSRecord) error {
			d.Query = names.CanonicalString(d.Query)
			return yield(d)
		}))
	return err
}

// scanChunkedConns is scanChunkedDNS for connection summaries (which
// carry no strings, so no re-canonicalization is needed).
func scanChunkedConns(r io.Reader, workers int, policy ErrorPolicy, yield func(*ConnRecord) error) error {
	_, err := scanChunked(r, workers, ingestChunkBytes, policy, parseConnLineBytes, eachRecord(yield))
	return err
}
