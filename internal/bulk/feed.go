// Package bulk is the ZDNS-class bulk lookup engine: it drives millions
// of DNS queries per run against either the simulated resolver hierarchy
// (deterministic under a seed) or a live dnsserver instance over real
// sockets, with a streaming name feed, sharded workers, in-flight query
// coalescing, retry ladders, and a JSONL output pipeline.
//
// The architecture follows ZDNS's separation (PAPERS.md: "ZDNS: A Fast
// DNS Toolkit for Internet Measurement"): a feed module streams names in
// bounded memory, a lookup layer owns sockets/retries/caching, and an
// output pipeline serializes results and an end-of-run summary without
// back-pressuring lookups. See DESIGN.md §7h for the engine model and
// the determinism contract on the simulated path.
package bulk

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// Query is one lookup request: a name and a query type.
type Query struct {
	Name string
	Type dnswire.Type
}

// Source streams queries one at a time in bounded memory. The iterator
// contract is bufio.Scanner's: Scan advances, Query returns the
// current item, Err reports what stopped the scan (nil at clean end).
type Source interface {
	Scan() bool
	Query() Query
	Err() error
}

// Feed parse failures, wrapped into the per-line skip records.
var (
	errEmptyName   = errors.New("empty name")
	errNameTooLong = errors.New("name exceeds 253 octets")
	errBadNameChar = errors.New("name contains a byte outside [A-Za-z0-9._*-]")
	errBadType     = errors.New("unknown query type")
	errExtraFields = errors.New("more than two fields")
	errLineTooLong = errors.New("line exceeds the feed's line-length bound")
)

// maxFeedLine bounds one feed line. DNS names cap at 253 octets, so
// anything near this bound is garbage; oversized lines are consumed and
// skipped without ever being buffered whole.
const maxFeedLine = 4096

// FeedStats summarizes a feed's progress: data lines seen, queries
// yielded, and malformed lines skipped (Lines = Queries + Skipped).
// Comment and blank lines are not counted.
type FeedStats struct {
	Lines   int
	Queries int
	Skipped int
}

// Feed reads queries from a name list: one name per line, optionally
// followed by a whitespace-separated query type ("www.example.com" or
// "www.example.com AAAA"). Blank lines and #-comments are ignored.
// Malformed lines — bad characters, oversized lines, unknown types,
// embedded NULs — are handled per the trace.ErrorPolicy: strict mode
// fails on the first one, quarantine mode diverts them (with line
// number, text, and cause) to the policy's sink until its error budget
// trips. Lines are parsed as views into the read buffer; only
// quarantined lines materialize a string.
type Feed struct {
	br          *bufio.Reader
	policy      trace.ErrorPolicy
	defaultType dnswire.Type

	q       Query
	line    int // physical line number
	lines   int // data lines processed
	skipped int
	quar    []trace.Quarantined
	err     error
	eof     bool
}

// NewFeed returns a feed over r. defaultType applies to lines without an
// explicit type (use dnswire.TypeA conventionally).
func NewFeed(r io.Reader, defaultType dnswire.Type, policy trace.ErrorPolicy) *Feed {
	if defaultType == 0 {
		defaultType = dnswire.TypeA
	}
	return &Feed{
		br:          bufio.NewReaderSize(r, 1<<16),
		policy:      policy,
		defaultType: defaultType,
	}
}

// Scan advances to the next query, reporting false at end of input or
// error (see Err).
func (f *Feed) Scan() bool {
	if f.err != nil || f.eof {
		return false
	}
	for {
		line, tooLong, err := f.readLine()
		if err != nil {
			if err == io.EOF {
				f.eof = true
				if len(line) == 0 && !tooLong {
					return false
				}
				// Fall through: parse the final unterminated line.
			} else {
				f.err = err
				return false
			}
		}
		if tooLong {
			if !f.skip(line, errLineTooLong) {
				return false
			}
			if f.eof {
				return false
			}
			continue
		}
		line = trimCR(line)
		if len(line) == 0 || line[0] == '#' {
			if f.eof {
				return false
			}
			continue
		}
		f.lines++
		q, perr := parseFeedLine(line, f.defaultType)
		if perr == nil {
			f.q = q
			return true
		}
		f.lines-- // skip() re-counts the line
		if !f.skip(line, perr) {
			return false
		}
		if f.eof {
			return false
		}
	}
}

// readLine returns the next physical line without its trailing \n. A
// line longer than maxFeedLine is consumed to its end and reported with
// tooLong=true and a truncated prefix for the quarantine record.
func (f *Feed) readLine() (line []byte, tooLong bool, err error) {
	f.line++
	line, err = f.br.ReadSlice('\n')
	if err == nil {
		line = line[:len(line)-1]
		if len(line) > maxFeedLine {
			// Fits the 64K read buffer but breaks the feed's bound: same
			// contract as the overflow path below — truncated prefix,
			// tooLong=true.
			prefix := line
			if len(prefix) > 128 {
				prefix = prefix[:128]
			}
			return append([]byte(nil), prefix...), true, nil
		}
		return line, false, nil
	}
	if err == bufio.ErrBufferFull || len(line) > maxFeedLine {
		// Keep a prefix for the skip record, then drain the rest.
		prefix := line
		if len(prefix) > 128 {
			prefix = prefix[:128]
		}
		head := append([]byte(nil), prefix...)
		for err == bufio.ErrBufferFull {
			line, err = f.br.ReadSlice('\n')
		}
		if err != nil && err != io.EOF {
			return head, true, err
		}
		return head, true, err // err is nil or io.EOF
	}
	if err == io.EOF {
		return line, false, io.EOF
	}
	return nil, false, err
}

// skip accounts one malformed line under the error policy. It reports
// false when the scan must stop (strict mode or a tripped budget).
func (f *Feed) skip(line []byte, cause error) bool {
	f.lines++
	q := trace.Quarantined{Line: f.line, Text: string(line), Err: cause}
	if !f.policy.Quarantine {
		f.err = fmt.Errorf("bulk: feed line %d: %w", f.line, cause)
		return false
	}
	f.skipped++
	if f.policy.Sink != nil {
		f.policy.Sink(q)
	} else {
		f.quar = append(f.quar, q)
	}
	if f.policy.Budget.Exceeded(f.skipped, f.lines) {
		f.err = &trace.BudgetError{Quarantined: f.skipped, Lines: f.lines, Last: q}
		return false
	}
	return true
}

// Query returns the query produced by the last successful Scan.
func (f *Feed) Query() Query { return f.q }

// Err returns the error that stopped the scan: nil at clean EOF, the
// parse error in strict mode, a *trace.BudgetError when the skip budget
// tripped, or the underlying read error.
func (f *Feed) Err() error { return f.err }

// Stats summarizes progress so far.
func (f *Feed) Stats() FeedStats {
	return FeedStats{Lines: f.lines, Queries: f.lines - f.skipped, Skipped: f.skipped}
}

// Skipped returns the malformed lines diverted so far (empty when the
// policy routes them to a Sink).
func (f *Feed) Skipped() []trace.Quarantined { return f.quar }

func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// parseFeedLine parses one data line into a Query.
func parseFeedLine(line []byte, defaultType dnswire.Type) (Query, error) {
	name, rest := splitWS(line)
	if len(name) == 0 {
		return Query{}, errEmptyName
	}
	if len(name) > 253 {
		return Query{}, errNameTooLong
	}
	for _, c := range name {
		if !nameByteOK(c) {
			return Query{}, errBadNameChar
		}
	}
	q := Query{Name: string(name), Type: defaultType}
	if len(rest) == 0 {
		return q, nil
	}
	typ, extra := splitWS(rest)
	if len(extra) != 0 {
		return Query{}, errExtraFields
	}
	t, ok := parseQType(typ)
	if !ok {
		return Query{}, fmt.Errorf("%w: %q", errBadType, typ)
	}
	q.Type = t
	return q, nil
}

// splitWS splits line at the first run of spaces/tabs, trimming leading
// and trailing whitespace from both parts.
func splitWS(line []byte) (head, rest []byte) {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	j := i
	for j < len(line) && line[j] != ' ' && line[j] != '\t' {
		j++
	}
	k := j
	for k < len(line) && (line[k] == ' ' || line[k] == '\t') {
		k++
	}
	rest = line[k:]
	for len(rest) > 0 && (rest[len(rest)-1] == ' ' || rest[len(rest)-1] == '\t') {
		rest = rest[:len(rest)-1]
	}
	return line[i:j], rest
}

// nameByteOK reports whether c may appear in a feed hostname. The set is
// deliberately conservative — LDH plus '.', '_' (service labels), and
// '*' (wildcard probes) — so downstream JSONL encoding never needs
// escaping and garbage (control bytes, NULs, non-ASCII) is quarantined
// at ingest.
func nameByteOK(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '.' || c == '_' || c == '*':
		return true
	}
	return false
}

// parseQType maps a feed type token to a dnswire.Type. Mnemonics for
// every codec-supported type are accepted, case-sensitively matching
// dnswire's String forms plus lowercase.
func parseQType(tok []byte) (dnswire.Type, bool) {
	switch string(tok) {
	case "A", "a":
		return dnswire.TypeA, true
	case "AAAA", "aaaa":
		return dnswire.TypeAAAA, true
	case "NS", "ns":
		return dnswire.TypeNS, true
	case "CNAME", "cname":
		return dnswire.TypeCNAME, true
	case "SOA", "soa":
		return dnswire.TypeSOA, true
	case "PTR", "ptr":
		return dnswire.TypePTR, true
	case "MX", "mx":
		return dnswire.TypeMX, true
	case "TXT", "txt":
		return dnswire.TypeTXT, true
	case "ANY", "any":
		return dnswire.TypeANY, true
	}
	return 0, false
}

// SyntheticConfig parameterizes a SyntheticSource.
type SyntheticConfig struct {
	// N is the number of queries to produce.
	N int
	// Seed drives the popularity sampling; the same (zones, Seed, N,
	// MissFraction) always yields the same query stream.
	Seed uint64
	// MissFraction is the fraction of queries aimed at names outside the
	// namespace (NXDOMAIN exercise); default 0 means every name exists.
	MissFraction float64
	// Type is the query type for every query (default A).
	Type dnswire.Type
}

// SyntheticSource produces a deterministic Zipf-popularity query stream
// over a zonedb namespace — the feed used by the ≥1M-lookup benchmark
// runs, where materializing a name file would only measure the disk.
type SyntheticSource struct {
	zones *zonedb.DB
	cfg   SyntheticConfig
	rng   *stats.RNG
	i     int
	q     Query
}

// NewSyntheticSource returns a source producing cfg.N queries sampled
// from zones by popularity.
func NewSyntheticSource(zones *zonedb.DB, cfg SyntheticConfig) *SyntheticSource {
	if cfg.Type == 0 {
		cfg.Type = dnswire.TypeA
	}
	return &SyntheticSource{zones: zones, cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
}

// Scan advances to the next query.
func (s *SyntheticSource) Scan() bool {
	if s.i >= s.cfg.N {
		return false
	}
	s.i++
	if s.cfg.MissFraction > 0 && s.rng.Bool(s.cfg.MissFraction) {
		// A name shaped like the namespace's but guaranteed absent.
		s.q = Query{Name: fmt.Sprintf("void.miss%06d.example", s.rng.Intn(1000000)), Type: s.cfg.Type}
		return true
	}
	s.q = Query{Name: s.zones.Pick(s.rng).Host, Type: s.cfg.Type}
	return true
}

// Query returns the query produced by the last successful Scan.
func (s *SyntheticSource) Query() Query { return s.q }

// Err always returns nil; a synthetic stream cannot fail.
func (s *SyntheticSource) Err() error { return nil }
