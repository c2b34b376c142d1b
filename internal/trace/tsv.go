package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// TSV serialization in the spirit of Bro logs: a '#fields' header line
// followed by one tab-separated record per line. Timestamps are seconds
// (with fractional part) since the window start.

const (
	dnsFields  = "#fields\tquery_ts\tts\tclient\tresolver\tid\tquery\tqtype\trcode\tanswers\tretries\ttc"
	connFields = "#fields\tts\tduration\tproto\torig\torig_port\tresp\tresp_port\torig_bytes\tresp_bytes"
)

// appendSecs appends d as seconds with six decimals, byte-identical to
// strconv.AppendFloat(b, d.Seconds(), 'f', 6, 64) but in integer
// arithmetic. For 0 ≤ d < 1e15 ns, d.Seconds() is within 1.2e-10 s of
// the exact d/1e9 (one rounding of a value below 2^20), and unless
// d%1000 == 500 the exact value lies at least 1 ns from the nearest
// half-microsecond — so the float rounds to the same microsecond as d
// does, with no tie to break. Ties, negatives and huge values take the
// float path, which is the definition.
func appendSecs(b []byte, d time.Duration) []byte {
	if d < 0 || d >= 1e15 || d%1000 == 500 {
		return strconv.AppendFloat(b, d.Seconds(), 'f', 6, 64)
	}
	us := (int64(d) + 500) / 1000
	b = strconv.AppendInt(b, us/1e6, 10)
	frac := us % 1e6
	var f [7]byte
	f[0] = '.'
	for i := 6; i > 0; i-- {
		f[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(b, f[:]...)
}

// flushAt is the encoders' batching threshold: lines accumulate in one
// reused buffer, which goes to the writer whenever it passes this size.
const flushAt = 32 << 10

// encodeTSV writes header and then each record's line, encoded by
// appendRec into one reused buffer. A record appendRec rejects aborts
// the write with an error naming its index; lines before it may
// already have been written.
func encodeTSV[R any](w io.Writer, header, stream string, recs []R, appendRec func([]byte, *R) ([]byte, error)) error {
	b := make([]byte, 0, 2*flushAt)
	b = append(b, header...)
	b = append(b, '\n')
	for i := range recs {
		var err error
		if b, err = appendRec(b, &recs[i]); err != nil {
			return fmt.Errorf("trace: %s record %d: %w", stream, i, err)
		}
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(b)
	return err
}

// maxSecs bounds parsed timestamps (in seconds). It sits safely below
// the int64-nanosecond limit (~9.22e9 s) so the float→Duration
// conversion can never overflow, with margin for float rounding.
const maxSecs = 9.2e9

func parseSecs(s string) (time.Duration, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// Reject non-finite and overflowing values explicitly: converting
	// such floats to int64 is undefined, and no real trace carries them.
	if math.IsNaN(f) || math.IsInf(f, 0) || f > maxSecs || f < -maxSecs {
		return 0, fmt.Errorf("trace: timestamp %q out of range", s)
	}
	// Round rather than truncate: the fractional-seconds encoding is
	// microsecond-precise, and f*1e9 lands a hair under whole nanosecond
	// values often enough that truncation would corrupt round trips.
	return time.Duration(math.Round(f * float64(time.Second))), nil
}

// WriteDNS writes DNS records as TSV. It rejects, naming the record's
// index, a record whose line could not be read back as written: a
// query containing a tab, newline or carriage return (a name decoded
// from the wire may carry any byte), an invalid client or resolver
// address, or an invalid or zoned answer address.
func WriteDNS(w io.Writer, recs []DNSRecord) error {
	return encodeTSV(w, dnsFields, "dns", recs, appendDNS)
}

// appendDNS appends d's TSV line to b, or returns b unchanged and the
// reason d cannot be encoded.
func appendDNS(b []byte, d *DNSRecord) ([]byte, error) {
	if strings.ContainsAny(d.Query, "\t\n\r") {
		return b, fmt.Errorf("query %q contains a tab, newline or carriage return", d.Query)
	}
	if !d.Client.IsValid() {
		return b, errors.New("invalid client address")
	}
	if !d.Resolver.IsValid() {
		return b, errors.New("invalid resolver address")
	}
	for j := range d.Answers {
		if a := d.Answers[j].Addr; !a.IsValid() || a.Zone() != "" {
			return b, fmt.Errorf("answer %d: address %q is invalid or zoned", j, a)
		}
	}
	b = appendSecs(b, d.QueryTS)
	b = append(b, '\t')
	b = appendSecs(b, d.TS)
	b = append(b, '\t')
	b = d.Client.AppendTo(b)
	b = append(b, '\t')
	b = d.Resolver.AppendTo(b)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.ID), 10)
	b = append(b, '\t')
	b = append(b, d.Query...)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.QType), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.RCode), 10)
	b = append(b, '\t')
	if len(d.Answers) == 0 {
		b = append(b, '-')
	}
	for j := range d.Answers {
		if j > 0 {
			b = append(b, ',')
		}
		b = d.Answers[j].Addr.AppendTo(b)
		b = append(b, '/')
		b = appendSecs(b, d.Answers[j].TTL)
	}
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(d.Retries), 10)
	if d.TC {
		b = append(b, "\tT\n"...)
	} else {
		b = append(b, "\tF\n"...)
	}
	return b, nil
}

// parseDNSLine parses one data line of the DNS TSV format. It is the
// standalone-string form of parseDNSLineBytes, for callers without a
// scanner's reusable parse state.
func parseDNSLine(lineNo int, line string) (DNSRecord, error) {
	return parseDNSLineBytes(lineNo, []byte(line), newParseState())
}

// parseDNSLineBytes parses one data line in place: fields are located
// by index in the scanner's line buffer, numbers and addresses parse
// without materializing per-field strings, the query name is interned
// through st.names, and the answers land in st's shared arena. Accepted
// inputs, values, and error text are exactly those of the historical
// strings.Split parser, except that a query containing a carriage
// return, which WriteDNS cannot write, is rejected.
func parseDNSLineBytes(lineNo int, line []byte, st *parseState) (DNSRecord, error) {
	var d DNSRecord
	st.fields = splitFields(line, st.fields)
	f := st.fields
	// 9 fields is the pre-fault format (no retries/tc columns);
	// accept it so existing trace files keep loading.
	if len(f) != 9 && len(f) != 11 {
		return d, fmt.Errorf("trace: dns line %d: %d fields, want 9 or 11", lineNo, len(f))
	}
	var err error
	if d.QueryTS, err = parseSecsBytes(f[0]); err != nil {
		return d, fmt.Errorf("trace: dns line %d query_ts: %w", lineNo, err)
	}
	if d.TS, err = parseSecsBytes(f[1]); err != nil {
		return d, fmt.Errorf("trace: dns line %d ts: %w", lineNo, err)
	}
	if d.Client, err = st.addrs.parse(f[2]); err != nil {
		return d, fmt.Errorf("trace: dns line %d client: %w", lineNo, err)
	}
	if d.Resolver, err = st.addrs.parse(f[3]); err != nil {
		return d, fmt.Errorf("trace: dns line %d resolver: %w", lineNo, err)
	}
	id, err := parseUintBytes(f[4], 16)
	if err != nil {
		return d, fmt.Errorf("trace: dns line %d id: %w", lineNo, err)
	}
	d.ID = uint16(id)
	// WriteDNS refuses a query with a carriage return; one read here
	// would not survive the next write.
	if bytes.IndexByte(f[5], '\r') >= 0 {
		return d, fmt.Errorf("trace: dns line %d query %q contains a carriage return", lineNo, f[5])
	}
	d.Query = st.names.Canonical(f[5])
	qt, err := parseUintBytes(f[6], 16)
	if err != nil {
		return d, fmt.Errorf("trace: dns line %d qtype: %w", lineNo, err)
	}
	d.QType = uint16(qt)
	rc, err := parseUintBytes(f[7], 8)
	if err != nil {
		return d, fmt.Errorf("trace: dns line %d rcode: %w", lineNo, err)
	}
	d.RCode = uint8(rc)
	if !bytes.Equal(f[8], dashField) {
		st.answers = st.answers[:0]
		rest := f[8]
		for len(rest) > 0 {
			var part []byte
			if i := bytes.IndexByte(rest, ','); i >= 0 {
				part, rest = rest[:i], rest[i+1:]
			} else {
				part, rest = rest, nil
			}
			addr, ttlStr, ok := bytes.Cut(part, slashSep)
			if !ok {
				return d, fmt.Errorf("trace: dns line %d answer %q missing ttl", lineNo, part)
			}
			var a Answer
			if a.Addr, err = st.addrs.parse(addr); err != nil {
				return d, fmt.Errorf("trace: dns line %d answer addr: %w", lineNo, err)
			}
			// Zone identifiers may contain commas, which would corrupt
			// the comma-joined answers field on the next write; no DNS
			// answer legitimately carries one.
			if a.Addr.Zone() != "" {
				return d, fmt.Errorf("trace: dns line %d answer addr %q has a zone", lineNo, addr)
			}
			if a.TTL, err = parseSecsBytes(ttlStr); err != nil {
				return d, fmt.Errorf("trace: dns line %d answer ttl: %w", lineNo, err)
			}
			st.answers = append(st.answers, a)
		}
		d.Answers = st.arena.take(st.answers)
	}
	if len(f) == 11 {
		rt, err := parseUintBytes(f[9], 8)
		if err != nil {
			return d, fmt.Errorf("trace: dns line %d retries: %w", lineNo, err)
		}
		d.Retries = uint8(rt)
		switch {
		case len(f[10]) == 1 && f[10][0] == 'T':
			d.TC = true
		case len(f[10]) == 1 && f[10][0] == 'F':
			d.TC = false
		default:
			return d, fmt.Errorf("trace: dns line %d tc: %q, want T or F", lineNo, f[10])
		}
	}
	return d, nil
}

var (
	dashField = []byte("-")
	slashSep  = []byte("/")
)

// ReadDNS parses TSV DNS records. It is the strict slice-based form of
// DNSScanner: the first malformed line aborts the read.
func ReadDNS(r io.Reader) ([]DNSRecord, error) {
	sc := NewDNSScanner(r, ErrorPolicy{})
	var out []DNSRecord
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	if sc.parseFailed {
		return nil, sc.Err()
	}
	return out, sc.Err()
}

// WriteConns writes connection records as TSV. It rejects, naming the
// record's index, a record with an invalid orig or resp address.
func WriteConns(w io.Writer, recs []ConnRecord) error {
	return encodeTSV(w, connFields, "conn", recs, appendConn)
}

// appendConn appends c's TSV line to b, or returns b unchanged and the
// reason c cannot be encoded.
func appendConn(b []byte, c *ConnRecord) ([]byte, error) {
	if !c.Orig.IsValid() {
		return b, errors.New("invalid orig address")
	}
	if !c.Resp.IsValid() {
		return b, errors.New("invalid resp address")
	}
	b = appendSecs(b, c.TS)
	b = append(b, '\t')
	b = appendSecs(b, c.Duration)
	b = append(b, '\t')
	b = append(b, c.Proto.String()...)
	b = append(b, '\t')
	b = c.Orig.AppendTo(b)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(c.OrigPort), 10)
	b = append(b, '\t')
	b = c.Resp.AppendTo(b)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(c.RespPort), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, c.OrigBytes, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, c.RespBytes, 10)
	return append(b, '\n'), nil
}

// parseConnLine parses one data line of the connection TSV format. It
// is the standalone-string form of parseConnLineBytes.
func parseConnLine(lineNo int, line string) (ConnRecord, error) {
	return parseConnLineBytes(lineNo, []byte(line), newParseState())
}

// parseConnLineBytes parses one data line in place; see
// parseDNSLineBytes for the zero-copy contract.
func parseConnLineBytes(lineNo int, line []byte, st *parseState) (ConnRecord, error) {
	var c ConnRecord
	st.fields = splitFields(line, st.fields)
	f := st.fields
	if len(f) != 9 {
		return c, fmt.Errorf("trace: conn line %d: %d fields, want 9", lineNo, len(f))
	}
	var err error
	if c.TS, err = parseSecsBytes(f[0]); err != nil {
		return c, fmt.Errorf("trace: conn line %d ts: %w", lineNo, err)
	}
	if c.Duration, err = parseSecsBytes(f[1]); err != nil {
		return c, fmt.Errorf("trace: conn line %d duration: %w", lineNo, err)
	}
	switch {
	case bytes.Equal(f[2], protoTCP):
		c.Proto = TCP
	case bytes.Equal(f[2], protoUDP):
		c.Proto = UDP
	default:
		if c.Proto, err = ParseProto(string(f[2])); err != nil {
			return c, fmt.Errorf("trace: conn line %d: %w", lineNo, err)
		}
	}
	if c.Orig, err = st.addrs.parse(f[3]); err != nil {
		return c, fmt.Errorf("trace: conn line %d orig: %w", lineNo, err)
	}
	op, err := parseUintBytes(f[4], 16)
	if err != nil {
		return c, fmt.Errorf("trace: conn line %d orig_port: %w", lineNo, err)
	}
	c.OrigPort = uint16(op)
	if c.Resp, err = st.addrs.parse(f[5]); err != nil {
		return c, fmt.Errorf("trace: conn line %d resp: %w", lineNo, err)
	}
	rp, err := parseUintBytes(f[6], 16)
	if err != nil {
		return c, fmt.Errorf("trace: conn line %d resp_port: %w", lineNo, err)
	}
	c.RespPort = uint16(rp)
	if c.OrigBytes, err = parseIntBytes(f[7]); err != nil {
		return c, fmt.Errorf("trace: conn line %d orig_bytes: %w", lineNo, err)
	}
	if c.RespBytes, err = parseIntBytes(f[8]); err != nil {
		return c, fmt.Errorf("trace: conn line %d resp_bytes: %w", lineNo, err)
	}
	return c, nil
}

var (
	protoTCP = []byte("tcp")
	protoUDP = []byte("udp")
)

// ReadConns parses TSV connection records. It is the strict slice-based
// form of ConnScanner: the first malformed line aborts the read.
func ReadConns(r io.Reader) ([]ConnRecord, error) {
	sc := NewConnScanner(r, ErrorPolicy{})
	var out []ConnRecord
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	if sc.parseFailed {
		return nil, sc.Err()
	}
	return out, sc.Err()
}
