package trace

import (
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"time"
)

// Allocation-free field parsing for the TSV reader. The hot path
// parses numbers and addresses directly from the reader's chunk buffer;
// every fallback calls the strconv/netip parser on a materialized
// string, so accepted inputs, computed values, and error text are
// exactly those of the historical strings.Split-based parser.

// pow10 holds the exactly-representable powers of ten (10^0..10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// fastFloat parses a plain decimal [+-]?ddd(.ddd)? with at least one
// digit. When it reports ok it returns the bit-identical result of
// strconv.ParseFloat: the mantissa (< 2^53) and the power of ten
// (<= 10^22) are both exact in float64, so the single rounding of the
// division is the correct rounding of the decimal (Clinger's fast
// path). Anything else — exponents, hex floats, underscores, inf/NaN,
// too many digits — reports !ok and the caller falls back.
func fastFloat(b []byte) (f float64, ok bool) {
	i, n := 0, len(b)
	neg := false
	if i < n && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	// m may take one more digit iff m*10+9 cannot exceed 2^53-1.
	const mMax = (1<<53)/10 - 1
	var m uint64
	digits, frac := false, 0
	for i < n && '0' <= b[i] && b[i] <= '9' {
		if m > mMax {
			return 0, false
		}
		m = m*10 + uint64(b[i]-'0')
		digits = true
		i++
	}
	if i < n && b[i] == '.' {
		i++
		for i < n && '0' <= b[i] && b[i] <= '9' {
			if m > mMax {
				return 0, false
			}
			m = m*10 + uint64(b[i]-'0')
			frac++
			digits = true
			i++
		}
	}
	if i != n || !digits || frac >= len(pow10) {
		return 0, false
	}
	f = float64(m) / pow10[frac]
	if neg {
		f = -f
	}
	return f, true
}

// parseSecsBytes is parseSecs over a byte field; it materializes the
// string only on the fallback and error paths.
func parseSecsBytes(b []byte) (time.Duration, error) {
	if f, ok := fastFloat(b); ok {
		// fastFloat never yields NaN/Inf, so only the magnitude check of
		// parseSecs applies.
		if f > maxSecs || f < -maxSecs {
			return 0, fmt.Errorf("trace: timestamp %q out of range", b)
		}
		return time.Duration(math.Round(f * float64(time.Second))), nil
	}
	return parseSecs(string(b))
}

// parseUintBytes is strconv.ParseUint(string(b), 10, bits) without the
// per-call string allocation on well-formed input.
func parseUintBytes(b []byte, bits int) (uint64, error) {
	max := uint64(1)<<bits - 1
	if len(b) == 0 {
		return strconv.ParseUint(string(b), 10, bits)
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' || v > (max-uint64(c-'0'))/10 {
			return strconv.ParseUint(string(b), 10, bits)
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

// parseIntBytes is strconv.ParseInt(string(b), 10, 64) without the
// per-call string allocation on well-formed input.
func parseIntBytes(b []byte) (int64, error) {
	i, n := 0, len(b)
	neg := false
	if i < n && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	if i == n {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v uint64
	cutoff := uint64(1) << 63 // |math.MinInt64|; the positive bound is checked below
	for ; i < n; i++ {
		c := b[i]
		if c < '0' || c > '9' || v > (cutoff-uint64(c-'0'))/10 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		return -int64(v), nil // v == 1<<63 is exactly MinInt64
	}
	if v >= cutoff {
		return strconv.ParseInt(string(b), 10, 64)
	}
	return int64(v), nil
}

// maxCachedAddrs bounds the per-worker address cache against inputs
// with unbounded distinct addresses; past the cap, parsing still works,
// it just stops memoizing.
const maxCachedAddrs = 1 << 16

// addrCache memoizes netip.ParseAddr results so the steady state of a
// scan — a bounded set of clients, resolvers, and server addresses —
// parses every address field without allocating. Errors are never
// cached; the miss path is exactly netip.ParseAddr.
type addrCache map[string]netip.Addr

func (c addrCache) parse(b []byte) (netip.Addr, error) {
	if a, ok := c[string(b)]; ok { // no alloc: map lookup conversion
		return a, nil
	}
	s := string(b)
	a, err := netip.ParseAddr(s)
	if err == nil && len(c) < maxCachedAddrs {
		c[s] = a
	}
	return a, err
}

// splitFields splits line on tabs into dst (reused across calls),
// returning the field slice. Semantics match strings.Split: n tabs
// yield n+1 fields, empty fields included.
func splitFields(line []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	start := 0
	for i, c := range line {
		if c == '\t' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return append(dst, line[start:])
}

// arenaBlock is the allocation unit of answerArena.
const arenaBlock = 4096

// answerArena packs per-record answer slices into shared fixed-size
// blocks: records get contiguous sub-slices, blocks are never
// reallocated (so earlier records stay valid), and the per-record
// backing-array allocation of append-per-answer parsing disappears.
type answerArena struct {
	block []Answer
}

// take copies scratch into the arena and returns the shared-backing
// slice, or nil for empty scratch (preserving the nil Answers of
// answerless records).
func (a *answerArena) take(scratch []Answer) []Answer {
	n := len(scratch)
	if n == 0 {
		return nil
	}
	if cap(a.block)-len(a.block) < n {
		size := arenaBlock
		if n > size {
			size = n
		}
		a.block = make([]Answer, 0, size)
	}
	off := len(a.block)
	a.block = append(a.block, scratch...)
	return a.block[off : off+n : off+n]
}

// parseState is the reusable scratch a parse worker threads through
// per-line parsing: field offsets, the answer scratch and arena, the
// address cache, and the name intern table.
type parseState struct {
	fields  [][]byte
	answers []Answer
	arena   answerArena
	addrs   addrCache
	names   *SymbolTable
}

func newParseState() *parseState {
	return &parseState{
		fields: make([][]byte, 0, 16),
		addrs:  make(addrCache),
		names:  NewSymbolTable(),
	}
}
