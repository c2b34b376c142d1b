package trace

import (
	"bufio"
	"io"
)

// The serial reference reader. Every TSV read runs on the chunked
// engine; this deliberately naive loop — one bufio.Scanner, one line at
// a time, the error policy applied as each line fails — is what the
// engine is checked against at every worker count and chunk size: the
// same records, the same quarantined lines (number, text, cause), the
// same budget trip and the same terminal error.

// refScan reads r one line at a time under policy. It returns every
// record parsed before the scan stopped, every quarantined line in
// order (policy.Sink is not called), and the error that stopped the
// scan: nil at clean EOF, the parse error in strict mode, a
// *BudgetError when the budget trips, or the reader's or bufio's own
// error.
func refScan[R any](r io.Reader, policy ErrorPolicy,
	parse func(lineNo int, line []byte, st *parseState) (R, error)) ([]R, []Quarantined, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	st := newParseState()
	var recs []R
	var quar []Quarantined
	line, lines := 0, 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		lines++
		rec, err := parse(line, b, st)
		if err == nil {
			recs = append(recs, rec)
			continue
		}
		if !policy.Quarantine {
			return recs, quar, err
		}
		q := Quarantined{Line: line, Text: string(b), Err: err}
		quar = append(quar, q)
		if policy.Budget.Exceeded(len(quar), lines) {
			return recs, quar, &BudgetError{Quarantined: len(quar), Lines: lines, Last: q}
		}
	}
	return recs, quar, sc.Err()
}

// RefScanDNS is the serial reference over the DNS format, for the
// external test package.
func RefScanDNS(r io.Reader, policy ErrorPolicy) ([]DNSRecord, []Quarantined, error) {
	return refScan(r, policy, parseDNSLineBytes)
}

// RefScanConns is RefScanDNS for connection summaries.
func RefScanConns(r io.Reader, policy ErrorPolicy) ([]ConnRecord, []Quarantined, error) {
	return refScan(r, policy, parseConnLineBytes)
}
