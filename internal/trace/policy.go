package trace

import (
	"errors"
	"fmt"
)

// Ingestion with quarantine. The slice readers (ReadDNS/ReadConns)
// abort an entire ingest on the first malformed line, which is the
// right contract for machine-written logs but fatal for real-world
// captures where one corrupt line in millions is routine. A
// ScannerSource or DirSource takes an ErrorPolicy: strict mode
// reproduces the readers' fail-fast behaviour exactly, quarantine mode
// diverts malformed lines — with their line number and cause — to a
// quarantine sink and keeps going until an error budget trips. Every
// path parses on the one chunked engine (chunked.go).

// ErrBudgetExceeded is matched (via errors.Is) by the error a reader
// or monitor reports when its quarantine budget trips.
var ErrBudgetExceeded = errors.New("error budget exceeded")

// ErrorBudget bounds how much malformed input a quarantining consumer
// tolerates before giving up. The zero value allows no errors at all;
// see UnlimitedBudget for the never-trips budget.
type ErrorBudget struct {
	// MaxErrors is the number of records that may be quarantined before
	// the budget trips. Zero allows none (the first malformed record
	// trips); negative means unlimited.
	MaxErrors int
	// MaxErrorRate trips the budget when quarantined/processed exceeds
	// this fraction. Zero disables the rate check. The rate is checked
	// each time a record is quarantined, but only once RateMinLines
	// records have been seen — otherwise a corrupt head would trip a
	// rate budget the clean tail of the input would have satisfied.
	MaxErrorRate float64
	// RateMinLines is the minimum number of processed records before
	// MaxErrorRate is enforced. Zero means the default (100); negative
	// enforces the rate from the first record.
	RateMinLines int
}

// defaultRateMinLines is the grace period before a rate budget applies.
const defaultRateMinLines = 100

// UnlimitedBudget returns the budget that never trips.
func UnlimitedBudget() ErrorBudget { return ErrorBudget{MaxErrors: -1} }

// Exceeded reports whether quarantining `quarantined` records out of
// `processed` exhausts the budget.
func (b ErrorBudget) Exceeded(quarantined, processed int) bool {
	if b.MaxErrors >= 0 && quarantined > b.MaxErrors {
		return true
	}
	if b.MaxErrorRate > 0 {
		min := b.RateMinLines
		if min == 0 {
			min = defaultRateMinLines
		}
		if processed >= min && float64(quarantined)/float64(processed) > b.MaxErrorRate {
			return true
		}
	}
	return false
}

// Quarantined is one malformed line diverted instead of aborting the
// read: where it was, what it said, and why it failed to parse.
type Quarantined struct {
	// Line is the 1-based physical line number in the input.
	Line int
	// Text is the raw line.
	Text string
	// Err is the parse failure.
	Err error
}

// ErrorPolicy decides what a reader does with malformed lines.
type ErrorPolicy struct {
	// Quarantine diverts malformed lines instead of aborting the read.
	// The zero value (strict) fails on the first malformed line with
	// exactly the error ReadDNS/ReadConns would have returned.
	Quarantine bool
	// Budget bounds quarantining; ignored in strict mode. Note that the
	// zero budget allows no errors — use QuarantineAll or
	// QuarantineBudget to build a policy with intent.
	Budget ErrorBudget
	// Sink, when non-nil, receives each quarantined line as it is
	// diverted, in input order, on one goroutine at a time. Nothing else
	// keeps quarantined lines: with a nil Sink they are only counted
	// against the budget.
	Sink func(Quarantined)
}

// Strict returns the fail-fast policy (the zero ErrorPolicy).
func Strict() ErrorPolicy { return ErrorPolicy{} }

// QuarantineAll returns the policy that quarantines every malformed
// line with no budget.
func QuarantineAll() ErrorPolicy {
	return ErrorPolicy{Quarantine: true, Budget: UnlimitedBudget()}
}

// QuarantineBudget returns a quarantining policy tripping after
// maxErrors quarantined records (negative = unlimited) or when the
// error rate exceeds maxRate (0 = no rate check).
func QuarantineBudget(maxErrors int, maxRate float64) ErrorPolicy {
	return ErrorPolicy{Quarantine: true, Budget: ErrorBudget{MaxErrors: maxErrors, MaxErrorRate: maxRate}}
}

// BudgetError is the error a reader reports when its quarantine
// budget trips. errors.Is(err, ErrBudgetExceeded) matches it;
// errors.Unwrap yields the parse error that tripped it.
type BudgetError struct {
	// Quarantined counts quarantined records including the one that
	// tripped the budget; Lines counts data lines processed.
	Quarantined int
	Lines       int
	// Last is the record whose quarantining tripped the budget.
	Last Quarantined
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("trace: quarantine budget exceeded: %d of %d lines quarantined (line %d: %v)",
		e.Quarantined, e.Lines, e.Last.Line, e.Last.Err)
}

// Unwrap returns the parse error that tripped the budget.
func (e *BudgetError) Unwrap() error { return e.Last.Err }

// Is matches ErrBudgetExceeded.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }
