package entangle

import (
	"errors"
	"fmt"

	"entangle/internal/engine"
	"entangle/internal/ir"
)

// Sentinel errors of the public API, for use with errors.Is.
var (
	// ErrClosed is returned by submissions to a closed System.
	ErrClosed = errors.New("entangle: system closed")
	// ErrStale is wrapped by Result.Err when a query waited longer than the
	// staleness bound without acquiring all coordination partners, or when
	// the system shut down while the query was still pending.
	ErrStale = errors.New("entangle: query went stale before coordination completed")
	// ErrUnsafe is wrapped by Result.Err when the admission safety check
	// rejected the query (one of its postconditions would have two or more
	// unifying heads in the pending workload — Section 3.1.1 of the paper).
	ErrUnsafe = errors.New("entangle: query rejected by the safety check")
	// ErrRejected is wrapped by Result.Err when matching or evaluation
	// determined the query is permanently unanswerable (unifier clash, no
	// global unifier, or the combined query returned no rows).
	ErrRejected = errors.New("entangle: query cannot be answered")

	// ErrOverloaded is returned by Submit/SubmitSQL/SubmitIR/SubmitBatch
	// when the WithMaxPending cap would be exceeded: the
	// submission was shed before any durability or coordination work. It is
	// the engine's sentinel verbatim, so errors.Is matches the same failure
	// whether it surfaces here, through the server's reply code, or from a
	// remote client.
	ErrOverloaded = engine.ErrOverloaded
	// ErrWALPoisoned is returned (wrapped) by submissions on a durable
	// System whose write-ahead log saw an append/fsync failure: the engine
	// fails fast instead of acknowledging writes the log may have lost, and
	// a successful Checkpoint into a fresh epoch clears the state. The
	// engine's sentinel verbatim, like ErrOverloaded.
	ErrWALPoisoned = engine.ErrWALPoisoned
)

// ParseError is a syntax error from the entangled-SQL or IR-text parsers,
// carrying the byte offset where parsing failed. Recover it from any
// SubmitSQL / SubmitIR / ParseSQL / ParseIR error with errors.As:
//
//	if _, err := sys.SubmitSQL(ctx, src); err != nil {
//		var pe *entangle.ParseError
//		if errors.As(err, &pe) {
//			fmt.Printf("syntax error at byte %d: %s\n", pe.Offset, pe.Msg)
//		}
//	}
type ParseError = ir.ParseError

// QueryError is the typed error form of a non-answered Result, produced by
// Result.Err. It wraps the matching sentinel (ErrStale, ErrUnsafe,
// ErrRejected), so errors.Is works through it.
type QueryError struct {
	QueryID ir.QueryID
	Status  Status
	Detail  string
}

// Error renders the failure with its engine-assigned query ID.
func (e *QueryError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("entangle: query %d %s", e.QueryID, e.Status)
	}
	return fmt.Sprintf("entangle: query %d %s: %s", e.QueryID, e.Status, e.Detail)
}

// Unwrap maps the terminal status to its sentinel.
func (e *QueryError) Unwrap() error {
	switch e.Status {
	case StatusStale:
		return ErrStale
	case StatusUnsafe:
		return ErrUnsafe
	case StatusRejected:
		return ErrRejected
	default:
		return nil
	}
}
