package engine

import (
	"fmt"

	"entangle/internal/ir"
)

// Stmt is a prepared entangled-query template: a validated query whose
// constant positions may name placeholders $1..$K (see ir.PlaceholderCount).
// Submit binds the placeholders and enqueues the resulting query, so an
// application issuing the same coordination pattern repeatedly — the same
// relations and variable sharing, different constants — parses and validates
// once and submits many times. Every such submission has the same plan-cache
// shape: with caching enabled the combined query compiles on the first
// closing arrival only, and repeats execute the cached plan.
//
// A Stmt is immutable after Prepare and safe for concurrent Submit calls.
type Stmt struct {
	e       *Engine
	q       *ir.Query
	nParams int
}

// Prepare validates the query template and returns a reusable prepared
// statement. The template is deep-copied; the caller keeps ownership of q.
// Placeholders must form a contiguous range $1..$K.
func (e *Engine) Prepare(q *ir.Query) (*Stmt, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n, err := q.PlaceholderCount()
	if err != nil {
		return nil, err
	}
	return &Stmt{e: e, q: q.Clone(), nParams: n}, nil
}

// PrepareSQL parses an entangled-SQL template against the engine's database
// schema and prepares it. Placeholders appear as quoted literals ('$1').
func (e *Engine) PrepareSQL(src string) (*Stmt, error) {
	q, err := e.ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return e.Prepare(q)
}

// NumParams returns the number of placeholder bindings Submit expects.
func (s *Stmt) NumParams() int { return s.nParams }

// Submit binds the template's placeholders to the given constants and
// enqueues the resulting query, returning its handle. len(bindings) must
// equal NumParams.
func (s *Stmt) Submit(bindings ...string) (*Handle, error) {
	return s.SubmitNotify(nil, bindings...)
}

// SubmitNotify is Submit with a result hook; see Engine.SubmitNotify.
func (s *Stmt) SubmitNotify(fn func(Result), bindings ...string) (*Handle, error) {
	if len(bindings) != s.nParams {
		return nil, fmt.Errorf("engine: prepared statement takes %d bindings, got %d", s.nParams, len(bindings))
	}
	q, err := s.q.BindPlaceholders(bindings)
	if err != nil {
		return nil, err
	}
	return s.e.SubmitNotify(q, fn)
}
