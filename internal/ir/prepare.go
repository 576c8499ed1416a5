package ir

import "fmt"

// Placeholder support for statement templates (eqsql.ShapeCache lifts a
// statement's literals to placeholders). A placeholder is a constant
// term of the form $N (a dollar sign followed by decimal digits, 1-based):
// in the IR text syntax it must be written quoted ('$1'), since $ is not an
// identifier rune; the SQL front end passes it through like any literal. A
// query template's placeholders must cover a contiguous range $1..$K — gaps
// mean a binding the template never uses, which is almost always a typo.
//
// Placeholders are pure pre-submission syntax: binding replaces them with
// ordinary constants before the query enters the engine, so matching,
// safety, and evaluation never see them.

// placeholderIndex reports whether the constant value names a placeholder,
// returning its 1-based index. Only $ followed by one or more digits
// qualifies ("$" alone, "$x", or "$1b" are ordinary constants); a leading
// zero is rejected so every index has one spelling.
func placeholderIndex(v string) (int, bool) {
	if len(v) < 2 || v[0] != '$' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(v); i++ {
		c := v[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 { // implausible as a parameter count; treat as a constant
			return 0, false
		}
	}
	if v[1] == '0' {
		return 0, false
	}
	return n, true
}

// PlaceholderCount scans the query template and returns K, the number of
// distinct placeholders $1..$K it mentions. It errors if the placeholders do
// not form a contiguous 1-based range (e.g. $1 and $3 with no $2). A query
// with no placeholders returns 0.
func (q *Query) PlaceholderCount() (int, error) {
	max := 0
	var seenBuf [16]bool
	seen := seenBuf[:]
	for _, group := range [3][]Atom{q.Heads, q.Posts, q.Body} {
		for _, a := range group {
			for _, t := range a.Args {
				if t.Kind != KindConst {
					continue
				}
				n, ok := placeholderIndex(t.Value)
				if !ok {
					continue
				}
				for len(seen) < n {
					seen = append(seen, false)
				}
				seen[n-1] = true
				if n > max {
					max = n
				}
			}
		}
	}
	for i := 0; i < max; i++ {
		if !seen[i] {
			return 0, fmt.Errorf("query %d: placeholder $%d is missing (template mentions $%d)", q.ID, i+1, max)
		}
	}
	return max, nil
}

// BindPlaceholders returns a deep copy of the query with every placeholder
// $N replaced by the constant vals[N-1]. len(vals) must equal the template's
// PlaceholderCount. The receiver is not modified.
func (q *Query) BindPlaceholders(vals []string) (*Query, error) {
	want, err := q.PlaceholderCount()
	if err != nil {
		return nil, err
	}
	if len(vals) != want {
		return nil, fmt.Errorf("query %d: template takes %d bindings, got %d", q.ID, want, len(vals))
	}
	cp := q.Clone()
	if want == 0 {
		return cp, nil
	}
	for _, group := range [3][]Atom{cp.Heads, cp.Posts, cp.Body} {
		for _, a := range group {
			for i, t := range a.Args {
				if t.Kind != KindConst {
					continue
				}
				if n, ok := placeholderIndex(t.Value); ok {
					a.Args[i] = Const(vals[n-1])
				}
			}
		}
	}
	return cp, nil
}
