package memdb

import (
	"fmt"

	"entangle/internal/ir"
)

// EvalOptions controls conjunctive query evaluation.
type EvalOptions struct {
	// Limit bounds the number of valuations returned; 0 means no limit.
	// The combined queries of Section 4.2 use Limit 1 ("q* may be equipped
	// with a LIMIT 1 clause").
	Limit int
	// Rand, when non-nil, randomises the join's candidate iteration order so
	// that Limit-1 evaluation implements the CHOOSE 1 "chosen at random"
	// semantics of Section 2.1 without materialising every valuation.
	Rand Rng
}

// EvalConjunctive evaluates a conjunction of relational atoms with equality
// constraints against the database and returns the satisfying valuations
// (variable → constant substitutions). This is the evaluation target for
// combined queries: body atoms plus ϕU.
//
// The call is CompilePlan + ExecPlan: equality constraints fold into the
// compiled plan (constants propagated, variable classes collapsed onto
// shared binding slots), the join order and index-probe positions are fixed
// at compile time, and execution runs the backtracking join over
// slice-backed bindings. Returned valuations bind every variable of the
// original atoms (post-normalisation classes are expanded back to all
// members). Callers that evaluate repeatedly should compile once and use
// ExecPlan with a reused ExecState.
func (db *DB) EvalConjunctive(atoms []ir.Atom, eqs []ir.Equality, opt EvalOptions) ([]ir.Substitution, error) {
	p := db.CompilePlan(atoms, eqs)
	var st ExecState
	n, err := db.ExecPlan(p, &st, opt)
	if err != nil {
		return nil, err
	}
	var out []ir.Substitution
	for i := 0; i < n; i++ {
		out = append(out, p.ResultSubstitution(&st, i))
	}
	return out, nil
}

// Count returns the number of valuations of the conjunction, without a
// limit. Used by aggregation extensions and tests.
func (db *DB) Count(atoms []ir.Atom, eqs []ir.Equality) (int, error) {
	res, err := db.EvalConjunctive(atoms, eqs, EvalOptions{})
	if err != nil {
		return 0, err
	}
	return len(res), nil
}

// normalizeEqualities converts ϕU into (1) a substitution `norm` mapping
// each variable to its class representative (a constant when the class has
// one), applied to atoms before the join, and (2) an `expand` map from every
// substituted-away variable to its representative so result valuations can
// be completed. Returns an error when the equalities are inconsistent
// (two distinct constants equated).
func normalizeEqualities(eqs []ir.Equality) (norm ir.Substitution, expand map[string]ir.Term, err error) {
	parent := map[string]string{}
	constOf := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	addConst := func(root, c string) error {
		if prev, ok := constOf[root]; ok && prev != c {
			return fmt.Errorf("memdb: inconsistent equalities: %s vs %s", prev, c)
		}
		constOf[root] = c
		return nil
	}
	union := func(a, b string) string {
		ra, rb := find(a), find(b)
		if ra == rb {
			return ra
		}
		parent[rb] = ra
		if c, ok := constOf[rb]; ok {
			constOf[ra] = c // caller checked for clash
			delete(constOf, rb)
		}
		return ra
	}
	for _, e := range eqs {
		switch {
		case e.Left.IsConst() && e.Right.IsConst():
			if e.Left.Value != e.Right.Value {
				return nil, nil, fmt.Errorf("memdb: inconsistent equalities: %s = %s", e.Left, e.Right)
			}
		case e.Left.IsConst():
			r := find(e.Right.Value)
			if err := addConst(r, e.Left.Value); err != nil {
				return nil, nil, err
			}
		case e.Right.IsConst():
			r := find(e.Left.Value)
			if err := addConst(r, e.Right.Value); err != nil {
				return nil, nil, err
			}
		default:
			ca, hasA := constOf[find(e.Left.Value)]
			cb, hasB := constOf[find(e.Right.Value)]
			if hasA && hasB && ca != cb {
				return nil, nil, fmt.Errorf("memdb: inconsistent equalities: %s vs %s", ca, cb)
			}
			union(e.Left.Value, e.Right.Value)
		}
	}
	norm = make(ir.Substitution)
	expand = make(map[string]ir.Term)
	for v := range parent {
		root := find(v)
		if c, ok := constOf[root]; ok {
			norm[v] = ir.Const(c)
			expand[v] = ir.Const(c)
			continue
		}
		if v != root {
			norm[v] = ir.Var(root)
			expand[v] = ir.Var(root)
		}
	}
	return norm, expand, nil
}
