package eqsql

import (
	"fmt"
	"strconv"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/unify"
)

// Schema supplies column names for database tables so that positional atoms
// can be built from named-column SQL.
type Schema interface {
	// Columns returns the ordered column names of a table, or an error if
	// the table is unknown.
	Columns(table string) ([]string, error)
}

// DBSchema adapts a memdb database as a Schema.
type DBSchema struct{ DB *memdb.DB }

// Columns implements Schema.
func (s DBSchema) Columns(table string) ([]string, error) {
	t := s.DB.Table(table)
	if t == nil {
		return nil, fmt.Errorf("eqsql: unknown table %s", table)
	}
	return t.Columns(), nil
}

// MapSchema is a Schema backed by a literal map; useful in tests and for
// declaring ANSWER relation layouts.
type MapSchema map[string][]string

// Columns implements Schema.
func (m MapSchema) Columns(table string) ([]string, error) {
	cols, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("eqsql: unknown table %s", table)
	}
	return cols, nil
}

// AggConstraint is a translated Section 6 aggregation condition: the count
// of coordinated answer tuples matching AnswerAtoms (joined with BodyAtoms
// over database relations) must satisfy `count Op Bound`.
type AggConstraint struct {
	AnswerAtoms []ir.Atom
	BodyAtoms   []ir.Atom
	Op          string
	Bound       int
}

// Translated bundles a translation result: the core IR query plus any
// extension constraints that the core algorithm does not interpret.
type Translated struct {
	Query      *ir.Query
	Aggregates []AggConstraint
}

// Options tunes translation.
type Options struct {
	// AnswerSchemas maps ANSWER relation names to their column lists.
	// Required only when aggregation subqueries reference answer columns
	// by name.
	AnswerSchemas map[string][]string
	// AllowExtensions permits CHOOSE k (k > 1) and aggregation conditions;
	// when false those constructs are rejected, matching the core language
	// of Sections 2–4.
	AllowExtensions bool
}

// Translate converts a parsed statement into the intermediate
// representation, resolving column names through schema.
func Translate(id ir.QueryID, stmt *SelectStmt, schema Schema, opt Options) (*Translated, error) {
	tr := &translator{
		schema: schema,
		opt:    opt,
		u:      unify.New(),
		outer:  make(map[string]ir.Term),
	}
	return tr.run(id, stmt)
}

// Parse parses and translates in one step.
func Parse(id ir.QueryID, src string, schema Schema, opt Options) (*Translated, error) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	return Translate(id, stmt, schema, opt)
}

type translator struct {
	schema  Schema
	opt     Options
	u       *unify.Unifier // accumulated equality constraints
	outer   map[string]ir.Term
	fresh   int
	body    []ir.Atom
	posts   []ir.Atom
	aggs    []AggConstraint
	errText string
}

// freshVar names a new variable "_<hint>.<counter>". The counter follows
// the last '.', so distinct (hint, counter) pairs never share a name
// (without the separator, _u+13 and _u1+3 did), and no bare identifier of
// the statement contains a '.', so neither can an outer-scope variable.
func (tr *translator) freshVar(hint string) ir.Term {
	tr.fresh++
	return ir.Var("_" + hint + "." + strconv.Itoa(tr.fresh))
}

// outerVar returns the shared variable for a bare identifier at the outer
// scope, creating it on first use.
func (tr *translator) outerVar(name string) ir.Term {
	if v, ok := tr.outer[name]; ok {
		return v
	}
	v := ir.Var(name)
	tr.outer[name] = v
	return v
}

func (tr *translator) run(id ir.QueryID, stmt *SelectStmt) (*Translated, error) {
	if stmt.Choose != 1 && !tr.opt.AllowExtensions {
		return nil, fmt.Errorf("eqsql: CHOOSE %d requires the extensions option (core language fixes CHOOSE 1)", stmt.Choose)
	}
	if len(stmt.Into) == 0 {
		return nil, fmt.Errorf("eqsql: statement has no INTO ANSWER clause")
	}

	// Resolve SELECT items at the outer scope.
	headArgs := make([]ir.Term, len(stmt.Items))
	for i, e := range stmt.Items {
		t, err := tr.resolveOuter(e)
		if err != nil {
			return nil, err
		}
		headArgs[i] = t
	}
	var heads []ir.Atom
	for _, tbl := range stmt.Into {
		heads = append(heads, ir.NewAtom(tbl, append([]ir.Term(nil), headArgs...)...))
	}

	for _, c := range stmt.Where {
		if err := tr.condition(c); err != nil {
			return nil, err
		}
	}

	// Apply accumulated equalities to every atom.
	sub := tr.u.Substitution()
	apply := func(atoms []ir.Atom) []ir.Atom {
		out := make([]ir.Atom, len(atoms))
		for i, a := range atoms {
			out[i] = a.Apply(sub)
		}
		return out
	}
	q := &ir.Query{
		ID:     id,
		Heads:  apply(heads),
		Posts:  apply(tr.posts),
		Body:   apply(tr.body),
		Choose: stmt.Choose,
	}
	for i := range tr.aggs {
		tr.aggs[i].AnswerAtoms = apply(tr.aggs[i].AnswerAtoms)
		tr.aggs[i].BodyAtoms = apply(tr.aggs[i].BodyAtoms)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Translated{Query: q, Aggregates: tr.aggs}, nil
}

// resolveOuter maps an expression at the outer scope: literals become
// constants, bare identifiers become shared outer variables. Qualified
// references are invalid outside a subquery.
func (tr *translator) resolveOuter(e Expr) (ir.Term, error) {
	if e.IsLit {
		return ir.Const(e.Lit), nil
	}
	if e.Qualifier != "" {
		return ir.Term{}, fmt.Errorf("eqsql: qualified reference %s is only valid inside a subquery", e)
	}
	return tr.outerVar(e.Name), nil
}

func (tr *translator) condition(c Condition) error {
	switch c := c.(type) {
	case *InAnswer:
		args := make([]ir.Term, len(c.Tuple))
		for i, e := range c.Tuple {
			t, err := tr.resolveOuter(e)
			if err != nil {
				return err
			}
			args[i] = t
		}
		tr.posts = append(tr.posts, ir.NewAtom(c.Table, args...))
		return nil
	case *InSubquery:
		left, err := tr.resolveOuter(c.Left)
		if err != nil {
			return err
		}
		colVar, atoms, err := tr.instantiateSubquery(c.Sub)
		if err != nil {
			return err
		}
		tr.body = append(tr.body, atoms...)
		if _, err := tr.u.Union(left, colVar); err != nil {
			return fmt.Errorf("eqsql: contradictory constraints on %s: %w", c.Left, err)
		}
		return nil
	case *Compare:
		if c.Op != "=" {
			return fmt.Errorf("eqsql: comparison operator %q is not part of the core language (only =)", c.Op)
		}
		l, err := tr.resolveOuter(c.Left)
		if err != nil {
			return err
		}
		r, err := tr.resolveOuter(c.Right)
		if err != nil {
			return err
		}
		if _, err := tr.u.Union(l, r); err != nil {
			return fmt.Errorf("eqsql: contradictory equality %s = %s: %w", c.Left, c.Right, err)
		}
		return nil
	case *AggCompare:
		if !tr.opt.AllowExtensions {
			return fmt.Errorf("eqsql: aggregation conditions require the extensions option (Section 6)")
		}
		return tr.aggregation(c)
	default:
		return fmt.Errorf("eqsql: unsupported condition %T", c)
	}
}

// instantiateSubquery builds body atoms for the subquery's FROM list with
// fresh variables, applies its WHERE conditions, and returns the variable of
// the selected column.
func (tr *translator) instantiateSubquery(sub *Subquery) (ir.Term, []ir.Atom, error) {
	env, atoms, err := tr.instantiateFrom(sub.From, false, nil)
	if err != nil {
		return ir.Term{}, nil, err
	}
	for _, c := range sub.Where {
		cmp, ok := c.(*Compare)
		if !ok {
			return ir.Term{}, nil, fmt.Errorf("eqsql: subquery WHERE supports only comparisons, got %T", c)
		}
		if cmp.Op != "=" {
			return ir.Term{}, nil, fmt.Errorf("eqsql: subquery comparison %q unsupported (only =)", cmp.Op)
		}
		l, err := tr.resolveIn(env, cmp.Left)
		if err != nil {
			return ir.Term{}, nil, err
		}
		r, err := tr.resolveIn(env, cmp.Right)
		if err != nil {
			return ir.Term{}, nil, err
		}
		if _, err := tr.u.Union(l, r); err != nil {
			return ir.Term{}, nil, fmt.Errorf("eqsql: contradictory subquery condition %s = %s: %w", cmp.Left, cmp.Right, err)
		}
	}
	colVar, err := tr.resolveIn(env, sub.Col)
	if err != nil {
		return ir.Term{}, nil, err
	}
	return colVar, atoms, nil
}

// colEnv maps qualified ("F.fno") and unqualified ("fno") column names to
// their variables within one FROM scope. An unqualified name occurring in
// several FROM items collects every candidate variable; resolveIn unifies
// them, matching the paper's own usage (`SELECT fno FROM Flights F,
// Airlines A WHERE … F.fno = A.fno` selects the shared column without
// qualification).
type colEnv struct {
	qualified   map[string]ir.Term
	unqualified map[string][]ir.Term
}

// instantiateFrom creates one atom per FROM item with fresh variables.
// answerOK allows ANSWER items, which consult answerSchemas instead of the
// database schema; their atoms are returned separately via the callback
// answer slice.
func (tr *translator) instantiateFrom(items []FromItem, answerOK bool, answerAtoms *[]ir.Atom) (*colEnv, []ir.Atom, error) {
	env := &colEnv{
		qualified:   make(map[string]ir.Term),
		unqualified: make(map[string][]ir.Term),
	}
	var atoms []ir.Atom
	for _, item := range items {
		var cols []string
		var err error
		if item.IsAnswer {
			if !answerOK {
				return nil, nil, fmt.Errorf("eqsql: ANSWER relation %s not allowed here", item.Table)
			}
			var ok bool
			cols, ok = tr.opt.AnswerSchemas[item.Table]
			if !ok {
				return nil, nil, fmt.Errorf("eqsql: no declared schema for ANSWER relation %s", item.Table)
			}
		} else {
			cols, err = tr.schema.Columns(item.Table)
			if err != nil {
				return nil, nil, err
			}
		}
		args := make([]ir.Term, len(cols))
		for i, col := range cols {
			v := tr.freshVar(col)
			args[i] = v
			env.qualified[item.ref()+"."+col] = v
			env.unqualified[col] = append(env.unqualified[col], v)
		}
		atom := ir.NewAtom(item.Table, args...)
		if item.IsAnswer && answerAtoms != nil {
			*answerAtoms = append(*answerAtoms, atom)
		} else {
			atoms = append(atoms, atom)
		}
	}
	return env, atoms, nil
}

// resolveIn maps an expression within a subquery scope; unqualified names
// try the FROM columns first and fall back to the outer scope (correlated
// references like the paper's `party_id = A.pid`).
func (tr *translator) resolveIn(env *colEnv, e Expr) (ir.Term, error) {
	if e.IsLit {
		return ir.Const(e.Lit), nil
	}
	if e.Qualifier != "" {
		v, ok := env.qualified[e.Qualifier+"."+e.Name]
		if !ok {
			return ir.Term{}, fmt.Errorf("eqsql: unknown column reference %s", e)
		}
		return v, nil
	}
	if vs, ok := env.unqualified[e.Name]; ok {
		// A name shared by several FROM items denotes the same value in
		// every occurrence: unify all candidates (implicit natural join on
		// the referenced column, as the paper's Jerry query relies on).
		for _, v := range vs[1:] {
			if _, err := tr.u.Union(vs[0], v); err != nil {
				return ir.Term{}, fmt.Errorf("eqsql: contradictory shared column %s: %w", e.Name, err)
			}
		}
		return vs[0], nil
	}
	// Correlated reference to the outer scope.
	return tr.outerVar(e.Name), nil
}

func (tr *translator) aggregation(c *AggCompare) error {
	bound, err := strconv.Atoi(c.Bound)
	if err != nil {
		return fmt.Errorf("eqsql: invalid aggregation bound %q", c.Bound)
	}
	var answerAtoms []ir.Atom
	env, bodyAtoms, err := tr.instantiateFrom(c.Sub.From, true, &answerAtoms)
	if err != nil {
		return err
	}
	if len(answerAtoms) == 0 {
		return fmt.Errorf("eqsql: aggregation subquery must reference at least one ANSWER relation")
	}
	for _, cond := range c.Sub.Where {
		cmp, ok := cond.(*Compare)
		if !ok || cmp.Op != "=" {
			return fmt.Errorf("eqsql: aggregation WHERE supports only equality comparisons")
		}
		l, err := tr.resolveIn(env, cmp.Left)
		if err != nil {
			return err
		}
		r, err := tr.resolveIn(env, cmp.Right)
		if err != nil {
			return err
		}
		if _, err := tr.u.Union(l, r); err != nil {
			return fmt.Errorf("eqsql: contradictory aggregation condition: %w", err)
		}
	}
	tr.aggs = append(tr.aggs, AggConstraint{
		AnswerAtoms: answerAtoms,
		BodyAtoms:   bodyAtoms,
		Op:          c.Op,
		Bound:       bound,
	})
	return nil
}
