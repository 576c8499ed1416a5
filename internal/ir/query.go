package ir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// QueryID identifies an entangled query within an evaluation batch. IDs are
// assigned by the caller (typically the engine) and must be unique within a
// batch.
type QueryID int64

// Query is an entangled query in the intermediate representation
// {C} H :- B (Section 2.2). Heads and Posts range over ANSWER relations;
// Body ranges over ordinary database relations. Choose is the number of
// answer tuples requested per head atom; the paper's CHOOSE 1 corresponds to
// Choose == 1 and is the only value used by the core algorithm (the CHOOSE k
// extension from Section 6 lives in internal/ext).
type Query struct {
	ID    QueryID
	Owner string // client or user that submitted the query (informational)

	Heads []Atom // H — the query's contribution to the ANSWER relations
	Posts []Atom // C — postconditions required of other queries' answers
	Body  []Atom // B — conditions over database relations; binds variables

	Choose int // number of coordinated answers requested; 1 in the core language
}

// NewQuery builds a query with CHOOSE 1 semantics.
func NewQuery(id QueryID, heads, posts, body []Atom) *Query {
	return &Query{ID: id, Heads: heads, Posts: posts, Body: body, Choose: 1}
}

// relArity pairs a relation name with an observed arity during validation.
type relArity struct {
	rel string
	n   int
}

// Validate checks the structural well-formedness rules of Section 2.2:
// at least one head atom, range restriction (every variable in H or C occurs
// in B), and non-empty relation names with consistent arities per relation
// within the query.
//
// Validate runs on the engine's submission hot path for every arrival, so
// the bookkeeping uses linear scans over stack scratch rather than maps:
// queries are small (a handful of atoms, fewer distinct relations and
// variables), where the scan beats hashing and allocates nothing.
func (q *Query) Validate() error {
	if len(q.Heads) == 0 {
		return fmt.Errorf("query %d: no head atoms", q.ID)
	}
	var arityBuf [12]relArity
	arities := arityBuf[:0]
	var err error
	if arities, err = q.checkArities(arities, q.Body, "body"); err != nil {
		return err
	}
	if arities, err = q.checkArities(arities, q.Heads, "head"); err != nil {
		return err
	}
	if _, err = q.checkArities(arities, q.Posts, "postcondition"); err != nil {
		return err
	}
	for _, group := range [2][]Atom{q.Heads, q.Posts} {
		for _, a := range group {
			for _, t := range a.Args {
				if t.IsVar() && !q.bodyBinds(t.Value) {
					return fmt.Errorf("query %d: variable %s in %s is not range-restricted (does not occur in the body)", q.ID, t.Value, a)
				}
			}
		}
	}
	return nil
}

// checkArities verifies non-empty relation names and per-relation arity
// consistency against (and extending) the accumulated scratch.
func (q *Query) checkArities(arities []relArity, atoms []Atom, where string) ([]relArity, error) {
	for _, a := range atoms {
		if a.Rel == "" {
			return arities, fmt.Errorf("query %d: empty relation name in %s", q.ID, where)
		}
		known := false
		for _, ra := range arities {
			if ra.rel == a.Rel {
				if ra.n != len(a.Args) {
					return arities, fmt.Errorf("query %d: relation %s used with arities %d and %d", q.ID, a.Rel, ra.n, len(a.Args))
				}
				known = true
				break
			}
		}
		if !known {
			arities = append(arities, relArity{rel: a.Rel, n: len(a.Args)})
		}
	}
	return arities, nil
}

// bodyBinds reports whether the variable occurs in the body.
func (q *Query) bodyBinds(v string) bool {
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar() && t.Value == v {
				return true
			}
		}
	}
	return false
}

// Vars returns the sorted set of variable names appearing anywhere in the
// query.
func (q *Query) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(atoms []Atom) {
		for _, a := range atoms {
			for _, t := range a.Args {
				if t.IsVar() && !seen[t.Value] {
					seen[t.Value] = true
					out = append(out, t.Value)
				}
			}
		}
	}
	add(q.Heads)
	add(q.Posts)
	add(q.Body)
	sort.Strings(out)
	return out
}

// Equal reports whether q and o are identical field for field: ID, Owner,
// Choose and the three atom lists term for term (a nil list equals an
// empty one).
func (q *Query) Equal(o *Query) bool {
	if q.ID != o.ID || q.Owner != o.Owner || q.Choose != o.Choose {
		return false
	}
	for i, group := range [3][]Atom{q.Heads, q.Posts, q.Body} {
		other := [3][]Atom{o.Heads, o.Posts, o.Body}[i]
		if len(group) != len(other) {
			return false
		}
		for j := range group {
			if !group[j].Equal(other[j]) {
				return false
			}
		}
	}
	return true
}

// PostCount returns the number of postcondition atoms (PCCOUNT in
// Section 4.1.1).
func (q *Query) PostCount() int { return len(q.Posts) }

// Clone returns a deep copy of the query. The copy's atom and argument
// slices are carved from two shared backing arrays (three-index sliced, so
// appending to one group can never alias a sibling), keeping the allocation
// count per clone constant rather than proportional to the atom count —
// Clone sits on the engine's per-arrival path.
func (q *Query) Clone() *Query {
	cp := &Query{ID: q.ID, Owner: q.Owner, Choose: q.Choose}
	nAtoms := len(q.Heads) + len(q.Posts) + len(q.Body)
	if nAtoms == 0 {
		return cp
	}
	nArgs := 0
	for _, group := range [3][]Atom{q.Heads, q.Posts, q.Body} {
		for _, a := range group {
			nArgs += len(a.Args)
		}
	}
	atoms := make([]Atom, 0, nAtoms)
	args := make([]Term, nArgs)
	ti := 0
	carve := func(src []Atom) []Atom {
		if src == nil {
			return nil
		}
		lo := len(atoms)
		for _, a := range src {
			dst := args[ti : ti+len(a.Args) : ti+len(a.Args)]
			copy(dst, a.Args)
			ti += len(a.Args)
			atoms = append(atoms, Atom{Rel: a.Rel, Args: dst})
		}
		return atoms[lo:len(atoms):len(atoms)]
	}
	cp.Heads = carve(q.Heads)
	cp.Posts = carve(q.Posts)
	cp.Body = carve(q.Body)
	return cp
}

// RenamedCopy returns a copy of the query with its ID set to id and every
// variable prefixed with "q<id>·". It fuses the engine's ID assignment and
// rename-apart into one copy: the clone is renamed in place instead of
// cloned a second time per atom.
func (q *Query) RenamedCopy(id QueryID) *Query {
	cp := q.Clone()
	cp.ID = id
	var pfxBuf [24]byte
	buf := append(pfxBuf[:0], 'q')
	buf = strconv.AppendInt(buf, int64(id), 10)
	buf = append(buf, "·"...)
	pfx := string(buf)
	// Repeated occurrences of the same variable are common (a join variable
	// appears in several body atoms); reuse the previous occurrence's
	// renamed string instead of concatenating again.
	lastOld, lastNew := "", ""
	for _, group := range [3][]Atom{cp.Heads, cp.Posts, cp.Body} {
		for _, a := range group {
			for i, t := range a.Args {
				if t.Kind != KindVar {
					continue
				}
				if t.Value != lastOld {
					lastOld, lastNew = t.Value, pfx+t.Value
				}
				a.Args[i].Value = lastNew
			}
		}
	}
	return cp
}

// RenameApart returns a copy of the query whose variables are prefixed with
// "q<ID>·", guaranteeing that no variable is shared between distinct queries
// in a batch. Unifier propagation (Section 4.1.3) requires this property.
func (q *Query) RenameApart() *Query { return q.RenamedCopy(q.ID) }

// Apply returns a copy of the query with the substitution applied to all
// three parts.
func (q *Query) Apply(s Substitution) *Query {
	cp := q.Clone()
	for i := range cp.Heads {
		cp.Heads[i] = cp.Heads[i].Apply(s)
	}
	for i := range cp.Posts {
		cp.Posts[i] = cp.Posts[i].Apply(s)
	}
	for i := range cp.Body {
		cp.Body[i] = cp.Body[i].Apply(s)
	}
	return cp
}

// String renders the query in the paper's IR syntax:
//
//	{C} H :- B
func (q *Query) String() string {
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString(FormatAtoms(q.Posts))
	b.WriteString("} ")
	b.WriteString(FormatAtoms(q.Heads))
	if len(q.Body) > 0 {
		b.WriteString(" :- ")
		b.WriteString(FormatAtoms(q.Body))
	}
	return b.String()
}

// Grounding is a query whose variables have been replaced by constants
// following a valuation (Section 2.3). Only the head and postcondition
// atoms are retained: "the bodies of the groundings are no longer needed
// and can be discarded".
type Grounding struct {
	Query *Query       // the originating query
	Val   Substitution // the valuation that produced this grounding
	Heads []Atom       // ground head atoms
	Posts []Atom       // ground postcondition atoms
}

// Ground applies the valuation to the query's heads and postconditions.
// It returns an error if the valuation leaves any variable unbound or binds
// a variable to a non-constant.
func (q *Query) Ground(val Substitution) (*Grounding, error) {
	g := &Grounding{Query: q, Val: val}
	for _, a := range q.Heads {
		ga := a.Apply(val)
		if !ga.IsGround() {
			return nil, fmt.Errorf("query %d: head %s not fully grounded by valuation", q.ID, a)
		}
		g.Heads = append(g.Heads, ga)
	}
	for _, a := range q.Posts {
		ga := a.Apply(val)
		if !ga.IsGround() {
			return nil, fmt.Errorf("query %d: postcondition %s not fully grounded by valuation", q.ID, a)
		}
		g.Posts = append(g.Posts, ga)
	}
	return g, nil
}

// String renders the grounding as {posts} heads.
func (g *Grounding) String() string {
	return "{" + FormatAtoms(g.Posts) + "} " + FormatAtoms(g.Heads)
}

// Answer is the result delivered for a single entangled query: one ground
// head tuple per ANSWER relation mentioned in the query head (Section 2.3:
// "evaluation is a process that returns ... a single row from the
// appropriate answer relation").
type Answer struct {
	QueryID QueryID
	Tuples  []Atom // fully ground copies of the query's head atoms
}

// String renders the answer tuples.
func (a Answer) String() string {
	return fmt.Sprintf("q%d ⇒ %s", a.QueryID, FormatAtoms(a.Tuples))
}

// CombinedQuery is the postcondition-free query q* constructed from a
// matched set of entangled queries (Section 4.2):
//
//	⋀ Hi :- ⋀ Bi ∧ ϕU
//
// Members lists the IDs of the constituent queries in submission order.
type CombinedQuery struct {
	Members []QueryID
	Heads   []Atom
	Body    []Atom
	Eq      []Equality // ϕU — equalities induced by the global unifier
}

// String renders the combined query including ϕU.
func (c *CombinedQuery) String() string {
	var b strings.Builder
	b.WriteString(FormatAtoms(c.Heads))
	b.WriteString(" :- ")
	b.WriteString(FormatAtoms(c.Body))
	for _, e := range c.Eq {
		b.WriteString(" ∧ ")
		b.WriteString(e.String())
	}
	return b.String()
}

// Vars returns the sorted set of variables appearing in the combined query.
func (c *CombinedQuery) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t Term) {
		if t.IsVar() && !seen[t.Value] {
			seen[t.Value] = true
			out = append(out, t.Value)
		}
	}
	for _, a := range c.Heads {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, a := range c.Body {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, e := range c.Eq {
		add(e.Left)
		add(e.Right)
	}
	sort.Strings(out)
	return out
}
