package memdb

import (
	"fmt"

	"entangle/internal/ir"
)

// This file is the reference evaluator: the map-backed, string-comparing
// backtracking join the compiled plans replaced, kept in test code as the
// executable specification of EvalConjunctive. The equivalence tests drive
// both over the same workloads and random streams and require identical
// valuations and identical CHOOSE draws. It is deliberately independent of
// the storage layout: it materialises the tables it touches as rows of
// strings and never sees a value ID or an index.

// legacyTable is one table as the reference evaluator sees it.
type legacyTable struct {
	rows [][]string
}

// lookupEq returns the row ids whose column equals value, ascending (the
// order an index's posting list has), scanned into scratch.
func (t *legacyTable) lookupEq(col int, value string, scratch []int) []int {
	out := scratch[:0]
	for id, row := range t.rows {
		if row[col] == value {
			out = append(out, id)
		}
	}
	return out
}

// EvalConjunctiveLegacy is the pre-compilation evaluator: equality
// normalisation, atom rewriting and a map-backed backtracking join, all per
// call. Candidate rows always come from a scan, which yields row ids in the
// same (insertion) order an index would.
func (db *DB) EvalConjunctiveLegacy(atoms []ir.Atom, eqs []ir.Equality, opt EvalOptions) ([]ir.Substitution, error) {
	norm, expand, err := normalizeEqualities(eqs)
	if err != nil {
		// Inconsistent ϕU: no valuations.
		return nil, nil
	}
	rewritten := make([]ir.Atom, len(atoms))
	for i, a := range atoms {
		rewritten[i] = a.Apply(norm)
	}

	db.mu.RLock()
	defer db.mu.RUnlock()

	// Resolve tables and validate arities up front.
	tabs := make([]*legacyTable, len(rewritten))
	byName := map[string]*legacyTable{}
	for i, a := range rewritten {
		t, ok := db.tables[a.Rel]
		if !ok {
			return nil, fmt.Errorf("memdb: query references unknown table %s", a.Rel)
		}
		if len(a.Args) != len(t.colNames) {
			return nil, fmt.Errorf("memdb: atom %s has arity %d but table has %d columns", a, len(a.Args), len(t.colNames))
		}
		if byName[a.Rel] == nil {
			byName[a.Rel] = &legacyTable{rows: db.rowsLocked(t)}
		}
		tabs[i] = byName[a.Rel]
	}

	st := &joinState{
		atoms:   rewritten,
		tables:  tabs,
		used:    make([]bool, len(rewritten)),
		bound:   make([]int, len(rewritten)),
		binding: make(ir.Substitution),
		opt:     opt,
	}
	// Pre-compute the per-atom bound-argument counts and the variable →
	// argument-occurrence postings that keep them current as bindings come
	// and go, so atom selection per search level is one O(atoms) max-scan
	// instead of re-counting every argument of every atom.
	st.varOccs = make(map[string][]int, len(rewritten)*2)
	for i, a := range rewritten {
		for _, t := range a.Args {
			if t.IsConst() {
				st.bound[i]++
			} else {
				st.varOccs[t.Value] = append(st.varOccs[t.Value], i)
			}
		}
	}
	st.resolved = make([][]ir.Term, len(rewritten))
	st.scan = make([][]int, len(rewritten))
	st.search()

	// Expand class representatives back to every original variable and
	// re-check ground equalities.
	var out []ir.Substitution
	for _, val := range st.results {
		full := make(ir.Substitution, len(val)+len(expand))
		for k, v := range val {
			full[k] = v
		}
		ok := true
		for v, rep := range expand {
			switch {
			case rep.IsConst():
				full[v] = rep
			default:
				bound, have := val[rep.Value]
				if !have {
					ok = false
					break
				}
				full[v] = bound
			}
		}
		if ok {
			out = append(out, full)
		}
	}
	return out, nil
}

// joinState carries the reference backtracking join. The per-level scratch —
// the resolved-argument buffers (one per recursion depth, reused across
// sibling rows), the unindexed-scan candidate buffers, and the binding trail
// (one shared stack unwound to a mark on backtrack) — is allocated once per
// evaluation, so the inner candidate loop itself allocates nothing.
type joinState struct {
	atoms    []ir.Atom
	tables   []*legacyTable
	used     []bool
	bound    []int            // per atom: count of argument positions currently bound
	varOccs  map[string][]int // variable → atom index per argument occurrence
	binding  ir.Substitution
	trail    []string    // bound-variable stack; unwound to a mark on backtrack
	resolved [][]ir.Term // per-depth resolved-argument scratch
	scan     [][]int     // per-depth unindexed-lookup scratch
	depth    int
	results  []ir.Substitution
	opt      EvalOptions
}

func (s *joinState) done() bool {
	return s.opt.Limit > 0 && len(s.results) >= s.opt.Limit
}

// bindVar records a fresh binding, pushing it on the trail and bumping the
// bound count of every atom the variable occurs in.
func (s *joinState) bindVar(v string, val ir.Term) {
	s.binding[v] = val
	s.trail = append(s.trail, v)
	for _, ai := range s.varOccs[v] {
		s.bound[ai]++
	}
}

// unwind pops trail bindings down to the mark.
func (s *joinState) unwind(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		v := s.trail[i]
		delete(s.binding, v)
		for _, ai := range s.varOccs[v] {
			s.bound[ai]--
		}
	}
	s.trail = s.trail[:mark]
}

// search picks the next atom (lowest planCost first — table size discounted
// per bound argument occurrence; ties by more bound occurrences, then by
// position), iterates its candidate rows, extends the binding and recurses.
// The rule is shared verbatim with the compile-time simulation in
// PlanBuilder.Finish: it reads only bound counts and table sizes (static
// under the read lock held for the whole evaluation), which is what lets
// compiled plans fix the identical order up front.
func (s *joinState) search() {
	if s.done() {
		return
	}
	// Atom selection reads the incrementally maintained bound counts — one
	// comparison per atom, not a rescan of every argument.
	next, bestCost, bound := -1, 0, -1
	for i := range s.atoms {
		if s.used[i] {
			continue
		}
		c := planCost(len(s.tables[i].rows), s.bound[i])
		if next < 0 || c < bestCost || (c == bestCost && s.bound[i] > bound) {
			next, bestCost, bound = i, c, s.bound[i]
		}
	}
	if next < 0 {
		// All atoms satisfied: record a copy of the binding.
		cp := make(ir.Substitution, len(s.binding))
		for k, v := range s.binding {
			cp[k] = v
		}
		s.results = append(s.results, cp)
		return
	}
	s.used[next] = true
	defer func() { s.used[next] = false }()

	a := s.atoms[next]
	t := s.tables[next]

	// Determine candidate rows: indexed lookup on the first bound position,
	// else full scan (iterated directly — no materialised id list).
	if s.resolved[s.depth] == nil {
		s.resolved[s.depth] = make([]ir.Term, 0, len(a.Args))
	}
	resolved := s.resolved[s.depth][:0]
	firstBound := -1
	for i, arg := range a.Args {
		switch {
		case arg.IsConst():
			resolved = append(resolved, arg)
		default:
			if v, ok := s.binding[arg.Value]; ok {
				resolved = append(resolved, v)
			} else {
				resolved = append(resolved, arg)
				continue
			}
		}
		if firstBound < 0 {
			firstBound = i
		}
	}
	s.resolved[s.depth] = resolved // keep grown capacity for reuse

	var candidates []int
	nCand := 0
	scanAll := firstBound < 0
	if !scanAll {
		candidates = t.lookupEq(firstBound, resolved[firstBound].Value, s.scan[s.depth])
		s.scan[s.depth] = candidates
		nCand = len(candidates)
	} else {
		nCand = len(t.rows)
	}
	// Randomised start offset implements CHOOSE-at-random cheaply without
	// copying the candidate list.
	offset := 0
	if s.opt.Rand != nil && nCand > 1 {
		offset = s.opt.Rand.Intn(nCand)
	}
	for i := 0; i < nCand; i++ {
		if s.done() {
			return
		}
		ri := (i + offset) % nCand
		if !scanAll {
			ri = candidates[ri]
		}
		row := t.rows[ri]
		// Match row against resolved args, recording new bindings on the
		// trail.
		mark := len(s.trail)
		ok := true
		for pos, term := range resolved {
			switch {
			case term.IsConst():
				if row[pos] != term.Value {
					ok = false
				}
			default:
				if v, boundNow := s.binding[term.Value]; boundNow {
					if v.Value != row[pos] {
						ok = false
					}
				} else {
					s.bindVar(term.Value, ir.Const(row[pos]))
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			s.depth++
			s.search()
			s.depth--
		}
		s.unwind(mark)
	}
}
