package memdb

import (
	"fmt"

	"entangle/internal/ir"
)

// This file implements residual plan filters: predicates attached to a
// compiled Plan and evaluated inside ExecPlan's backtracking join at the
// earliest level where every binding slot they read is bound. They exist
// for the Section 6 extension constraints (internal/ext): instead of
// materialising up to MaxCandidates valuations and post-filtering, the
// constraint is pushed below the join, so a failing candidate prunes its
// entire subtree before the remaining atoms are ever probed — the
// predicate-pushdown win the related janus-datalog work measures at
// 1.58–2.78×.
//
// Filters see the join through a FilterCtx: the bound slot values of the
// current partial valuation, plus a conjunctive Count evaluator for
// aggregation subqueries. ExecPlan holds the database read lock for the
// whole join, so FilterCtx.Count reads tables directly under that lock —
// a filter must NOT call back into locking DB methods (db.Count,
// db.EvalConjunctive, ...): Go's RWMutex read lock is not re-entrant, and
// a queued writer between the two acquisitions deadlocks.

// Filter is a residual predicate evaluated during plan execution. Holds is
// called with the execution's FilterCtx each time the filter's scheduled
// join level binds a candidate row; returning false prunes that subtree,
// an error aborts the execution and is returned from ExecPlan.
type Filter interface {
	Holds(fc *FilterCtx) (bool, error)
}

// planFilter is one attached filter with its scheduled join level: the
// filter runs after the atom at plan position `after` has matched (all its
// slots bound). after == -1 schedules the filter once, before the join.
type planFilter struct {
	f     Filter
	after int
}

// AttachFilter attaches a residual filter to the plan, scheduled at the
// earliest join level where every slot in slots is bound. Slots not bound
// by any atom schedule the filter at the final level (their values read as
// "" — callers should only pass slots the plan binds). Filtered plans must
// not be shared across executions that need different filters, and are
// never cached (see PlanCache.Add). Not safe to call concurrently with
// executions of the same plan.
func (p *Plan) AttachFilter(f Filter, slots []int32) {
	after := -1
	if len(slots) > 0 {
		need := make(map[int32]bool, len(slots))
		for _, s := range slots {
			need[s] = true
		}
		after = len(p.atoms) - 1
		remaining := len(need)
	scan:
		for i := range p.atoms {
			for _, a := range p.atoms[i].args {
				if a.slot >= 0 && need[a.slot] {
					need[a.slot] = false
					remaining--
					if remaining == 0 {
						after = i
						break scan
					}
				}
			}
		}
	}
	p.filters = append(p.filters, planFilter{f: f, after: after})
}

// Filtered reports whether the plan carries residual filters. Filtered
// plans are shape-specific (their filters close over per-query state) and
// are refused by the plan cache.
func (p *Plan) Filtered() bool { return len(p.filters) > 0 }

// OutSlot reports how the named output variable of a CompilePlan-produced
// plan is materialised: a binding slot (slot >= 0), or a constant folded in
// by equality normalisation (slot < 0, value in cval). ok is false when the
// plan has no such output.
func (p *Plan) OutSlot(name string) (slot int32, cval string, ok bool) {
	for i := range p.outs {
		if p.outs[i].name == name {
			return p.outs[i].slot, p.outs[i].cval, true
		}
	}
	return 0, "", false
}

// ResultSubstitution materialises result row i of a CompilePlan-produced
// plan as a variable → constant substitution, reproducing EvalConjunctive's
// output contract (normalised-away equality-class members expanded back).
func (p *Plan) ResultSubstitution(st *ExecState, i int) ir.Substitution {
	row := st.Row(i)
	full := make(ir.Substitution, len(p.outs))
	for _, o := range p.outs {
		if o.slot < 0 {
			full[o.name] = ir.Const(o.cval)
		} else {
			full[o.name] = ir.Const(row[o.slot])
		}
	}
	return full
}

// FilterCtx is a filter's window into the executing join: the current
// partial valuation (by binding slot) and a conjunctive count evaluator
// running under the execution's already-held read lock. A FilterCtx is
// only valid inside Filter.Holds; it must not be retained.
type FilterCtx struct {
	db *DB
	st *ExecState

	// count-join scratch, reused across Holds calls within one execution
	ctabs []*Table
	cargs []countArg // every atom's arguments, flattened in atom order
	cends []int      // atom i's arguments are cargs[cends[i-1]:cends[i]]
	scan  [][]uint32 // per-depth unindexed-lookup scratch
	vars  []string   // counting-join variable names; position = local slot
	binds []uint32   // value ID per local slot
	bound []bool
	trail []int32
}

// countArg is one argument of a counting-join atom: a local variable slot,
// or (slot < 0) a constant's value ID.
type countArg struct {
	slot int32
	id   uint32
}

// Slot returns the value bound to a binding slot of the executing plan, or
// "" when the slot is not (yet) bound. Filters scheduled via AttachFilter
// only run once their declared slots are bound.
func (fc *FilterCtx) Slot(s int32) string {
	if int(s) >= len(fc.st.binds) || !fc.st.bound[s] {
		return ""
	}
	return fc.db.dict.strs[fc.st.binds[s]]
}

// Count returns the number of valuations of the conjunction — the same
// figure db.Count reports (complete backtracking assignments; ground atoms
// contribute their row-match multiplicity) — evaluated lock-free under the
// read lock the surrounding ExecPlan already holds. Constants resolve to
// value IDs once per call (unknown ones match nothing) and the join binds
// IDs. Indexes are used when present but never built (building needs the
// write lock); absent an index the scan fallback reuses per-depth scratch,
// so repeated Holds calls allocate only on growth.
func (fc *FilterCtx) Count(atoms []ir.Atom) (int, error) {
	n := len(atoms)
	if n == 0 {
		return 1, nil
	}
	if cap(fc.ctabs) < n {
		fc.ctabs = make([]*Table, n)
		fc.scan = make([][]uint32, n)
	}
	tabs := fc.ctabs[:n]
	fc.cargs, fc.cends, fc.vars = fc.cargs[:0], fc.cends[:0], fc.vars[:0]
	for i, a := range atoms {
		t, ok := fc.db.tables[a.Rel]
		if !ok {
			return 0, fmt.Errorf("memdb: query references unknown table %s", a.Rel)
		}
		if len(a.Args) != len(t.colNames) {
			return 0, fmt.Errorf("memdb: atom %s has arity %d but table has %d columns", a, len(a.Args), len(t.colNames))
		}
		tabs[i] = t
		for _, arg := range a.Args {
			if arg.IsConst() {
				fc.cargs = append(fc.cargs, countArg{slot: -1, id: fc.db.dict.lookup(arg.Value)})
			} else {
				fc.cargs = append(fc.cargs, countArg{slot: fc.varSlot(arg.Value)})
			}
		}
		fc.cends = append(fc.cends, len(fc.cargs))
	}
	if cap(fc.binds) < len(fc.vars) {
		fc.binds = make([]uint32, len(fc.vars))
		fc.bound = make([]bool, len(fc.vars))
	}
	fc.binds, fc.bound = fc.binds[:len(fc.vars)], fc.bound[:len(fc.vars)]
	for i := range fc.bound {
		fc.bound[i] = false
	}
	return fc.countRec(tabs, 0), nil
}

// varSlot returns the local slot of a counting-join variable, assigning the
// next one on first sight. Constraint conjunctions carry a handful of
// variables, so a linear scan beats a map and allocates nothing.
func (fc *FilterCtx) varSlot(name string) int32 {
	for i, v := range fc.vars {
		if v == name {
			return int32(i)
		}
	}
	fc.vars = append(fc.vars, name)
	return int32(len(fc.vars) - 1)
}

// countRec is the counting join: atom order as given (the count of complete
// assignments is join-order invariant), candidates from lookupEq on the
// first bound position (index when present, reusable scan otherwise).
func (fc *FilterCtx) countRec(tabs []*Table, depth int) int {
	if depth == len(tabs) {
		return 1
	}
	t := tabs[depth]
	lo := 0
	if depth > 0 {
		lo = fc.cends[depth-1]
	}
	args := fc.cargs[lo:fc.cends[depth]]

	var candidates []uint32
	nCand := t.Len()
	for pos, a := range args {
		if a.slot >= 0 && !fc.bound[a.slot] {
			continue
		}
		id := a.id
		if a.slot >= 0 {
			id = fc.binds[a.slot]
		}
		candidates, fc.scan[depth] = t.lookupEq(pos, id, fc.scan[depth])
		if candidates == nil {
			return 0
		}
		nCand = len(candidates)
		break
	}
	total := 0
	for i := 0; i < nCand; i++ {
		ri := i
		if candidates != nil {
			ri = int(candidates[i])
		}
		mark := len(fc.trail)
		ok := true
		for pos, a := range args {
			v := t.cols[pos][ri]
			switch {
			case a.slot < 0:
				ok = v == a.id
			case fc.bound[a.slot]:
				ok = v == fc.binds[a.slot]
			default:
				fc.binds[a.slot] = v
				fc.bound[a.slot] = true
				fc.trail = append(fc.trail, a.slot)
			}
			if !ok {
				break
			}
		}
		if ok {
			total += fc.countRec(tabs, depth+1)
		}
		for j := len(fc.trail) - 1; j >= mark; j-- {
			fc.bound[fc.trail[j]] = false
		}
		fc.trail = fc.trail[:mark]
	}
	return total
}
