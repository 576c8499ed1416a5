package memdb

import (
	"fmt"

	"entangle/internal/ir"
)

// This file implements compiled evaluation plans: the conjunctive-query
// evaluator split into a compile step (variables interned to dense slots,
// join order and index-probe positions fixed up front) and an
// allocation-free execute step over slice-backed bindings.
//
// The split exploits a property of the backtracking join's atom-selection
// rule (cheapest estimated scan first — table size discounted per bound
// argument occurrence, ties by more bound occurrences then position): it
// depends only on WHICH argument positions are constants or already-bound
// variables plus static table row counts — never on row values — because
// choosing an atom binds all of its variables before the next selection. The entire join order, and the
// argument position each atom will probe through a hash index, are
// therefore known at compile time. A Plan records that order; execution is
// a tight loop over int-indexed slots with a trail for backtracking,
// allocating nothing in steady state.
//
// Two compilers produce Plans. CompilePlan is the general, string-keyed
// entry used by EvalConjunctive (equality constraints folded in via
// normalizeEqualities). PlanBuilder is the caller-driven form for hot paths
// that already know each argument's class — the matcher feeds interned
// unifier roots straight into slots, skipping string machinery entirely.
//
// An argument can also be a parameter — a constant whose value is supplied
// per execution via ExecState.SetParams rather than baked into the plan.
// Parameters are what make plans shareable across queries of the same shape
// (the shape-keyed plan cache): a parameter behaves exactly like a constant for join ordering
// and index probing, only the value is late-bound.

// planArg describes one argument position of a compiled atom: a constant to
// match, a parameter (late-bound constant), or a binding slot to compare
// against / fill.
type planArg struct {
	slot int32 // ≥ 0 binding slot; -1 inline constant; ≤ -2 parameter index -slot-2
	cidx int32 // index into Plan.consts when slot == -1
}

// planAtom is one atom of a compiled plan, in execution order.
type planAtom struct {
	rel      string
	orig     ir.Atom   // original atom, for error rendering only
	args     []planArg // one descriptor per argument position
	probePos int       // argument position probed via hash index; -1 = full scan
	origIdx  int       // position in the pre-compilation atom list
}

// planOut materialises one entry of a result substitution (CompilePlan
// only; slot-consuming callers read execution rows directly).
type planOut struct {
	name string
	slot int32 // < 0: constant cval
	cval string
}

// Plan is a compiled conjunctive query. Plans are immutable after
// compilation and hold no DB references: tables are resolved (and the
// declared probe-position indexes built, if missing) at execution time —
// the compiling DB's row counts only informed the join-order choice.
// A Plan may be executed repeatedly and concurrently, each run with its own
// ExecState.
type Plan struct {
	atoms   []planAtom
	nSlots  int
	nParams int // parameter count; execution needs at least this many values
	// consts are the inline constants, kept as strings: a plan outlives any
	// one DB state, so each execution resolves them through the dictionary
	// (a constant unknown at compile time may have been inserted since).
	consts []string
	outs   []planOut
	// empty marks a plan that is statically unsatisfiable: inconsistent
	// equality constraints, or an equality class whose representative is
	// never bound by any atom (the reference evaluator filters every
	// valuation in that case; the compiled form skips the join entirely).
	// Execution still resolves and validates tables — unknown-table and
	// arity errors must not be masked by an unsatisfiable ϕU — except when
	// unchecked.
	empty bool
	// unchecked marks an empty plan whose atoms must NOT be validated at
	// execution: inconsistent equalities, where the reference evaluator
	// returns "no valuations" before ever resolving tables.
	unchecked bool
	// filters are residual predicates pushed below the join (filter.go),
	// each scheduled at the earliest level binding all its slots. A filtered
	// plan is query-specific and is refused by the plan cache.
	filters []planFilter
}

// NumProbes returns how many atoms the plan resolves through an index probe
// (the remainder are full scans). Exposed for tests and diagnostics: the
// executor builds indexes for exactly these positions, nothing else.
func (p *Plan) NumProbes() int {
	n := 0
	for i := range p.atoms {
		if p.atoms[i].probePos >= 0 {
			n++
		}
	}
	return n
}

// NumParams returns the plan's parameter count: how many values an
// execution must supply via ExecState.SetParams.
func (p *Plan) NumParams() int { return p.nParams }

// detach returns a deep copy of the plan that shares no storage with its
// builder, so it can outlive the builder's next Reset — a cached plan must
// not alias pooled builder scratch. The copy is carved from two backing
// arrays (atoms, args); outs (absent on builder-fed plans) is shared, as
// CompilePlan allocates it per plan already.
func (p *Plan) detach() *Plan {
	np := &Plan{nSlots: p.nSlots, nParams: p.nParams, outs: p.outs, empty: p.empty, unchecked: p.unchecked}
	np.filters = append([]planFilter(nil), p.filters...)
	np.consts = append([]string(nil), p.consts...)
	np.atoms = append(make([]planAtom, 0, len(p.atoms)), p.atoms...)
	nArgs := 0
	for i := range p.atoms {
		nArgs += len(p.atoms[i].args)
	}
	args := make([]planArg, 0, nArgs)
	for i := range np.atoms {
		lo := len(args)
		args = append(args, np.atoms[i].args...)
		np.atoms[i].args = args[lo:len(args):len(args)]
	}
	return np
}

// PlanBuilder assembles a Plan from per-argument descriptors the caller has
// already classified (constant vs. binding slot). The zero value is ready to
// use; Reset makes a builder reusable with its backing storage retained, so
// a pooled builder compiles in steady state without allocating. The returned
// Plan aliases the builder's storage and is valid until the next Reset.
//
// Feed atoms with StartAtom + AddConst/AddVar, then call Finish with the
// number of distinct slots used. Slots must be dense (0..nSlots-1), assigned
// by the caller — one per equivalence class of variables, so equality
// constraints are expressed by slot sharing rather than by explicit
// equality atoms.
type PlanBuilder struct {
	plan Plan

	rels   []string
	origs  []ir.Atom
	bound  []int32 // arg index ranges: atom i's args are argBuf[bound[i]:bound[i+1]]
	args   []planArg
	consts []string

	// join-order simulation scratch
	used      []bool
	boundCnt  []int32
	slotBound []bool
	sizes     []int
}

// Reset clears the builder for a fresh compilation, keeping capacity.
func (b *PlanBuilder) Reset() {
	b.rels = b.rels[:0]
	b.origs = b.origs[:0]
	b.bound = b.bound[:0]
	b.args = b.args[:0]
	b.consts = b.consts[:0]
	b.plan.atoms = b.plan.atoms[:0]
	b.plan.outs = nil
	b.plan.filters = b.plan.filters[:0]
	b.plan.empty = false
	b.plan.nSlots = 0
	b.plan.nParams = 0
}

// StartAtom begins a new atom over rel; orig is retained only for error
// messages at execution time.
func (b *PlanBuilder) StartAtom(rel string, orig ir.Atom) {
	b.rels = append(b.rels, rel)
	b.origs = append(b.origs, orig)
	b.bound = append(b.bound, int32(len(b.args)))
}

// AddConst appends a constant argument to the current atom.
func (b *PlanBuilder) AddConst(v string) {
	b.args = append(b.args, planArg{slot: -1, cidx: int32(len(b.consts))})
	b.consts = append(b.consts, v)
}

// AddVar appends a binding-slot argument to the current atom.
func (b *PlanBuilder) AddVar(slot int32) {
	b.args = append(b.args, planArg{slot: slot})
}

// AddParam appends a parameter argument (a late-bound constant) to the
// current atom and returns its parameter index. Execution reads the value
// from the ExecState's parameter array at that index.
func (b *PlanBuilder) AddParam() int {
	i := b.plan.nParams
	b.plan.nParams++
	b.args = append(b.args, planArg{slot: int32(-2 - i)})
	return i
}

// planCost is the atom-selection priority shared — by construction, not by
// accident — between the compile-time join-order simulation below and the
// reference evaluator's dynamic selection (the tests' joinState.search): the
// estimated candidate count of scanning the atom next, its table size
// discounted 8× per bound argument occurrence. The selection picks the lowest cost, ties
// broken by more bound occurrences, then by position. With equal table
// sizes this degrades to the old most-bound-first rule; with skewed sizes
// it stops baking a large outer scan into the order just because the big
// table has one more constant (the stats-blind-order bug).
func planCost(size, bound int) int {
	shift := 3 * bound
	if shift > 30 {
		shift = 30
	}
	return size >> shift
}

// Finish computes the static join order and per-atom probe positions and
// returns the compiled plan (aliasing builder storage; valid until Reset).
// Join-order selection consults db's live table row counts (read once,
// under one RLock); a nil db — or a relation unknown at compile time —
// contributes size 0, reducing selection to the pure bound-count rule.
func (b *PlanBuilder) Finish(db *DB, nSlots int) *Plan {
	n := len(b.rels)
	b.bound = append(b.bound, int32(len(b.args)))
	b.plan.nSlots = nSlots
	b.plan.consts = b.consts
	if n == 1 {
		// Trivial single-atom plan: the join-order simulation is skipped —
		// the only atom runs first and probes its first constant position
		// (no variable can be bound before it).
		args := b.args[b.bound[0]:b.bound[1]:b.bound[1]]
		probe := -1
		for pos := range args {
			if args[pos].slot < 0 {
				probe = pos
				break
			}
		}
		b.plan.atoms = append(b.plan.atoms, planAtom{
			rel: b.rels[0], orig: b.origs[0], args: args, probePos: probe, origIdx: 0,
		})
		return &b.plan
	}

	b.used = growBools(b.used, n)
	b.slotBound = growBools(b.slotBound, nSlots)
	if cap(b.boundCnt) < n {
		b.boundCnt = make([]int32, n)
	}
	cnt := b.boundCnt[:n]
	for i := 0; i < n; i++ {
		cnt[i] = 0
		for _, a := range b.args[b.bound[i]:b.bound[i+1]] {
			if a.slot < 0 {
				cnt[i]++
			}
		}
	}
	if cap(b.sizes) < n {
		b.sizes = make([]int, n)
	}
	sizes := b.sizes[:n]
	if db != nil {
		db.mu.RLock()
		for i, rel := range b.rels {
			if t := db.tables[rel]; t != nil {
				sizes[i] = t.Len()
			} else {
				sizes[i] = 0
			}
		}
		db.mu.RUnlock()
	} else {
		for i := range sizes {
			sizes[i] = 0
		}
	}

	// Simulate the reference selection rule exactly: repeatedly pick the unused
	// atom with the lowest planCost (ties: most bound occurrences, then
	// first wins), probe its first bound position, then mark its slots bound
	// — bumping the occurrence counts of the remaining atoms — and repeat.
	for k := 0; k < n; k++ {
		next := -1
		bestCost := 0
		var best int32 = -1
		for i := 0; i < n; i++ {
			if b.used[i] {
				continue
			}
			c := planCost(sizes[i], int(cnt[i]))
			if next < 0 || c < bestCost || (c == bestCost && cnt[i] > best) {
				next, bestCost, best = i, c, cnt[i]
			}
		}
		b.used[next] = true
		args := b.args[b.bound[next]:b.bound[next+1]:b.bound[next+1]]
		probe := -1
		for pos := range args {
			if args[pos].slot < 0 || b.slotBound[args[pos].slot] {
				probe = pos
				break
			}
		}
		b.plan.atoms = append(b.plan.atoms, planAtom{
			rel: b.rels[next], orig: b.origs[next], args: args, probePos: probe, origIdx: next,
		})
		for _, a := range args {
			if a.slot < 0 || b.slotBound[a.slot] {
				continue
			}
			b.slotBound[a.slot] = true
			for j := 0; j < n; j++ {
				if b.used[j] {
					continue
				}
				for _, ja := range b.args[b.bound[j]:b.bound[j+1]] {
					if ja.slot == a.slot {
						cnt[j]++
					}
				}
			}
		}
	}
	return &b.plan
}

// growBools returns a false-filled bool slice of length n, reusing capacity.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// CompilePlan compiles a conjunction of atoms with equality constraints into
// a standalone Plan. Equality normalisation is folded into compilation:
// variable classes share one slot, classes bound to a constant compile to
// constant descriptors, and inconsistent equalities yield a statically empty
// plan. The plan's outputs reproduce EvalConjunctive's substitution contract
// (every variable of the atoms bound, normalised-away class members expanded
// back to their representatives). Join-order selection reads the receiver's
// live table row counts; the plan remains executable against any DB.
func (db *DB) CompilePlan(atoms []ir.Atom, eqs []ir.Equality) *Plan {
	norm, expand, err := normalizeEqualities(eqs)
	if err != nil {
		return &Plan{empty: true, unchecked: true}
	}
	b := &PlanBuilder{}
	slots := make(map[string]int32)
	names := make([]string, 0, 8) // slot → rewritten variable name
	for _, a := range atoms {
		b.StartAtom(a.Rel, a)
		for _, t := range a.Args {
			if t.IsVar() {
				if r, ok := norm[t.Value]; ok {
					t = r
				}
			}
			if t.IsConst() {
				b.AddConst(t.Value)
				continue
			}
			s, ok := slots[t.Value]
			if !ok {
				s = int32(len(names))
				slots[t.Value] = s
				names = append(names, t.Value)
			}
			b.AddVar(s)
		}
	}
	p := b.Finish(db, len(names))
	p.outs = make([]planOut, 0, len(names)+len(expand))
	for s, name := range names {
		p.outs = append(p.outs, planOut{name: name, slot: int32(s)})
	}
	for v, rep := range expand {
		if rep.IsConst() {
			p.outs = append(p.outs, planOut{name: v, slot: -1, cval: rep.Value})
			continue
		}
		s, ok := slots[rep.Value]
		if !ok {
			// The class representative never occurs in the atoms, so no
			// valuation can bind it: statically empty (the reference evaluator
			// reaches the same outcome by filtering every result row).
			p.empty = true
			return p
		}
		p.outs = append(p.outs, planOut{name: v, slot: s})
	}
	return p
}

// ExecState is the reusable execution scratch of a Plan: resolved tables,
// the slot-indexed binding array, the backtracking trail, and the result
// rows. A pooled ExecState makes repeated execution allocation-free in
// steady state. Not safe for concurrent use; run concurrent executions with
// distinct states.
type ExecState struct {
	tabs   []*Table
	binds  []uint32 // value ID per binding slot
	bound  []bool
	trail  []int32
	res    [][]string
	nres   int
	params []string
	cvals  []uint32 // the plan's inline constants as value IDs, this execution
	pvals  []uint32 // params as value IDs, this execution
}

// Row returns result row i (slot-indexed values). Valid until the next
// ExecPlan call with this state.
func (st *ExecState) Row(i int) []string { return st.res[i] }

// SetParams supplies the values for the plan's parameter arguments, in
// parameter-index order. The slice is aliased, not copied; it must stay
// valid for the duration of the ExecPlan call.
func (st *ExecState) SetParams(vals []string) { st.params = vals }

// ExecPlan executes a compiled plan, returning the number of result rows
// collected into st (bounded by opt.Limit when non-zero). Tables are
// resolved at execution time; hash indexes are built for exactly the
// argument positions the plan declares it will probe — never-probed
// positions are left unindexed. opt.Rand, when non-nil, randomises each
// join level's candidate start offset (the CHOOSE 1 semantics), drawing
// exactly as the reference evaluator does.
//
// The join runs on value IDs: the plan's constants and the state's
// parameters are looked up in the dictionary once, here (a value the
// database has never seen resolves to noID and matches nothing — it is not
// interned), and result rows are converted back to strings as they are
// emitted, under the same read lock.
func (db *DB) ExecPlan(p *Plan, st *ExecState, opt EvalOptions) (int, error) {
	st.nres = 0
	if p.nParams > len(st.params) {
		return 0, fmt.Errorf("memdb: plan needs %d parameters, got %d", p.nParams, len(st.params))
	}
	if cap(st.tabs) < len(p.atoms) {
		st.tabs = make([]*Table, len(p.atoms))
	}
	st.tabs = st.tabs[:len(p.atoms)]
	if p.empty {
		if p.unchecked {
			return 0, nil
		}
		// Statically no valuations, but table references still validate —
		// exactly as the reference evaluator resolves tables before its join
		// filters every row out.
		db.mu.RLock()
		err := db.resolvePlanTables(p, st)
		db.mu.RUnlock()
		return 0, err
	}

	db.mu.RLock()
	for {
		if err := db.resolvePlanTables(p, st); err != nil {
			db.mu.RUnlock()
			return 0, err
		}
		missing := false
		for i := range p.atoms {
			if pp := p.atoms[i].probePos; pp >= 0 && st.tabs[i].indexes[pp] == nil {
				missing = true
				break
			}
		}
		if !missing {
			break
		}
		// Index building mutates tables, so upgrade to the write lock. The
		// table set can change while unlocked (Drop/Create race), so tables
		// are re-resolved from db.tables under the write lock before
		// building — an index is never built on a stale table snapshot —
		// and the loop re-resolves once more under the read lock, in case
		// a concurrent drop replaced a table again after the build.
		db.mu.RUnlock()
		db.mu.Lock()
		if err := db.resolvePlanTables(p, st); err != nil {
			db.mu.Unlock()
			return 0, err
		}
		for i := range p.atoms {
			if pp := p.atoms[i].probePos; pp >= 0 && st.tabs[i].indexes[pp] == nil {
				st.tabs[i].buildIndex(pp)
			}
		}
		db.mu.Unlock()
		db.mu.RLock()
	}
	defer db.mu.RUnlock()

	st.cvals = db.dict.lookupAll(st.cvals[:0], p.consts)
	st.pvals = db.dict.lookupAll(st.pvals[:0], st.params[:p.nParams])
	if cap(st.binds) < p.nSlots {
		st.binds = make([]uint32, p.nSlots)
		st.bound = make([]bool, p.nSlots)
	}
	st.binds = st.binds[:p.nSlots]
	st.bound = st.bound[:p.nSlots]
	for i := range st.bound {
		st.bound[i] = false
	}
	st.trail = st.trail[:0]

	e := planExec{p: p, st: st, opt: opt, strs: db.dict.strs}
	if len(p.filters) > 0 {
		e.fc = &FilterCtx{db: db, st: st}
		// Slot-free filters (after == -1) gate the whole join once.
		if !e.runFilters(-1) {
			return 0, e.err
		}
	}
	e.search(0)
	return st.nres, e.err
}

// resolvePlanTables fills st.tabs (plan order) and validates arities,
// reporting errors in the original atom order for parity with the reference
// evaluator. Caller holds at least the read lock.
func (db *DB) resolvePlanTables(p *Plan, st *ExecState) error {
	var firstErr error
	errIdx := len(p.atoms)
	for i := range p.atoms {
		pa := &p.atoms[i]
		t, ok := db.tables[pa.rel]
		if !ok {
			if pa.origIdx < errIdx {
				errIdx = pa.origIdx
				firstErr = fmt.Errorf("memdb: query references unknown table %s", pa.rel)
			}
			continue
		}
		if len(pa.args) != len(t.colNames) {
			if pa.origIdx < errIdx {
				errIdx = pa.origIdx
				firstErr = fmt.Errorf("memdb: atom %s has arity %d but table has %d columns", pa.orig, len(pa.args), len(t.colNames))
			}
			continue
		}
		st.tabs[i] = t
	}
	return firstErr
}

// planExec is one execution of a plan: a backtracking join over the
// precompiled atom order. All state lives in the (reusable) ExecState, so
// the search allocates nothing beyond result-row growth on first use.
type planExec struct {
	p    *Plan
	st   *ExecState
	opt  EvalOptions
	strs []string   // the dictionary's ID → string view, stable under the held read lock
	fc   *FilterCtx // non-nil iff the plan carries residual filters
	err  error      // first filter error; aborts the search
}

func (e *planExec) done() bool {
	return e.err != nil || (e.opt.Limit > 0 && e.st.nres >= e.opt.Limit)
}

// runFilters evaluates every residual filter scheduled at join level depth
// against the current bindings. A false verdict prunes the subtree; an
// error is recorded and aborts the search via done().
func (e *planExec) runFilters(depth int) bool {
	for i := range e.p.filters {
		pf := &e.p.filters[i]
		if pf.after != depth {
			continue
		}
		ok, err := pf.f.Holds(e.fc)
		if err != nil {
			e.err = err
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// argID returns the value ID a constant or parameter argument must match.
func (st *ExecState) argID(arg *planArg) uint32 {
	if arg.slot == -1 {
		return st.cvals[arg.cidx]
	}
	return st.pvals[-arg.slot-2]
}

func (e *planExec) search(depth int) {
	if e.done() {
		return
	}
	if depth == len(e.p.atoms) {
		e.emit()
		return
	}
	pa := &e.p.atoms[depth]
	t := e.st.tabs[depth]
	st := e.st

	var candidates []uint32
	nCand := 0
	if pa.probePos >= 0 {
		arg := &pa.args[pa.probePos]
		var v uint32
		if arg.slot >= 0 {
			v = st.binds[arg.slot]
		} else {
			v = st.argID(arg)
		}
		candidates = t.indexes[pa.probePos].lookup(v)
		nCand = len(candidates)
	} else {
		nCand = t.Len()
	}
	offset := 0
	if e.opt.Rand != nil && nCand > 1 {
		offset = e.opt.Rand.Intn(nCand)
	}
	for i := 0; i < nCand; i++ {
		if e.done() {
			return
		}
		ri := (i + offset) % nCand
		if candidates != nil {
			ri = int(candidates[ri])
		}
		mark := len(st.trail)
		ok := true
		for pos := range pa.args {
			arg := &pa.args[pos]
			v := t.cols[pos][ri]
			switch {
			case arg.slot < 0:
				ok = v == st.argID(arg)
			case st.bound[arg.slot]:
				ok = v == st.binds[arg.slot]
			default:
				st.binds[arg.slot] = v
				st.bound[arg.slot] = true
				st.trail = append(st.trail, arg.slot)
			}
			if !ok {
				break
			}
		}
		if ok && (e.fc == nil || e.runFilters(depth)) {
			e.search(depth + 1)
		}
		for j := len(st.trail) - 1; j >= mark; j-- {
			st.bound[st.trail[j]] = false
		}
		st.trail = st.trail[:mark]
	}
}

// emit materialises the current bindings as the next result row of strings,
// reusing row buffers across executions.
func (e *planExec) emit() {
	st := e.st
	if len(st.res) <= st.nres {
		st.res = append(st.res, nil)
	}
	row := st.res[st.nres]
	if cap(row) < e.p.nSlots {
		row = make([]string, e.p.nSlots)
	} else {
		row = row[:e.p.nSlots]
	}
	for s := range row {
		if st.bound[s] {
			row[s] = e.strs[st.binds[s]]
		} else {
			row[s] = ""
		}
	}
	st.res[st.nres] = row
	st.nres++
}
