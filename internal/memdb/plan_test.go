package memdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"entangle/internal/ir"
)

// recordingRng wraps a SplitMix and records every (n, draw) pair, so tests
// can assert that two evaluators consume identical CHOOSE streams.
type recordingRng struct {
	sm    SplitMix
	trace [][2]int
}

func (r *recordingRng) Intn(n int) int {
	v := r.sm.Intn(n)
	r.trace = append(r.trace, [2]int{n, v})
	return v
}

func substKey(s ir.Substitution) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d:%s;", k, s[k].Kind, s[k].Value)
	}
	return b.String()
}

func substListKey(subs []ir.Substitution) []string {
	out := make([]string, len(subs))
	for i, s := range subs {
		out[i] = substKey(s)
	}
	return out
}

// randomEvalCase builds a random database, conjunction and equality set from
// the given rand stream.
func randomEvalCase(rng *rand.Rand) (*DB, []ir.Atom, []ir.Equality) {
	db := New()
	schemas := [][]string{{"a", "b"}, {"a", "b", "c"}, {"a"}}
	names := []string{"T0", "T1", "T2"}
	vals := []string{"v0", "v1", "v2", "v3", "v4"}
	for ti, cols := range schemas {
		db.MustCreateTable(names[ti], cols...)
		for r := rng.Intn(13); r > 0; r-- {
			row := make([]string, len(cols))
			for c := range row {
				row[c] = vals[rng.Intn(len(vals))]
			}
			db.MustInsert(names[ti], row...)
		}
	}
	varNames := []string{"x0", "x1", "x2", "x3", "x4", "x5"}
	term := func() ir.Term {
		if rng.Intn(2) == 0 {
			return ir.Var(varNames[rng.Intn(len(varNames))])
		}
		return ir.Const(vals[rng.Intn(len(vals))])
	}
	nAtoms := 1 + rng.Intn(4)
	atoms := make([]ir.Atom, 0, nAtoms)
	for i := 0; i < nAtoms; i++ {
		ti := rng.Intn(len(schemas))
		args := make([]ir.Term, len(schemas[ti]))
		for k := range args {
			args[k] = term()
		}
		atoms = append(atoms, ir.NewAtom(names[ti], args...))
	}
	var eqs []ir.Equality
	for i := rng.Intn(4); i > 0; i-- {
		eqs = append(eqs, ir.Equality{Left: term(), Right: term()})
	}
	return db, atoms, eqs
}

// TestCompiledLegacyEquivalenceRandom drives the compiled evaluator and the
// retained legacy evaluator over hundreds of random conjunction+equality
// cases and requires identical valuation lists (same substitutions, same
// order) without a limit, and — under Limit 1 with identically seeded
// streams — identical chosen valuations AND identical CHOOSE draw traces
// (the compiled join must consume randomness exactly as the legacy join
// does, or fixed-seed results would drift).
func TestCompiledLegacyEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, atoms, eqs := randomEvalCase(rng)

		gotC, errC := db.EvalConjunctive(atoms, eqs, EvalOptions{})
		gotL, errL := db.EvalConjunctiveLegacy(atoms, eqs, EvalOptions{})
		if (errC == nil) != (errL == nil) {
			t.Fatalf("seed %d: error mismatch: compiled %v, legacy %v", seed, errC, errL)
		}
		if errC != nil {
			continue
		}
		kc, kl := substListKey(gotC), substListKey(gotL)
		if len(kc) != len(kl) {
			t.Fatalf("seed %d: result counts differ: compiled %d, legacy %d\natoms=%v eqs=%v", seed, len(kc), len(kl), atoms, eqs)
		}
		for i := range kc {
			if kc[i] != kl[i] {
				t.Fatalf("seed %d: result %d differs:\ncompiled %s\nlegacy   %s", seed, i, kc[i], kl[i])
			}
		}

		rc := &recordingRng{sm: NewSplitMix(seed + 1)}
		rl := &recordingRng{sm: NewSplitMix(seed + 1)}
		limC, errC := db.EvalConjunctive(atoms, eqs, EvalOptions{Limit: 1, Rand: rc})
		limL, errL := db.EvalConjunctiveLegacy(atoms, eqs, EvalOptions{Limit: 1, Rand: rl})
		if (errC == nil) != (errL == nil) {
			t.Fatalf("seed %d: limit-1 error mismatch: %v vs %v", seed, errC, errL)
		}
		if errC != nil {
			continue
		}
		if len(limC) != len(limL) {
			t.Fatalf("seed %d: limit-1 counts differ: %d vs %d", seed, len(limC), len(limL))
		}
		if len(limC) == 1 && substKey(limC[0]) != substKey(limL[0]) {
			t.Fatalf("seed %d: limit-1 choice differs:\ncompiled %s\nlegacy   %s", seed, substKey(limC[0]), substKey(limL[0]))
		}
		// Draw-trace parity applies when the plan actually executes: for
		// statically-empty plans the compiled path skips the join entirely,
		// while the legacy evaluator still searches (and draws) before its
		// result filter discards everything — the outcome is identical and
		// each component evaluation owns its stream, so the unconsumed
		// draws are unobservable.
		if db.CompilePlan(atoms, eqs).empty {
			continue
		}
		if len(rc.trace) != len(rl.trace) {
			t.Fatalf("seed %d: draw counts differ: compiled %d, legacy %d", seed, len(rc.trace), len(rl.trace))
		}
		for i := range rc.trace {
			if rc.trace[i] != rl.trace[i] {
				t.Fatalf("seed %d: draw %d differs: compiled %v, legacy %v", seed, i, rc.trace[i], rl.trace[i])
			}
		}
	}
}

// TestCompiledEqualityEdgeCases pins the statically-empty plan paths against
// legacy behaviour: inconsistent equalities, and an equality class whose
// representative is never bound by any atom.
func TestCompiledEqualityEdgeCases(t *testing.T) {
	db := New()
	db.MustCreateTable("T", "a")
	db.MustInsert("T", "v0")

	cases := []struct {
		name  string
		atoms []ir.Atom
		eqs   []ir.Equality
	}{
		{"inconsistent consts", []ir.Atom{ir.NewAtom("T", ir.Var("x"))},
			[]ir.Equality{{Left: ir.Const("1"), Right: ir.Const("2")}}},
		{"var forced to two consts", []ir.Atom{ir.NewAtom("T", ir.Var("x"))},
			[]ir.Equality{{Left: ir.Var("y"), Right: ir.Const("1")}, {Left: ir.Var("y"), Right: ir.Const("2")}}},
		{"unbound class rep", []ir.Atom{ir.NewAtom("T", ir.Var("x"))},
			[]ir.Equality{{Left: ir.Var("p"), Right: ir.Var("q")}}},
		{"class bound to const, no atom occurrence", []ir.Atom{ir.NewAtom("T", ir.Var("x"))},
			[]ir.Equality{{Left: ir.Var("p"), Right: ir.Const("k")}}},
		{"class joining atom var", []ir.Atom{ir.NewAtom("T", ir.Var("x"))},
			[]ir.Equality{{Left: ir.Var("x"), Right: ir.Var("q")}}},
		// A statically-empty plan must not mask table errors: the unknown
		// table still errors when the equalities are consistent (legacy
		// resolves tables before its join filters everything)…
		{"unknown table, unbound class rep", []ir.Atom{ir.NewAtom("Nope", ir.Var("a"))},
			[]ir.Equality{{Left: ir.Var("p"), Right: ir.Var("q")}}},
		{"arity mismatch, unbound class rep", []ir.Atom{ir.NewAtom("T", ir.Var("a"), ir.Var("b"))},
			[]ir.Equality{{Left: ir.Var("p"), Right: ir.Var("q")}}},
		// …while inconsistent equalities return "no valuations" without
		// validating tables, exactly as the legacy evaluator does.
		{"unknown table, inconsistent consts", []ir.Atom{ir.NewAtom("Nope", ir.Var("a"))},
			[]ir.Equality{{Left: ir.Const("1"), Right: ir.Const("2")}}},
	}
	for _, tc := range cases {
		gotC, errC := db.EvalConjunctive(tc.atoms, tc.eqs, EvalOptions{})
		gotL, errL := db.EvalConjunctiveLegacy(tc.atoms, tc.eqs, EvalOptions{})
		if (errC == nil) != (errL == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", tc.name, errC, errL)
		}
		kc, kl := substListKey(gotC), substListKey(gotL)
		if len(kc) != len(kl) {
			t.Fatalf("%s: counts differ: compiled %d (%v), legacy %d (%v)", tc.name, len(kc), gotC, len(kl), gotL)
		}
		for i := range kc {
			if kc[i] != kl[i] {
				t.Fatalf("%s: result %d: compiled %s, legacy %s", tc.name, i, kc[i], kl[i])
			}
		}
	}
}

// TestPlanBuildsOnlyProbedIndexes verifies the compiled path's index
// discipline: execution builds hash indexes for exactly the argument
// positions the plan declares it will probe, leaving never-probed positions
// unindexed (the legacy evaluator's eager loop indexed every position of
// every touched table).
func TestPlanBuildsOnlyProbedIndexes(t *testing.T) {
	db := New()
	db.MustCreateTable("F", "u1", "u2")
	db.MustCreateTable("U", "u", "city")
	db.MustInsert("F", "a", "b")
	db.MustInsert("U", "a", "paris")
	db.MustInsert("U", "b", "paris")
	atoms := []ir.Atom{
		ir.NewAtom("F", ir.Const("a"), ir.Var("x")),
		ir.NewAtom("U", ir.Const("a"), ir.Var("c")),
		ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
	}
	p := db.CompilePlan(atoms, nil)
	if got := p.NumProbes(); got != 3 {
		t.Fatalf("NumProbes = %d, want 3", got)
	}
	got, err := db.EvalConjunctive(atoms, nil, EvalOptions{})
	if err != nil || len(got) != 1 {
		t.Fatalf("eval = %v, %v", got, err)
	}
	// Every probe lands on column 0 of its table; column 1 is never probed.
	for _, tab := range []string{"F", "U"} {
		tbl := db.Table(tab)
		if tbl.indexes[0] == nil {
			t.Fatalf("table %s: probed column 0 has no index", tab)
		}
		if tbl.indexes[1] != nil {
			t.Fatalf("table %s: never-probed column 1 was indexed", tab)
		}
	}
}

// TestExecPlanDropCreateRace exercises the executor's lock-upgrade window:
// concurrent DropTable/CreateTable/Insert while evaluations trigger index
// builds. Run under -race; evaluations may error (table briefly missing)
// but must never panic, corrupt state, or build on a stale table snapshot
// (observable as a missing-index panic in search).
func TestExecPlanDropCreateRace(t *testing.T) {
	db := New()
	mk := func() {
		db.MustCreateTable("R", "a", "b")
		for i := 0; i < 8; i++ {
			db.MustInsert("R", fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))
		}
	}
	mk()
	atoms := []ir.Atom{ir.NewAtom("R", ir.Const("k1"), ir.Var("v"))}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.DropTable("R"); err == nil {
				mk()
			}
			_ = db.Insert("R", "k1", fmt.Sprintf("w%d", i))
		}
	}()
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			p := db.CompilePlan(atoms, nil)
			var st ExecState
			for i := 0; i < 400; i++ {
				if _, err := db.ExecPlan(p, &st, EvalOptions{Limit: 1}); err != nil {
					// "unknown table" during the drop window is legitimate.
					if !strings.Contains(err.Error(), "unknown table") {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestExecPlanAllocs is the allocation guard for the execute half of the
// compiled split: with a compiled plan and a warmed ExecState, repeated
// execution of the three-way-join shape must not allocate at all.
func TestExecPlanAllocs(t *testing.T) {
	db := New()
	db.MustCreateTable("F", "u1", "u2")
	db.MustCreateTable("U", "u", "city")
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("u%d", i)
		db.MustInsert("U", u, fmt.Sprintf("c%d", i%10))
		// Friend pairs share a city (i and i+10 agree mod 10), so the
		// three-way join below has matches.
		db.MustInsert("F", u, fmt.Sprintf("u%d", (i+10)%1000))
	}
	atoms := []ir.Atom{
		ir.NewAtom("F", ir.Const("u500"), ir.Var("x")),
		ir.NewAtom("U", ir.Const("u500"), ir.Var("c")),
		ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
	}
	p := db.CompilePlan(atoms, nil)
	var st ExecState
	sm := NewSplitMix(7)
	if n, err := db.ExecPlan(p, &st, EvalOptions{Limit: 1, Rand: &sm}); err != nil || n != 1 {
		t.Fatalf("warm-up exec = %d, %v", n, err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := db.ExecPlan(p, &st, EvalOptions{Limit: 1, Rand: &sm}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("ExecPlan allocates %.2f allocs/op, want 0", avg)
	}
}

// TestCompilePlanAllocs bounds the compile half: string-keyed compilation
// of the three-way-join shape stays within a small constant (the slot map,
// the builder, the descriptor arrays). The compiled engine path avoids even
// this by feeding a pooled PlanBuilder directly.
func TestCompilePlanAllocs(t *testing.T) {
	db := New()
	db.MustCreateTable("F", "u1", "u2")
	db.MustCreateTable("U", "u", "city")
	atoms := []ir.Atom{
		ir.NewAtom("F", ir.Const("u500"), ir.Var("x")),
		ir.NewAtom("U", ir.Const("u500"), ir.Var("c")),
		ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
	}
	avg := testing.AllocsPerRun(200, func() {
		if p := db.CompilePlan(atoms, nil); p.empty {
			t.Fatal("plan unexpectedly empty")
		}
	})
	if avg > 30 {
		t.Fatalf("CompilePlan allocates %.1f allocs/op, want ≤ 30", avg)
	}
}
