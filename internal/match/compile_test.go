package match

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/memdb"
)

func answersKey(ans []ir.Answer) string {
	parts := make([]string, 0, len(ans))
	for _, a := range ans {
		parts = append(parts, fmt.Sprintf("q%d⇒%s", a.QueryID, ir.FormatAtoms(a.Tuples)))
	}
	return strings.Join(parts, " | ")
}

func removalsKey(rs []Removal) string {
	cp := append([]Removal(nil), rs...)
	sortRemovals(cp)
	parts := make([]string, 0, len(cp))
	for _, r := range cp {
		parts = append(parts, fmt.Sprintf("q%d:%s", r.Query, r.Cause))
	}
	return strings.Join(parts, ",")
}

// TestEvaluateComponentFastLiteralParity runs the compiled dense path and
// the literal pipeline (Algorithm 1 → BuildCombined → Simplify →
// EvalConjunctive, which memdb's tests hold to the map-backed reference
// evaluator) over the same components and seeds and requires identical
// answers (tuples included — the fixed-seed CHOOSE draw must land on the
// same valuation) and identical rejection sets. Shapes cover a
// multi-candidate pair (draws matter), a join-variable pair, a component
// that evaluates to zero rows, and a three-member chain.
func TestEvaluateComponentFastLiteralParity(t *testing.T) {
	db := memdb.New()
	db.MustCreateTable("F", "fno", "dest")
	for i, dest := range []string{"Rome", "Paris", "Paris", "Paris", "Oslo", "Paris"} {
		db.MustInsert("F", fmt.Sprintf("1%d", i), dest)
	}
	db.MustCreateTable("U", "u", "city")
	db.MustInsert("U", "ann", "ith")
	db.MustInsert("U", "bob", "ith")
	db.MustInsert("U", "cat", "ith")

	shapes := []struct {
		name string
		qs   []string
	}{
		{"pair many candidates", []string{
			"{R(Bob, x)} R(Ann, x) :- F(x, Paris)",
			"{R(Ann, y)} R(Bob, y) :- F(y, Paris)",
		}},
		{"pair join vars", []string{
			"{R('bob', c)} R('ann', c) :- U('ann', c), U('bob', c)",
			"{R('ann', d)} R('bob', d) :- U('bob', d), U('ann', d)",
		}},
		{"pair no data", []string{
			"{R(Bob, x)} R(Ann, x) :- F(x, Nowhere)",
			"{R(Ann, y)} R(Bob, y) :- F(y, Nowhere)",
		}},
		{"three-way cycle", []string{
			"{R(B, x)} R(A, x) :- F(x, Paris)",
			"{R(C, y)} R(B, y) :- F(y, Paris)",
			"{R(A, z)} R(C, z) :- F(z, Paris)",
		}},
	}

	for _, sh := range shapes {
		qs := make([]*ir.Query, len(sh.qs))
		byID := make(map[ir.QueryID]*ir.Query, len(sh.qs))
		for i, src := range sh.qs {
			q := ir.MustParse(ir.QueryID(i+1), src).RenameApart()
			qs[i] = q
			byID[q.ID] = q
		}
		g, err := graph.Build(qs)
		if err != nil {
			t.Fatal(err)
		}
		comps := g.ConnectedComponents()
		if len(comps) != 1 {
			t.Fatalf("%s: components = %v", sh.name, comps)
		}
		answeredOnce := false
		for seed := int64(0); seed < 40; seed++ {
			ansC, rejC, errC := EvaluateComponentFast(db, g, comps[0], byID, seed, Options{})
			var rnd memdb.Rng
			if seed != 0 {
				sm := memdb.NewSplitMix(seed)
				rnd = &sm
			}
			ansL, rejL, _, errL := EvaluateComponent(db, g, comps[0], byID, rnd, Options{})
			if (errC == nil) != (errL == nil) {
				t.Fatalf("%s seed %d: error mismatch: %v vs %v", sh.name, seed, errC, errL)
			}
			if ka, kl := answersKey(ansC), answersKey(ansL); ka != kl {
				t.Fatalf("%s seed %d: answers differ:\ndense   %s\nliteral %s", sh.name, seed, ka, kl)
			}
			if ka, kl := removalsKey(rejC), removalsKey(rejL); ka != kl {
				t.Fatalf("%s seed %d: rejections differ: %q vs %q", sh.name, seed, ka, kl)
			}
			if len(ansC) > 0 {
				answeredOnce = true
			}
		}
		if sh.name != "pair no data" && !answeredOnce {
			t.Fatalf("%s: never answered; parity is vacuous", sh.name)
		}
	}
}

// TestEvaluateComponentFastDrawSpread checks the compiled path actually
// randomises: across seeds, the multi-candidate pair must answer with more
// than one distinct flight (CHOOSE 1 "chosen at random", Section 2.1).
func TestEvaluateComponentFastDrawSpread(t *testing.T) {
	db := memdb.New()
	db.MustCreateTable("F", "fno", "dest")
	db.MustInsert("F", "122", "Paris")
	db.MustInsert("F", "123", "Paris")
	db.MustInsert("F", "134", "Paris")
	qs := []*ir.Query{
		ir.MustParse(1, "{R(Bob, x)} R(Ann, x) :- F(x, Paris)").RenameApart(),
		ir.MustParse(2, "{R(Ann, y)} R(Bob, y) :- F(y, Paris)").RenameApart(),
	}
	byID := map[ir.QueryID]*ir.Query{1: qs[0], 2: qs[1]}
	g, err := graph.Build(qs)
	if err != nil {
		t.Fatal(err)
	}
	comp := g.ConnectedComponents()[0]
	seen := map[string]bool{}
	for seed := int64(1); seed <= 32; seed++ {
		ans, _, err := EvaluateComponentFast(db, g, comp, byID, seed, Options{})
		if err != nil || len(ans) != 2 {
			t.Fatalf("seed %d: answers=%v err=%v", seed, ans, err)
		}
		seen[ans[0].Tuples[0].Args[1].Value] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) < 2 {
		t.Fatalf("compiled CHOOSE always picked the same flight: %v", keys)
	}
	for _, f := range keys {
		if f != "122" && f != "123" && f != "134" {
			t.Fatalf("chose non-Paris flight %s", f)
		}
	}
}
