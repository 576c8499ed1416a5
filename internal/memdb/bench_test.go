package memdb

import (
	"fmt"
	"testing"

	"entangle/internal/ir"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := New()
	db.MustCreateTable("F", "u1", "u2")
	db.MustCreateTable("U", "u", "city")
	var frows, urows [][]string
	for i := 0; i < rows; i++ {
		u := fmt.Sprintf("u%d", i)
		urows = append(urows, []string{u, fmt.Sprintf("c%d", i%100)})
		frows = append(frows, []string{u, fmt.Sprintf("u%d", (i+1)%rows)})
	}
	if err := db.BulkInsert("F", frows); err != nil {
		b.Fatal(err)
	}
	if err := db.BulkInsert("U", urows); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkEvalPointLookup(b *testing.B) {
	db := benchDB(b, 100000)
	atoms := []ir.Atom{ir.NewAtom("U", ir.Const("u5000"), ir.Var("c"))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.EvalConjunctive(atoms, nil, EvalOptions{Limit: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalThreeWayJoin(b *testing.B) {
	// The combined-query shape of the two-way random workload:
	// F(u, x) ⋈ U(u, c) ⋈ U(x, c).
	db := benchDB(b, 100000)
	atoms := []ir.Atom{
		ir.NewAtom("F", ir.Const("u5000"), ir.Var("x")),
		ir.NewAtom("U", ir.Const("u5000"), ir.Var("c")),
		ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.EvalConjunctive(atoms, nil, EvalOptions{Limit: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCompile times the compile half of the evaluator split: the
// string-keyed CompilePlan of the three-way combined-query shape.
func BenchmarkPlanCompile(b *testing.B) {
	db := benchDB(b, 1000)
	atoms := []ir.Atom{
		ir.NewAtom("F", ir.Const("u5000"), ir.Var("x")),
		ir.NewAtom("U", ir.Const("u5000"), ir.Var("c")),
		ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := db.CompilePlan(atoms, nil); p.empty {
			b.Fatal("plan unexpectedly empty")
		}
	}
}

// BenchmarkPlanExec times the execute half: a precompiled plan over a
// reused ExecState (the engine's steady state — zero allocations).
func BenchmarkPlanExec(b *testing.B) {
	db := benchDB(b, 100000)
	atoms := []ir.Atom{
		ir.NewAtom("F", ir.Const("u5000"), ir.Var("x")),
		ir.NewAtom("U", ir.Const("u5000"), ir.Var("c")),
		ir.NewAtom("U", ir.Var("x"), ir.Var("c")),
	}
	p := db.CompilePlan(atoms, nil)
	var st ExecState
	if _, err := db.ExecPlan(p, &st, EvalOptions{Limit: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecPlan(p, &st, EvalOptions{Limit: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertIndexed(b *testing.B) {
	db := New()
	db.MustCreateTable("T", "a", "b")
	if err := db.CreateIndex("T", "a"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustInsert("T", fmt.Sprintf("k%d", i%1000), "v")
	}
}
