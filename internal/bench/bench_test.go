package bench

import (
	"bytes"
	"strings"
	"testing"
)

// testEnv builds a small environment shared by the harness smoke tests.
func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestFig6Series(t *testing.T) {
	env := testEnv(t)
	sizes := []int{10, 50}

	rows, err := env.Fig6TwoWayRandom(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].N != 10 || rows[1].N != 50 {
		t.Fatalf("rows = %v", rows)
	}
	total := 0
	for _, r := range rows {
		total += r.Answered
	}
	if total == 0 {
		t.Fatal("random two-way workload never coordinated")
	}

	rows, err = env.Fig6TwoWayBest(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Answered == 0 {
		t.Fatal("best-case two-way workload never coordinated")
	}

	rows, err = env.Fig6ThreeWay([]int{30})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Answered%3 != 0 {
		t.Fatalf("three-way answered count %d not a multiple of 3", rows[0].Answered)
	}
}

func TestFig7Series(t *testing.T) {
	env := testEnv(t)
	rows, err := env.Fig7Postconditions(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i, r := range rows {
		if r.MatchDur <= 0 {
			t.Fatalf("row %d missing match time: %v", i, r)
		}
		if r.Answered == 0 {
			t.Fatalf("row %d: no clique coordinated", i)
		}
	}
}

func TestFig8Series(t *testing.T) {
	env := testEnv(t)
	rows, err := env.Fig8NoUnify([]int{100})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Answered != 0 || rows[0].Pending != 100 {
		t.Fatalf("no-unify row = %v", rows[0])
	}

	rows, err = env.Fig8Chains([]int{100}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Answered != 0 || rows[0].Pending != 100 {
		t.Fatalf("chains row = %v", rows[0])
	}

	rows, err = env.Fig8BigCluster([]int{50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("big-cluster rows = %v", rows)
	}
	if rows[0].Pending != 50 || rows[1].Pending != 50 {
		t.Fatalf("big-cluster pendings: %v", rows)
	}
}

func TestFig9Series(t *testing.T) {
	env := testEnv(t)
	rows, err := env.Fig9SafetyCheck(500, []int{20, 60})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Rejected != 20 || rows[1].Rejected != 60 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAblations(t *testing.T) {
	env := testEnv(t)
	rows, err := env.AblationAtomIndex([]int{100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("A1 rows = %v", rows)
	}
	rows, err = env.AblationModes([]int{50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("A2 rows = %v", rows)
	}
	rows, err = env.AblationMGU(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("A3 rows = %v", rows)
	}
	rows, err = env.AblationCSPBaseline([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("A4 rows = %v", rows)
	}
}

func TestShardingComparison(t *testing.T) {
	env := testEnv(t)
	rows, err := env.ShardingComparison([]int{200}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// ShardingComparison itself errors if the answered counts diverge; here
	// just check the workload actually coordinated and drained.
	if rows[0].Answered == 0 {
		t.Fatalf("single-lock row never coordinated: %v", rows[0])
	}
	if rows[0].Pending != rows[1].Pending {
		t.Fatalf("pending differ: %v vs %v", rows[0], rows[1])
	}
}

func TestBatchingComparison(t *testing.T) {
	env := testEnv(t)
	rows, err := env.BatchingComparison([]int{200}, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// BatchingComparison itself errors if the answered counts diverge
	// (single vs batched — the identical-answered enforcement).
	if rows[0].Answered == 0 {
		t.Fatalf("single-submit row never coordinated: %v", rows[0])
	}
	if rows[1].Pending != rows[0].Pending {
		t.Fatalf("pending differ: %v vs %v", rows[0], rows[1])
	}
}

func TestPrintSeries(t *testing.T) {
	var buf bytes.Buffer
	PrintSeries(&buf, "demo", []Row{{Label: "x", N: 5, Elapsed: 1000}})
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "n=5") {
		t.Fatalf("output = %q", out)
	}
}
