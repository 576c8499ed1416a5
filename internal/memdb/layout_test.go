package memdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"entangle/internal/ir"
)

// socialDB builds a stand-in for the paper's substrate at a chosen size:
// F(u1, u2) with deg friends per user, grouped by u1 as PopulateDB emits
// them, and U(u, city); both indexed the way PopulateDB indexes them.
func socialDB(tb testing.TB, users, deg int) *DB {
	tb.Helper()
	db := New()
	db.MustCreateTable("F", "u1", "u2")
	db.MustCreateTable("U", "u", "city")
	rows := make([][]string, deg)
	for u := 0; u < users; u++ {
		un := fmt.Sprintf("u%d", u)
		for k := range rows {
			rows[k] = []string{un, fmt.Sprintf("u%d", (u+1+k*7)%users)}
		}
		if err := db.BulkInsert("F", rows); err != nil {
			tb.Fatal(err)
		}
		db.MustInsert("U", un, fmt.Sprintf("C%02d", u%102))
	}
	for _, ix := range [][2]string{{"F", "u1"}, {"U", "u"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFootprintPerRow is the tripwire on the storage layout: the whole
// database — columns, dictionary, postings — must stay under a pinned number
// of live heap bytes per Friends row. The []Row-of-[]string layout this
// replaced measured ≈170 B/row on the same shape; the ID columns measure
// ≈20. A regression toward per-row pointers trips it long before the
// benchmark's rss_peak_mb would.
func TestFootprintPerRow(t *testing.T) {
	const users, deg, ceiling = 20000, 13, 48
	before := liveHeap()
	db := socialDB(t, users, deg)
	after := liveHeap()
	perRow := float64(after-before) / float64(users*deg)
	t.Logf("%.1f live heap bytes per F row (%d rows)", perRow, users*deg)
	if perRow > ceiling {
		t.Fatalf("live heap = %.1f B per F row, ceiling %d", perRow, ceiling)
	}

	// Query constants are looked up, never interned: executing with values
	// the database has not seen must leave the dictionary as it was.
	dictLen := len(db.dict.strs)
	atoms := []ir.Atom{
		ir.NewAtom("F", ir.Const("nobody"), ir.Var("x")),
		ir.NewAtom("U", ir.Var("x"), ir.Const("Atlantis")),
	}
	if got, err := db.EvalConjunctive(atoms, nil, EvalOptions{}); err != nil || len(got) != 0 {
		t.Fatalf("unknown constants: %v, %v; want no valuations", got, err)
	}
	b := &PlanBuilder{}
	b.StartAtom("U", ir.NewAtom("U", ir.Var("u"), ir.Var("c")))
	b.AddParam()
	b.AddVar(0)
	var st ExecState
	st.SetParams([]string{"nobody either"})
	if n, err := db.ExecPlan(b.Finish(db, 1), &st, EvalOptions{}); err != nil || n != 0 {
		t.Fatalf("unknown parameter: %d rows, %v; want none", n, err)
	}
	if len(db.dict.strs) != dictLen || len(db.dict.ids) != dictLen {
		t.Fatalf("dictionary grew from %d to %d/%d entries during execution", dictLen, len(db.dict.strs), len(db.dict.ids))
	}
	runtime.KeepAlive(db)
}

// TestConstantInsertedAfterCompile: a plan keeps its constants as strings,
// so a value that did not exist when the plan was compiled is found once it
// has been inserted.
func TestConstantInsertedAfterCompile(t *testing.T) {
	db := New()
	db.MustCreateTable("U", "u", "city")
	db.MustInsert("U", "ann", "Paris")
	p := db.CompilePlan([]ir.Atom{ir.NewAtom("U", ir.Var("u"), ir.Const("Oslo"))}, nil)
	var st ExecState
	if n, err := db.ExecPlan(p, &st, EvalOptions{}); err != nil || n != 0 {
		t.Fatalf("before insert: %d rows, %v", n, err)
	}
	db.MustInsert("U", "bob", "Oslo")
	if n, err := db.ExecPlan(p, &st, EvalOptions{}); err != nil || n != 1 || st.Row(0)[0] != "bob" {
		t.Fatalf("after insert: %d rows, %v", n, err)
	}
}

// probe returns the row ids lookupEq reports for column = value.
func probe(db *DB, table string, col int, value string) []uint32 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rows, _ := db.tables[table].lookupEq(col, db.dict.lookup(value), nil)
	return append([]uint32(nil), rows...)
}

// TestDeleteThenInsertOnIndexedColumn covers the write paths around an
// index: deletes renumber rows and rebuild postings, the dictionary keeps
// every ID it ever issued, later inserts extend the rebuilt postings, and
// the size-drift epoch bumps exactly as it did before the layout change.
func TestDeleteThenInsertOnIndexedColumn(t *testing.T) {
	db := New()
	db.MustCreateTable("T", "k", "v")
	for i := 0; i < 40; i++ {
		db.MustInsert("T", fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i))
	}
	if err := db.CreateIndex("T", "k"); err != nil {
		t.Fatal(err)
	}
	idK1, idV5 := db.dict.lookup("k1"), db.dict.lookup("v5")
	dictLen := len(db.dict.strs)

	epoch := db.StatsEpoch()
	if n, err := db.Delete("T", "k", "k0"); err != nil || n != 10 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if db.StatsEpoch() != epoch {
		t.Fatal("30 rows is inside the band around planRows; the epoch must not move")
	}
	if n, err := db.DeleteRow("T", map[string]string{"k": "k1", "v": "v5"}); err != nil || n != 1 {
		t.Fatalf("DeleteRow = %d, %v", n, err)
	}
	if n, err := db.DeleteRow("T", map[string]string{"k": "never seen"}); err != nil || n != 0 {
		t.Fatalf("DeleteRow of an unknown value = %d, %v", n, err)
	}
	if len(db.dict.strs) != dictLen || db.dict.lookup("k1") != idK1 || db.dict.lookup("v5") != idV5 {
		t.Fatal("deletes must leave the dictionary and its IDs untouched")
	}
	if got := probe(db, "T", 0, "k0"); len(got) != 0 {
		t.Fatalf("k0 still has postings %v", got)
	}
	// k1 held rows 1, 5, 9, …; with k0's rows and (k1, v5) gone the
	// survivors renumber to 0, 5, 8, 11, … in the compacted table.
	want := []uint32{0, 5, 8, 11, 14, 17, 20, 23, 26}
	if got := probe(db, "T", 0, "k1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("k1 postings after deletes = %v, want %v", got, want)
	}

	db.MustInsert("T", "k1", "v5") // old IDs, new row
	db.MustInsert("T", "k0", "fresh")
	if got := probe(db, "T", 0, "k1"); !reflect.DeepEqual(got, append(want, 29)) {
		t.Fatalf("k1 postings after re-insert = %v", got)
	}
	if got := probe(db, "T", 0, "k0"); !reflect.DeepEqual(got, []uint32{30}) {
		t.Fatalf("k0 postings after re-insert = %v", got)
	}
	if len(db.dict.strs) != dictLen+1 {
		t.Fatalf("dictionary has %d entries, want %d (only \"fresh\" is new)", len(db.dict.strs), dictLen+1)
	}
	res, err := db.EvalConjunctive([]ir.Atom{ir.NewAtom("T", ir.Const("k1"), ir.Var("v"))}, nil, EvalOptions{})
	if err != nil || len(res) != 10 || res[9]["v"].Value != "v5" {
		t.Fatalf("probe through the plan = %v, %v", res, err)
	}

	// Shrinking below half of planRows (17, the count at the last growth
	// bump) bumps the epoch, as before.
	epoch = db.StatsEpoch()
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, err := db.Delete("T", "k", k); err != nil {
			t.Fatal(err)
		}
	}
	if db.Table("T").Len() != 1 || db.StatsEpoch() == epoch {
		t.Fatalf("rows = %d, epoch %d → %d; want 1 row and a bump", db.Table("T").Len(), epoch, db.StatsEpoch())
	}

	// A dropped and re-created table starts empty but shares the dictionary.
	if err := db.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable("T", "k", "v")
	if err := db.CreateIndex("T", "k"); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("T", "k1", "again")
	if got := probe(db, "T", 0, "k1"); !reflect.DeepEqual(got, []uint32{0}) || db.dict.lookup("k1") != idK1 {
		t.Fatalf("after drop/create: postings %v, k1 id %d (was %d)", got, db.dict.lookup("k1"), idK1)
	}
}

// TestIndexMatchesScanRandomized interleaves inserts and deletes on a table
// with one indexed and one unindexed copy of the same column and requires
// the index (built once, then maintained through posting-list growth in
// place, relocation, and rebuilds) to agree with a scan at every step.
func TestIndexMatchesScanRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		db.MustCreateTable("T", "indexed", "scanned")
		if err := db.CreateIndex("T", "indexed"); err != nil {
			t.Fatal(err)
		}
		keys := 1 + rng.Intn(12)
		for step := 0; step < 300; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			if rng.Intn(10) == 0 {
				if _, err := db.Delete("T", "scanned", k); err != nil {
					t.Fatal(err)
				}
			} else {
				db.MustInsert("T", k, k)
			}
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("k%d", i)
				if ix, scan := probe(db, "T", 0, k), probe(db, "T", 1, k); !reflect.DeepEqual(ix, scan) {
					t.Fatalf("seed %d step %d: %s index %v, scan %v", seed, step, k, ix, scan)
				}
			}
		}
	}
}

// TestConcurrentInsertAndExec races writers interning never-seen values
// (growing the dictionary, the columns and the probed index) against
// readers that execute a plan and then read the result rows after ExecPlan
// has released the lock. Run with -race: result strings must not alias
// anything a writer mutates.
func TestConcurrentInsertAndExec(t *testing.T) {
	db := New()
	db.MustCreateTable("T", "k", "v")
	db.MustInsert("T", "hot", "v0")
	atoms := []ir.Atom{ir.NewAtom("T", ir.Const("hot"), ir.Var("v"))}

	const writers, perWriter, readers = 2, 300, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				db.MustInsert("T", "hot", fmt.Sprintf("w%d-%d", w, i))
				db.MustInsert("T", fmt.Sprintf("cold%d-%d", w, i), "x")
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := db.CompilePlan(atoms, nil)
			var st ExecState
			last := 0
			for i := 0; i < 200; i++ {
				n, err := db.ExecPlan(p, &st, EvalOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if n < last {
					t.Errorf("result shrank from %d to %d rows", last, n)
					return
				}
				last = n
				if st.Row(0)[0] != "v0" {
					t.Errorf("first row = %v, want the first insert", st.Row(0))
					return
				}
				for j := 0; j < n; j++ {
					if v := st.Row(j)[0]; v == "" || v == "x" {
						t.Errorf("row %d = %q: not a value inserted under \"hot\"", j, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := probe(db, "T", 0, "hot"); len(got) != 1+writers*perWriter {
		t.Fatalf("hot has %d postings, want %d", len(got), 1+writers*perWriter)
	}
}
