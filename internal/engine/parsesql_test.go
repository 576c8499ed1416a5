package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"entangle/internal/eqsql"
	"entangle/internal/memdb"
)

func prepareDB() *memdb.DB {
	db := memdb.New()
	db.MustCreateTable("Flights", "fno", "dest")
	for _, r := range [][]string{{"122", "Paris"}, {"123", "Paris"}, {"136", "Rome"}} {
		db.MustInsert("Flights", r...)
	}
	return db
}

// TestParseSQLFollowsDDL: ParseSQL translates statements of one shape from
// a cached template, so a DROP TABLE and a CREATE TABLE with different
// columns between two such statements must change the second translation —
// it must match a direct translation against the new schema, not the
// template built for the old one.
func TestParseSQLFollowsDDL(t *testing.T) {
	db := prepareDB()
	e := New(db, Config{Mode: Incremental, Shards: 1})
	defer e.Close()
	stmt := func(who string) string {
		return fmt.Sprintf(`SELECT '%s', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') CHOOSE 1`, who)
	}
	direct := func(src string) string {
		t.Helper()
		tr, err := eqsql.Parse(0, src, eqsql.DBSchema{DB: db}, eqsql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Query.String()
	}
	parse := func(src string) string {
		t.Helper()
		q, err := e.ParseSQL(src)
		if err != nil {
			t.Fatal(err)
		}
		return q.String()
	}
	before := parse(stmt("Kramer"))
	if want := direct(stmt("Kramer")); before != want {
		t.Fatalf("before DDL: %s, want %s", before, want)
	}
	if got, want := parse(stmt("Jerry")), direct(stmt("Jerry")); got != want {
		t.Fatalf("same shape, new literal: %s, want %s", got, want)
	}
	if err := e.Load("DROP TABLE Flights; CREATE TABLE Flights (dest, gate, fno);"); err != nil {
		t.Fatal(err)
	}
	after := parse(stmt("Kramer"))
	if want := direct(stmt("Kramer")); after != want {
		t.Fatalf("after DDL: %s, want %s", after, want)
	}
	if after == before {
		t.Fatalf("DDL did not change the translation: %s", after)
	}
}

// TestPrepareSubmitDropRace exercises concurrent SubmitSQL calls of one
// statement shape (they differ only in their literals, so all of them bind
// one cached template) while DDL (Create/Drop) churns the stats epoch — the
// shape cache is invalidated and refilled under shard parallelism. Run with
// -race; the correctness assertion is that every coordinated pair still
// answers.
func TestPrepareSubmitDropRace(t *testing.T) {
	db := prepareDB()
	e := New(db, Config{Mode: Incremental})
	defer e.Close()

	const pairs = 40
	var wg sync.WaitGroup
	errs := make(chan error, pairs+1)

	// DDL churn: repeatedly create and drop an unrelated table, bumping the
	// stats epoch and forcing re-translation of the shared shape mid-stream.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("Churn%d", i%4)
			if err := db.CreateTable(name, "a"); err == nil {
				_ = db.DropTable(name)
			}
		}
	}()

	// Pair p's owners are distinct constants, so pairs never unify with one
	// another although every statement names the same ANSWER relation.
	stmt := func(me, partner string) string {
		return fmt.Sprintf(`SELECT '%s', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')
AND ('%s', fno) IN ANSWER R CHOOSE 1`, me, partner)
	}
	for p := 0; p < pairs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k, j := fmt.Sprintf("Kramer%d", p), fmt.Sprintf("Jerry%d", p)
			h1, err := e.SubmitSQL(stmt(k, j))
			if err != nil {
				errs <- err
				return
			}
			h2, err := e.SubmitSQL(stmt(j, k))
			if err != nil {
				errs <- err
				return
			}
			for _, h := range []*Handle{h1, h2} {
				r, err := h.Wait(10 * time.Second)
				if err != nil {
					errs <- err
					return
				}
				if r.Status != StatusAnswered {
					errs <- fmt.Errorf("pair %d: %s (%s)", p, r.Status, r.Detail)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	<-churnDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
