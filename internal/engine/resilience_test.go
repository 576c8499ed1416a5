package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"entangle/internal/fault"
	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/wal"
)

func resilienceDB(t *testing.T) *memdb.DB {
	t.Helper()
	db := memdb.New()
	db.MustCreateTable("F", "fno", "dest")
	db.MustInsert("F", "136", "Rome")
	db.MustInsert("F", "122", "Paris")
	return db
}

func mustParse(t *testing.T, src string) *ir.Query {
	t.Helper()
	q, err := ir.Parse(0, src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestOverloadShedAndDrain pins the MaxPending contract: submissions past
// the cap shed with ErrOverloaded before any shard work, whole batches are
// refused atomically, and draining the pending set (here via staleness
// expiry) restores admission.
func TestOverloadShedAndDrain(t *testing.T) {
	e := New(resilienceDB(t), Config{
		Mode: Incremental, Shards: 1, Seed: 0,
		MaxPending: 2, StaleAfter: 10 * time.Millisecond,
	})
	defer e.Close()

	// Two partnerless queries fill the cap.
	for i := 1; i <= 2; i++ {
		src := fmt.Sprintf("{P%d(A, x)} P%d(B, x) :- F(x, Rome)", i, i)
		if _, err := e.Submit(mustParse(t, src)); err != nil {
			t.Fatalf("submit %d under cap: %v", i, err)
		}
	}
	_, err := e.Submit(mustParse(t, "{P3(A, x)} P3(B, x) :- F(x, Rome)"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past cap: err = %v, want ErrOverloaded", err)
	}
	// A batch that would cross the cap is refused whole — no partial
	// admission.
	before := e.Stats().Submitted
	_, err = e.SubmitBatch([]*ir.Query{
		mustParse(t, "{Q1(A, x)} Q1(B, x) :- F(x, Rome)"),
		mustParse(t, "{Q2(A, x)} Q2(B, x) :- F(x, Rome)"),
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch past cap: err = %v, want ErrOverloaded", err)
	}
	if _, err := e.SubmitBatch([]*ir.Query{
		mustParse(t, "{Q3(A, x)} Q3(B, x) :- F(x, Rome)"),
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("one-query batch past cap: err = %v, want ErrOverloaded", err)
	}
	if got := e.Stats().Submitted; got != before {
		t.Fatalf("shed submissions changed Submitted: %d → %d", before, got)
	}
	if got := e.Stats().Overloaded; got != 3 {
		t.Fatalf("Stats.Overloaded = %d, want 3", got)
	}

	// Drain: the partnerless queries expire, freeing capacity.
	time.Sleep(15 * time.Millisecond)
	if n := e.ExpireStale(); n != 2 {
		t.Fatalf("ExpireStale = %d, want 2", n)
	}
	if g := e.pendingGauge.Load(); g != 0 {
		t.Fatalf("pendingGauge = %d after drain, want 0", g)
	}
	// Admission works again: a coordinating pair answers within the cap.
	h1, err := e.Submit(mustParse(t, "{R(J, x)} R(K, x) :- F(x, Rome)"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(mustParse(t, "{R(K, y)} R(J, y) :- F(y, Rome)"))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []*Handle{h1, h2} {
		r, err := h.Wait(5 * time.Second)
		if err != nil || r.Status != StatusAnswered {
			t.Fatalf("post-drain pair %d: %+v (%v)", i, r, err)
		}
	}
	if g := e.pendingGauge.Load(); g != 0 {
		t.Fatalf("pendingGauge = %d after retirement, want 0", g)
	}
}

// TestWALPoisonFailStop pins the engine-level fail-stop: a failed fsync
// poisons the WAL, later submissions fail fast with ErrWALPoisoned (no
// acknowledged-but-lost writes), a checkpoint clears the state, and a
// reopen on a healthy filesystem recovers everything the engine
// acknowledged.
func TestWALPoisonFailStop(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(5)
	db := memdb.New()
	cfg := Config{
		Mode: Incremental, Shards: 1, Seed: 0,
		DataDir: dir, Durability: DurabilitySync, CheckpointEvery: -1,
		WALFS: fault.NewFS(fault.OS{}, in),
	}
	e, err := Open(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load("CREATE TABLE F (fno, dest);\nINSERT INTO F VALUES ('136', 'Rome');"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(mustParse(t, "{A1(P, x)} A1(Q, x) :- F(x, Rome)")); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}

	// Every fsync fails from here: the next durable submit poisons the log.
	in.Every(fault.OpFileSync, 1, fault.Fail)
	_, err = e.Submit(mustParse(t, "{A2(P, x)} A2(Q, x) :- F(x, Rome)"))
	if !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("submit under failing fsync: err = %v, want ErrWALPoisoned", err)
	}
	if !errors.Is(err, wal.ErrPoisoned) {
		t.Fatal("ErrWALPoisoned must alias wal.ErrPoisoned for errors.Is")
	}
	if st := e.Stats(); st.WAL == nil || !st.WAL.Poisoned {
		t.Fatalf("Stats.WAL.Poisoned not set: %+v", st.WAL)
	}

	// Fail-stop holds even after the disk heals, until a checkpoint.
	in.Every(fault.OpFileSync, 0, fault.None)
	if _, err := e.Submit(mustParse(t, "{A3(P, x)} A3(Q, x) :- F(x, Rome)")); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("submit on poisoned WAL: err = %v, want fast ErrWALPoisoned", err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint to clear poison: %v", err)
	}
	if st := e.Stats(); st.WAL.Poisoned {
		t.Fatal("Stats.WAL.Poisoned still set after checkpoint")
	}
	h, err := e.Submit(mustParse(t, "{A1(Q, y)} A1(P, y) :- F(y, Rome)"))
	if err != nil {
		t.Fatalf("submit after clearing checkpoint: %v", err)
	}
	if r, err := h.Wait(5 * time.Second); err != nil || r.Status != StatusAnswered {
		t.Fatalf("post-clear coordination: %+v (%v)", r, err)
	}
	e.Close()

	// Reopen on a healthy filesystem: acknowledged state survives.
	db2 := memdb.New()
	cfg2 := cfg
	cfg2.WALFS = nil
	e2, err := Open(db2, cfg2)
	if err != nil {
		t.Fatalf("reopen after poison episode: %v", err)
	}
	defer e2.Close()
	st := e2.Stats()
	// One pair answered pre-crash; nothing else was acknowledged pending.
	if st.Answered != 2 {
		t.Fatalf("recovered Answered = %d, want 2", st.Answered)
	}
	if len(e2.Recovered()) != 0 {
		t.Fatalf("recovered pending = %d handles, want 0", len(e2.Recovered()))
	}
}

// TestChaosEngineSeeds replays seeded fault plans against a durable engine:
// for every pinned seed, each submission must reach exactly one outcome —
// an admission error (possibly typed ErrWALPoisoned) or a handle that
// yields at most one result — the pending gauge must match reality, and a
// reopen on a healthy filesystem must recover and serve new queries.
func TestChaosEngineSeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			in := fault.Plan(seed, 2).WithDelay(100 * time.Microsecond)
			db := memdb.New()
			cfg := Config{
				Mode: Incremental, Shards: 1, Seed: 0,
				DataDir: dir, Durability: DurabilitySync, CheckpointEvery: -1,
				WALFS: fault.NewFS(fault.OS{}, in),
			}
			e, err := Open(db, cfg)
			if err != nil {
				// The plan can fault the very first checkpoint; that is a
				// clean startup failure, not a broken contract.
				t.Logf("Open faulted (acceptable): %v", err)
				return
			}
			if err := e.Load("CREATE TABLE F (fno, dest);\nINSERT INTO F VALUES ('136', 'Rome');"); err != nil {
				if !errors.Is(err, ErrWALPoisoned) {
					t.Fatalf("Load failed untyped: %v", err)
				}
				e.Close()
				return
			}
			var handles []*Handle
			admitErrs := 0
			for i := 1; i <= 8; i++ {
				a := fmt.Sprintf("{C%d(J, x)} C%d(K, x) :- F(x, Rome)", i, i)
				b := fmt.Sprintf("{C%d(K, y)} C%d(J, y) :- F(y, Rome)", i, i)
				for _, src := range []string{a, b} {
					h, err := e.Submit(mustParse(t, src))
					if err != nil {
						// Exactly-one-outcome leg 1: a typed admission error.
						if !errors.Is(err, ErrWALPoisoned) {
							t.Fatalf("submit error is untyped: %v", err)
						}
						admitErrs++
						continue
					}
					handles = append(handles, h)
				}
			}
			if e.Stats().WAL.Poisoned {
				// Post-fault recovery path: a checkpoint must clear poison
				// once the plan's finite schedule is exhausted.
				in.Every(fault.OpFileSync, 0, fault.None)
				if err := e.Checkpoint(); err != nil {
					t.Fatalf("clearing checkpoint: %v", err)
				}
				if _, err := e.Submit(mustParse(t, "{Z(A, x)} Z(B, x) :- F(x, Rome)")); err != nil {
					t.Fatalf("submit after clearing checkpoint: %v", err)
				}
			}
			// Exactly-one-outcome leg 2: every handle has at most one result
			// buffered, never two.
			delivered := 0
			for i, h := range handles {
				select {
				case <-h.Done():
					delivered++
					select {
					case r2 := <-h.Done():
						t.Fatalf("handle %d delivered a second result: %+v", i, r2)
					default:
					}
				default: // still pending (its partner's admission was shed)
				}
			}
			t.Logf("seed %d: %d delivered, %d admission errors, faults %+v",
				seed, delivered, admitErrs, in.Stats())
			e.Close()

			// Reopen healthy: recovery works and the engine still answers.
			db2 := memdb.New()
			cfg2 := cfg
			cfg2.WALFS = nil
			e2, err := Open(db2, cfg2)
			if err != nil {
				t.Fatalf("reopen after chaos run: %v", err)
			}
			defer e2.Close()
			h1, err := e2.Submit(mustParse(t, "{Post(J, x)} Post(K, x) :- F(x, Rome)"))
			if err != nil {
				t.Fatal(err)
			}
			h2, err := e2.Submit(mustParse(t, "{Post(K, y)} Post(J, y) :- F(y, Rome)"))
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []*Handle{h1, h2} {
				if r, err := h.Wait(5 * time.Second); err != nil || r.Status != StatusAnswered {
					t.Fatalf("post-recovery pair: %+v (%v)", r, err)
				}
			}
		})
	}
}
