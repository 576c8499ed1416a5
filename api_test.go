package entangle

// Tests for the public context-first API: Open/Submit/Wait semantics, typed
// sentinel errors, and SubmitBatch's equivalence with one-at-a-time
// submission.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"entangle/internal/workload"
)

func flightsSystem(t testing.TB, opts ...Option) *System {
	t.Helper()
	sys, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	sys.MustCreateTable("Flights", "fno", "dest")
	sys.MustCreateTable("F", "fno", "dest")
	for _, r := range [][]string{{"122", "Paris"}, {"123", "Paris"}, {"136", "Rome"}} {
		sys.MustInsert("Flights", r...)
		sys.MustInsert("F", r...)
	}
	return sys
}

func TestSystemQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	sys := flightsSystem(t)
	h1, err := sys.SubmitSQL(ctx, `SELECT 'Kramer', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('Jerry', fno) IN ANSWER R CHOOSE 1`)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sys.SubmitIR(ctx, "{R(Kramer, y)} R(Jerry, y) :- Flights(y, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Err() != nil || r2.Err() != nil {
		t.Fatalf("errs %v/%v", r1.Err(), r2.Err())
	}
	if r1.Answer.Tuples[0].Args[1].Value != r2.Answer.Tuples[0].Args[1].Value {
		t.Fatal("not coordinated")
	}
	if sys.Stats().Answered != 2 {
		t.Fatalf("stats = %+v", sys.Stats())
	}
}

func TestSubmitAfterCloseIsErrClosed(t *testing.T) {
	ctx := context.Background()
	sys := flightsSystem(t)
	sys.Close()
	sys.Close() // idempotent
	if _, err := sys.SubmitIR(ctx, "{} R(A, x) :- F(x, Paris)"); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitIR after close: %v, want ErrClosed", err)
	}
	if _, err := sys.SubmitSQL(ctx, `SELECT 'A', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM F WHERE dest='Paris') CHOOSE 1`); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitSQL after close: %v, want ErrClosed", err)
	}
	if _, err := sys.SubmitBatch(ctx, []*Query{MustParseIR("{} R(A, x) :- F(x, Paris)")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after close: %v, want ErrClosed", err)
	}
}

func TestSubmitCancelledContext(t *testing.T) {
	sys := flightsSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.SubmitIR(ctx, "{} R(A, x) :- F(x, Paris)"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := sys.Stats(); st.Submitted != 0 {
		t.Fatalf("cancelled submit reached the engine: %+v", st)
	}
}

// TestWaitContextCancelKeepsResult is the context-semantics contract: a
// cancelled Wait returns ctx.Err() without consuming the query's result,
// which a later Wait still retrieves; and once retrieved, further Waits
// return the cached result even with a cancelled context.
func TestWaitContextCancelKeepsResult(t *testing.T) {
	ctx := context.Background()
	sys := flightsSystem(t)
	// A query whose partner has not arrived: Wait must block.
	h1, err := sys.SubmitIR(ctx, "{R(B, x)} R(A, x) :- F(x, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := h1.Wait(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on pending query with cancelled ctx: %v, want context.Canceled", err)
	}
	tctx, tcancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer tcancel()
	if _, err := h1.Wait(tctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait timeout: %v, want context.DeadlineExceeded", err)
	}
	// Partner arrives; the earlier cancellations must not have lost the
	// result.
	h2, err := sys.SubmitIR(ctx, "{R(A, y)} R(B, y) :- F(y, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Err() != nil {
		t.Fatalf("r1 = %v", r1.Err())
	}
	// Result is cached: a cancelled context no longer matters (the cached
	// result must win deterministically, not by select coin flip), and
	// repeated Waits agree.
	for i := 0; i < 50; i++ {
		again, err := h1.Wait(cctx)
		if err != nil || again.Status != r1.Status {
			t.Fatalf("re-Wait %d with cancelled ctx: %v / %v", i, again, err)
		}
	}
	if _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestResultErrTyped(t *testing.T) {
	ctx := context.Background()

	// Stale: a loner expires once the staleness bound passes.
	sys := flightsSystem(t, WithStaleAfter(time.Nanosecond))
	h, err := sys.SubmitIR(ctx, "{R(B, x)} R(A, x) :- F(x, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if n := sys.ExpireStale(); n != 1 {
		t.Fatalf("expired %d", n)
	}
	r, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(r.Err(), ErrStale) {
		t.Fatalf("stale result err = %v, want ErrStale", r.Err())
	}
	var qe *QueryError
	if !errors.As(r.Err(), &qe) || qe.Status != StatusStale {
		t.Fatalf("QueryError = %+v", qe)
	}

	// Unsafe: a postcondition unifying with two pending heads is rejected
	// at admission (set-at-a-time keeps both heads pending).
	sys2 := flightsSystem(t, WithMode(SetAtATime))
	if _, err := sys2.SubmitIR(ctx, "{S(A, x)} R(A, x) :- F(x, Paris)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.SubmitIR(ctx, "{S(B, y)} R(B, y) :- F(y, Paris)"); err != nil {
		t.Fatal(err)
	}
	h3, err := sys2.SubmitIR(ctx, "{R(w, v)} S(C, v) :- F(v, Paris) ∧ F(w, Paris)")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := h3.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(r3.Err(), ErrUnsafe) {
		t.Fatalf("unsafe result err = %v (status %v), want ErrUnsafe", r3.Err(), r3.Status)
	}

	// Rejected: coordination matched but the data yields no rows.
	sys3 := flightsSystem(t)
	ha, err := sys3.SubmitIR(ctx, "{R(B, x)} R(A, x) :- F(x, Atlantis)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys3.SubmitIR(ctx, "{R(A, y)} R(B, y) :- F(y, Atlantis)"); err != nil {
		t.Fatal(err)
	}
	ra, err := ha.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ra.Err(), ErrRejected) {
		t.Fatalf("rejected result err = %v, want ErrRejected", ra.Err())
	}
}

func TestParseErrorsCarryOffsets(t *testing.T) {
	ctx := context.Background()
	sys := flightsSystem(t)
	var pe *ParseError

	_, err := sys.SubmitSQL(ctx, "SELECT 'A', fno INTO NOWHERE")
	if err == nil || !errors.As(err, &pe) {
		t.Fatalf("SQL err = %v, want *ParseError", err)
	}
	if pe.Offset <= 0 {
		t.Fatalf("SQL parse offset = %d", pe.Offset)
	}

	pe = nil
	_, err = sys.SubmitIR(ctx, "{R(B, x)} R(A, x :- F(x, Paris)")
	if err == nil || !errors.As(err, &pe) {
		t.Fatalf("IR err = %v, want *ParseError", err)
	}
	if pe.Offset <= 0 {
		t.Fatalf("IR parse offset = %d", pe.Offset)
	}

	if _, err := ParseIR("{} R(A, x) :- F(x, Paris)"); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchMatchesSingles drives identical seeded workloads through
// SubmitBatch and through one-at-a-time Submit, across both modes, and
// requires identical answered/failed counts — the batch fast path is an
// amortisation, not a semantics change.
func TestSubmitBatchMatchesSingles(t *testing.T) {
	g := workload.NewGraph(workload.Config{N: 600, AvgDeg: 8, Seed: 9, Airports: 25})
	ctx := context.Background()

	for _, mode := range []Mode{Incremental, SetAtATime} {
		gen := workload.NewGen(g, 9)
		gen.DistinctRels = true
		qs := gen.Interleave(gen.TwoWayBest(g.FriendPairs(60, 9)))

		run := func(batched bool) Stats {
			sys, err := Open(WithMode(mode), WithShards(4), WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := workload.PopulateDB(sys.DB(), g); err != nil {
				t.Fatal(err)
			}
			var handles []*Handle
			if batched {
				var err error
				handles, err = sys.SubmitBatch(ctx, qs)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				for _, q := range qs {
					h, err := sys.Submit(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					handles = append(handles, h)
				}
			}
			sys.Flush()
			st := sys.Stats()
			// Every delivered handle must resolve; drain those already done.
			done := 0
			for _, h := range handles {
				hctx, hcancel := context.WithTimeout(ctx, 10*time.Millisecond)
				if _, err := h.Wait(hctx); err == nil {
					done++
				}
				hcancel()
			}
			if done != st.Answered+st.Rejected+st.RejectedUnsafe {
				t.Fatalf("mode %v batched=%v: %d resolved handles vs stats %+v", mode, batched, done, st)
			}
			return st
		}

		single := run(false)
		batch := run(true)
		if single.Answered != batch.Answered || single.Rejected != batch.Rejected ||
			single.RejectedUnsafe != batch.RejectedUnsafe || single.Pending != batch.Pending {
			t.Fatalf("mode %v: single %+v vs batch %+v", mode, single, batch)
		}
		if single.Answered == 0 {
			t.Fatalf("mode %v: workload never coordinated", mode)
		}
		// The whole point: the batch run resolved every route in one pass
		// and locked each touched shard once, instead of once per query.
		if batch.RouterPasses != 1 {
			t.Fatalf("mode %v: batch took %d router passes", mode, batch.RouterPasses)
		}
		if batch.SubmitLocks > 4 {
			t.Fatalf("mode %v: batch took %d submit locks for 4 shards", mode, batch.SubmitLocks)
		}
		if single.RouterPasses != len(qs) {
			t.Fatalf("mode %v: singles took %d router passes for %d queries", mode, single.RouterPasses, len(qs))
		}
	}
}

func TestSubmitBatchEmptyAndParseSQLBatch(t *testing.T) {
	ctx := context.Background()
	sys := flightsSystem(t)
	hs, err := sys.SubmitBatch(ctx, nil)
	if err != nil || len(hs) != 0 {
		t.Fatalf("empty batch: %v, %v", hs, err)
	}
	// Batches built from ParseSQL coordinate like direct submissions.
	var qs []*Query
	for _, who := range []struct{ me, partner string }{{"Kramer", "Jerry"}, {"Jerry", "Kramer"}} {
		tr, err := sys.ParseSQL(fmt.Sprintf(`SELECT '%s', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('%s', fno) IN ANSWER R CHOOSE 1`, who.me, who.partner))
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, tr.Query)
	}
	handles, err := sys.SubmitBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		r, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Err() != nil {
			t.Fatalf("batch member failed: %v", r.Err())
		}
	}
}

func TestSystemSetAtATime(t *testing.T) {
	ctx := context.Background()
	sys := flightsSystem(t, WithMode(SetAtATime))
	h1, _ := sys.SubmitIR(ctx, "{R(B, x)} R(A, x) :- F(x, Rome)")
	h2, _ := sys.SubmitIR(ctx, "{R(A, y)} R(B, y) :- F(y, Rome)")
	sys.Flush()
	r1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Err() != nil || r2.Err() != nil {
		t.Fatalf("errs %v/%v", r1.Err(), r2.Err())
	}
	if r1.Answer.Tuples[0].Args[1].Value != "136" {
		t.Fatalf("flight = %v", r1.Answer.Tuples[0])
	}
}

func TestSystemCoordinateAndExtensions(t *testing.T) {
	sys := flightsSystem(t)
	out, err := sys.Coordinate([]*Query{
		mustParseWithID(1, "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)"),
		mustParseWithID(2, "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 2 {
		t.Fatalf("answers = %v", out.Answers)
	}
	tr, err := sys.ParseSQL(`SELECT 'K', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') CHOOSE 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Query.Body) != 1 || tr.Query.Body[0].Rel != "Flights" {
		t.Fatalf("query = %s", tr.Query)
	}
}

func TestSystemRunBackground(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys := flightsSystem(t,
		WithMode(SetAtATime),
		WithStaleAfter(30*time.Millisecond),
		WithFlushInterval(10*time.Millisecond),
	)
	go sys.Run(ctx)
	h1, _ := sys.SubmitIR(ctx, "{R(Jerry, x)} R(Kramer, x) :- F(x, Paris)")
	h2, _ := sys.SubmitIR(ctx, "{R(Kramer, y)} R(Jerry, y) :- F(y, Paris)")
	wctx, wcancel := context.WithTimeout(ctx, 5*time.Second)
	defer wcancel()
	for _, h := range []*Handle{h1, h2} {
		r, err := h.Wait(wctx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Err() != nil {
			t.Fatalf("background flush never answered: %v", r.Err())
		}
	}
	// A loner goes stale via the background loop.
	h3, _ := sys.SubmitIR(ctx, "{R(Q, z)} R(P, z) :- F(z, Paris)")
	r3, err := h3.Wait(wctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(r3.Err(), ErrStale) {
		t.Fatalf("r3 = %v", r3.Err())
	}
}

func mustParseWithID(id QueryID, text string) *Query {
	q := MustParseIR(text)
	q.ID = id
	return q
}
