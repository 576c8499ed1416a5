package engine

import (
	"strings"
	"testing"
	"time"

	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
	"entangle/internal/wal"
)

// fig4Clash is Section 4.1.4's failure variant of Figure 4: q1's head T(x3)
// feeds both q2's postcondition T(1) and q3's T(2), so the component's
// unifier forces x3 = 1 and x3 = 2 at once.
func fig4Clash() []*ir.Query {
	return []*ir.Query{
		ir.MustParse(0, "{R(x1) ∧ S(x2)} T(x3) :- D1(x1, x2, x3)"),
		ir.MustParse(0, "{T(1)} R(y1) :- D2(y1)"),
		ir.MustParse(0, "{T(2)} S(z2) :- D3(z2)"),
	}
}

// checkFig4Clash asserts the variant's outcome on handles in submission
// order: q1 is rejected for the clash, q2 and q3 by the cascade.
func checkFig4Clash(t *testing.T, hs []*Handle) {
	t.Helper()
	if len(hs) != 3 {
		t.Fatalf("%d handles, want 3", len(hs))
	}
	for i, want := range []string{"unifier clash", "cascade cleanup", "cascade cleanup"} {
		r, err := hs[i].Wait(5 * time.Second)
		if err != nil {
			t.Fatalf("q%d: %v", i+1, err)
		}
		if r.Status != StatusRejected || !strings.HasPrefix(r.Detail, want) {
			t.Errorf("q%d: %s %q, want rejected %q", i+1, r.Status, r.Detail, want)
		}
	}
}

// TestFig4VariantClashEveryPath drives the clash through each way a query
// reaches a shard — one at a time, as one batch, and re-admitted by crash
// recovery — so the matcher's clash fallback is exercised end to end.
func TestFig4VariantClashEveryPath(t *testing.T) {
	t.Run("Submit", func(t *testing.T) {
		e := New(memdb.New(), Config{Mode: Incremental, Shards: 2})
		defer e.Close()
		var hs []*Handle
		for _, q := range fig4Clash() {
			h, err := e.Submit(q)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		checkFig4Clash(t, hs)
	})
	t.Run("SubmitBatch", func(t *testing.T) {
		e := New(memdb.New(), Config{Mode: Incremental, Shards: 2})
		defer e.Close()
		hs, err := e.SubmitBatch(fig4Clash())
		if err != nil {
			t.Fatal(err)
		}
		checkFig4Clash(t, hs)
	})
	t.Run("Open", func(t *testing.T) {
		// Set-at-a-time with no flush keeps the closed component pending
		// through Close's checkpoint; Open re-admits it and its recovery
		// round evaluates it.
		dir := t.TempDir()
		cfg := durCfg(dir, wal.Sync)
		cfg.Mode = SetAtATime
		e, err := Open(memdb.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.SubmitBatch(fig4Clash()); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Pending != 3 {
			t.Fatalf("pending before restart = %d, want 3", st.Pending)
		}
		e.Close()
		e2, err := Open(memdb.New(), durCfg(dir, wal.Sync))
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		checkFig4Clash(t, e2.Recovered())
	})
}

// TestRestorePendingRejectsUnsafe: recovery re-admits through the same
// safety check a fresh submission passes. Two recovered queries that make
// the pending set unsafe together resolve the higher ID StatusUnsafe, with
// the detail Check gives, and leave the lower one pending.
func TestRestorePendingRejectsUnsafe(t *testing.T) {
	cases := []struct{ name, q1, q2 string }{
		// q2's two heads both feed q1's postcondition R(J, x).
		{"head side", "{R(J, x)} R(K, x) :- F(x, Paris)",
			"{R(K, y)} R(J, y) ∧ R(J, z) :- F(y, Paris) ∧ F(z, Rome)"},
		// q1's two heads both feed q2's postcondition R(K, y).
		{"post side", "{R(J, x)} R(K, x) ∧ R(K, w) :- F(x, Paris) ∧ F(w, Rome)",
			"{R(K, y)} R(J, y) :- F(y, Paris)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q1, q2 := ir.MustParse(0, c.q1), ir.MustParse(0, c.q2)
			// The verdict a fresh submission of q2 after q1 would get.
			ck := match.NewSafetyChecker()
			if err := ck.Admit(q1.RenamedCopy(1)); err != nil {
				t.Fatal(err)
			}
			verdict := ck.Check(q2.RenamedCopy(2))
			if verdict == nil {
				t.Fatal("crafted pair is safe")
			}

			e := New(memdb.New(), Config{Mode: Incremental, Shards: 2})
			defer e.Close()
			at := time.Now().UnixNano()
			err := e.restorePending([]wal.PendingQuery{
				{ID: 1, Choose: q1.Choose, IR: encodeQuery(q1), SubmittedUnixNano: at},
				{ID: 2, Choose: q2.Choose, IR: encodeQuery(q2), SubmittedUnixNano: at},
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := e.Recovered()
			if len(rec) != 2 || rec[0].ID != 1 || rec[1].ID != 2 {
				t.Fatalf("recovered %v", rec)
			}
			select {
			case r := <-rec[1].Done():
				if r.Status != StatusUnsafe || r.Detail != verdict.Error() {
					t.Fatalf("q2: %s %q, want unsafe %q", r.Status, r.Detail, verdict)
				}
			default:
				t.Fatal("q2 not resolved by recovery")
			}
			select {
			case r := <-rec[0].Done():
				t.Fatalf("q1 resolved: %+v", r)
			default:
			}
			if st := e.Stats(); st.Submitted != 2 || st.RejectedUnsafe != 1 || st.Pending != 1 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}
