package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/workload"
)

// BenchmarkSubmitCoordinatePair measures the engine's steady-state
// incremental path: a pair arrives, coordinates, and retires.
func BenchmarkSubmitCoordinatePair(b *testing.B) {
	db := memdb.New()
	db.MustCreateTable("F", "fno", "dest")
	db.MustInsert("F", "122", "Paris")
	e := New(db, Config{Mode: Incremental})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := fmt.Sprintf("R%d", i)
		h1, err := e.Submit(ir.MustParse(0, fmt.Sprintf("{%s(B, x)} %s(A, x) :- F(x, Paris)", rel, rel)))
		if err != nil {
			b.Fatal(err)
		}
		h2, err := e.Submit(ir.MustParse(0, fmt.Sprintf("{%s(A, y)} %s(B, y) :- F(y, Paris)", rel, rel)))
		if err != nil {
			b.Fatal(err)
		}
		if r := <-h1.Done(); r.Status != StatusAnswered {
			b.Fatalf("r1 = %v", r.Status)
		}
		if r := <-h2.Done(); r.Status != StatusAnswered {
			b.Fatalf("r2 = %v", r.Status)
		}
	}
}

// pairSQL is the socket benchmark's pairs_point statement: user u flies to
// dest with exactly friend p, all lookups point lookups.
func pairSQL(rel string, u, p int, dest string) string {
	us, ps := workload.UserName(u), workload.UserName(p)
	return fmt.Sprintf("SELECT '%s', '%s' INTO ANSWER %s WHERE ('%s', '%s') IN ANSWER %s AND "+
		"c IN (SELECT T1.city FROM F T0, U T1, U T2 WHERE T0.u1 = '%s' AND T0.u2 = '%s' "+
		"AND T1.u = '%s' AND T2.u = '%s' AND T2.city = T1.city) CHOOSE 1",
		us, dest, rel, ps, dest, rel, us, ps, us, ps)
}

// BenchmarkParseSQL measures Engine.ParseSQL on pairSQL: one statement
// shape, different users every iteration.
func BenchmarkParseSQL(b *testing.B) {
	socialEnv(b)
	e := New(socialDB, Config{})
	defer e.Close()
	srcs := make([]string, 1024)
	for i := range srcs {
		srcs[i] = pairSQL("R_t5", i, i+1, "AAB")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ParseSQL(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// Shared social substrate for the sharded-vs-single-lock benchmark pairs
// (building the graph and database once keeps iteration setup cheap).
var (
	socialOnce  sync.Once
	socialGraph *workload.Graph
	socialDB    *memdb.DB
	socialPairs [][2]int
)

func socialEnv(b testing.TB) {
	b.Helper()
	socialOnce.Do(func() {
		socialGraph = workload.NewGraph(workload.Config{N: 2000, AvgDeg: 10, Seed: 17, Airports: 60})
		socialDB = memdb.New()
		if err := workload.PopulateDB(socialDB, socialGraph); err != nil {
			panic(err)
		}
		socialPairs = socialGraph.FriendPairs(4096, 17)
	})
}

// socialPairQueries builds n fully specified coordinating queries (n/2
// friend pairs) over the social substrate, each pair on its own ANSWER
// relation so independent pairs are routable to different shards — the
// workload shape of many applications sharing one engine.
func socialPairQueries(n int) []*ir.Query {
	qs := make([]*ir.Query, 0, n+1)
	for i := 0; len(qs) < n; i++ {
		p := socialPairs[i%len(socialPairs)]
		rel := fmt.Sprintf("R_b%d", i)
		dest := socialGraph.Airport(i % 60)
		u, v := workload.UserName(p[0]), workload.UserName(p[1])
		mk := func(me, partner string) *ir.Query {
			return &ir.Query{
				Owner:  me,
				Choose: 1,
				Heads:  []ir.Atom{ir.NewAtom(rel, ir.Const(me), ir.Const(dest))},
				Posts:  []ir.Atom{ir.NewAtom(rel, ir.Const(partner), ir.Const(dest))},
				Body: []ir.Atom{
					ir.NewAtom(workload.FriendsRel, ir.Const(me), ir.Const(partner)),
					ir.NewAtom(workload.UserRel, ir.Const(me), ir.Var("c")),
					ir.NewAtom(workload.UserRel, ir.Const(partner), ir.Var("c")),
				},
			}
		}
		qs = append(qs, mk(u, v), mk(v, u))
	}
	return qs[:n]
}

// benchmarkSubmitSocial measures concurrent Submit throughput on the social
// pair workload: one submitter goroutine per GOMAXPROCS (RunParallel's
// default — deliberately not SetParallelism, which would multiply by the
// core count and oversubscribe a multicore host) races queries into the
// engine, each pair coordinating (and usually retiring) on arrival of its
// second member.
func benchmarkSubmitSocial(b *testing.B, shards int) {
	socialEnv(b)
	qs := socialPairQueries(b.N)
	e := New(socialDB, Config{Mode: Incremental, Shards: shards})
	defer e.Close()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			if i >= len(qs) {
				continue
			}
			if _, err := e.Submit(qs[i]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSubmitSocialSingleLock is the pre-sharding baseline: one shard,
// every submission serialised behind a single mutex.
func BenchmarkSubmitSocialSingleLock(b *testing.B) { benchmarkSubmitSocial(b, 1) }

// BenchmarkSubmitSocialSharded8 is the same workload on eight shards.
func BenchmarkSubmitSocialSharded8(b *testing.B) { benchmarkSubmitSocial(b, 8) }

// BenchmarkSubmitSocialBatch64 submits the same social workload through the
// batched fast path in chunks of 64: one router pass and one lock
// acquisition per touched shard per chunk, instead of one of each per
// query. Compare per-op time against BenchmarkSubmitSocialSharded8.
func BenchmarkSubmitSocialBatch64(b *testing.B) {
	socialEnv(b)
	qs := socialPairQueries(b.N)
	e := New(socialDB, Config{Mode: Incremental, Shards: 8})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 64
	for i := 0; i < len(qs); i += batch {
		end := i + batch
		if end > len(qs) {
			end = len(qs)
		}
		if _, err := e.SubmitBatch(qs[i:end]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrivalNonClosing measures the incremental engine's per-arrival
// cost when the arrival does NOT close its component — the dominant case for
// a coordination service, where most queries wait for partners. Only the
// first member of each social pair is submitted, so every component stays
// open and the arrival path's own overhead (admission check, graph insert,
// closedness decision) is isolated from matching and evaluation.
func BenchmarkArrivalNonClosing(b *testing.B) {
	socialEnv(b)
	qs := socialPairQueries(2 * b.N)
	e := New(socialDB, Config{Mode: Incremental, Shards: 1})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Submit(qs[2*i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrivalClosing measures the full coordinate-and-retire cycle:
// each iteration submits both members of a pair, the second arrival closes
// the component, matching runs and the pair retires. Pairs whose members
// share no city evaluate to zero rows and retire rejected — either way the
// whole match-evaluate-deliver path runs, which is what is being timed.
func BenchmarkArrivalClosing(b *testing.B) {
	socialEnv(b)
	qs := socialPairQueries(2 * b.N)
	e := New(socialDB, Config{Mode: Incremental, Shards: 1})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1, err := e.Submit(qs[2*i])
		if err != nil {
			b.Fatal(err)
		}
		h2, err := e.Submit(qs[2*i+1])
		if err != nil {
			b.Fatal(err)
		}
		if r := <-h1.Done(); r.Status != StatusAnswered && r.Status != StatusRejected {
			b.Fatalf("first member: %v", r.Status)
		}
		if r := <-h2.Done(); r.Status != StatusAnswered && r.Status != StatusRejected {
			b.Fatalf("second member: %v", r.Status)
		}
	}
}

// BenchmarkArrivalClosingCacheHit is BenchmarkArrivalClosing in its
// steady state: a warm-up pair compiles the workload's one component
// shape into the plan cache before the clock starts, so every timed
// closing arrival serves its combined-query plan from the cache. The
// benchmark fails if any timed iteration compiles a plan (PlanMisses
// must stay flat) — it pins the cache-hit path, not the compile path.
func BenchmarkArrivalClosingCacheHit(b *testing.B) {
	socialEnv(b)
	qs := socialPairQueries(2*b.N + 2)
	e := New(socialDB, Config{Mode: Incremental, Shards: 1})
	defer e.Close()
	submitPair := func(q1, q2 *ir.Query) {
		h1, err := e.Submit(q1)
		if err != nil {
			b.Fatal(err)
		}
		h2, err := e.Submit(q2)
		if err != nil {
			b.Fatal(err)
		}
		if r := <-h1.Done(); r.Status != StatusAnswered && r.Status != StatusRejected {
			b.Fatalf("first member: %v", r.Status)
		}
		if r := <-h2.Done(); r.Status != StatusAnswered && r.Status != StatusRejected {
			b.Fatalf("second member: %v", r.Status)
		}
	}
	submitPair(qs[0], qs[1]) // prime the plan cache
	misses := e.Stats().PlanMisses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		submitPair(qs[2*i], qs[2*i+1])
	}
	b.StopTimer()
	if got := e.Stats().PlanMisses; got != misses {
		b.Fatalf("PlanMisses grew %d -> %d during timed iterations; expected pure cache hits", misses, got)
	}
}

// benchmarkFlushSocial measures a set-at-a-time flush round over a resident
// pending set that never matches (each query waits for a partner that is
// absent), the steady-state cost of scanning partitions per Section 4.1.2.
func benchmarkFlushSocial(b *testing.B, shards int) {
	socialEnv(b)
	const resident = 2048
	e := New(socialDB, Config{Mode: SetAtATime, Shards: shards})
	defer e.Close()
	qs := socialPairQueries(resident * 2)
	for i := 0; i < resident*2; i += 2 {
		// Submit only the first member of each pair: the component stays
		// open, so every flush rescans it without retiring anything.
		if _, err := e.Submit(qs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Flush()
	}
	if st := e.Stats(); st.Pending != resident {
		b.Fatalf("resident set drained: %+v", st)
	}
}

// BenchmarkFlushSocialSingleLock flushes one graph holding every partition.
func BenchmarkFlushSocialSingleLock(b *testing.B) { benchmarkFlushSocial(b, 1) }

// BenchmarkFlushSocialSharded8 flushes eight shard-local graphs in parallel.
func BenchmarkFlushSocialSharded8(b *testing.B) { benchmarkFlushSocial(b, 8) }

// BenchmarkSubmitPendingNoMatch measures arrival cost when nothing unifies
// and the pending set keeps growing (the Figure 8 "no unification" path).
func BenchmarkSubmitPendingNoMatch(b *testing.B) {
	db := memdb.New()
	db.MustCreateTable("F", "fno", "dest")
	e := New(db, Config{Mode: Incremental})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ir.MustParse(0, fmt.Sprintf("{R(x, P%d)} R(U%d, H%d) :- F(U%d, x)", i, i, i, i))
		if _, err := e.Submit(q); err != nil {
			b.Fatal(err)
		}
	}
}
