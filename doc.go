// Package entangle is a from-scratch Go implementation of entangled
// queries — the declarative data-driven coordination (D3C) language and
// evaluation system of "Entangled Queries: Enabling Declarative Data-Driven
// Coordination" (Gupta, Kot, Roy, Bender, Gehrke, Koch; SIGMOD 2011).
//
// Entangled queries extend SQL with constraints over virtual ANSWER
// relations so that queries from different users are answered jointly with
// a coordinated choice of tuples ("Kramer flies to Paris on the same flight
// as Jerry").
//
// This root package IS the public API: a context-first façade over the
// internal engine. Open a System, load data, submit entangled queries, and
// wait for coordinated answers:
//
//	sys, err := entangle.Open(entangle.WithSeed(42))
//	if err != nil { … }
//	defer sys.Close()
//	sys.MustCreateTable("Flights", "fno", "dest")
//	sys.MustInsert("Flights", "122", "Paris")
//
//	h1, _ := sys.SubmitSQL(ctx, `SELECT 'Kramer', fno INTO ANSWER R
//	    WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
//	    AND ('Jerry', fno) IN ANSWER R CHOOSE 1`)
//	h2, _ := sys.SubmitSQL(ctx, `SELECT 'Jerry', fno INTO ANSWER R …`)
//	r1, _ := h1.Wait(ctx) // blocks until coordination succeeds or fails
//
// Query answering is asynchronous middleware (Section 5.1 of the paper): a
// submitted query may wait for partners, every handle resolves to exactly
// one Result, and Wait respects context cancellation without losing the
// result for a later Wait. Batches go through SubmitBatch, which admits a
// whole batch with one routing pass and one lock acquisition per engine
// shard while staying equivalent to one-at-a-time submission. Repeated
// query shapes are cheap without any extra call: SQL statements differing
// only in their string literals share one cached translation, and every
// instance shares one cached evaluation plan (see "Prepared statements" in
// README.md). Callers coordinating many queries at once can replace
// one-Handle-per-query with Subscribe, which admits a batch and streams
// every terminal result over one channel that closes after the last —
// exactly one result per query, with outcomes identical to individual
// handles (see "Streaming subscriptions" in README.md).
//
// WithDataDir makes the system durable: admissions, results, expiries and
// DDL are written ahead to a CRC-framed log (fsync policy per
// WithDurability: Off, Batch group-commit, or Sync), periodic checkpoints
// (WithCheckpointEvery, driven by Run) bound the log, and Open recovers by
// deterministic replay — the database is rebuilt from the checkpoint,
// still-pending queries are re-admitted in original ID order, and
// already-delivered results are not re-delivered, so a recovered System is
// observationally equivalent to one that never crashed (see "Durability"
// in README.md).
//
// The system degrades gracefully instead of falling over: WithMaxPending
// caps the engine-wide pending set, shedding excess submissions with a
// typed ErrOverloaded (whole batches refused atomically) rather than
// growing without bound, and a WAL write failure poisons the log so every
// later durable submission fails fast with ErrWALPoisoned — memory never
// silently diverges from disk — until a successful Checkpoint supersedes
// the broken epoch and clears the poison (see "Resilience" in README.md;
// the fault-injection chaos harness that exercises these paths lives in
// internal/fault). Failures are typed:
// errors.Is(err, ErrClosed) after Close,
// errors.Is(err, ErrOverloaded) on shed submissions,
// errors.Is(err, ErrWALPoisoned) on a poisoned durable system,
// errors.Is(res.Err(), ErrStale / ErrUnsafe / ErrRejected) on non-answered
// results, and errors.As(err, **ParseError) for syntax errors with offsets.
//
// The implementation lives under internal/:
//
//   - internal/eqsql — the entangled-SQL parser and translator;
//   - internal/ir — the {C} H :- B intermediate representation;
//   - internal/match — safety, UCS, unifier propagation (Algorithm 1) and
//     combined-query construction;
//   - internal/engine — the asynchronous coordination engine (incremental
//     and set-at-a-time modes, staleness), sharded for parallel
//     coordination: the pending set is partitioned across N shards, each
//     with its own unifiability graph, safety checker and lock, and queries
//     are routed by the relation names of their head/postcondition atoms so
//     that potential coordination partners always meet on the same shard
//     (see the engine package comment for the routing invariant);
//   - internal/server — a TCP/JSON front end for many concurrent clients,
//     with single, batched and subscription (one multiplexed
//     result stream per query set, replayable across reconnects by
//     idempotency token) ops, per-connection overload caps, idempotent
//     re-submission tokens, and a self-healing client (reconnect with
//     backoff, typed connection-loss results);
//   - internal/fault — the seed-driven deterministic fault injector the
//     chaos tests drive through the WAL and the server's connections;
//   - internal/memdb — the in-memory conjunctive-query database substrate,
//     with compiled evaluation plans and the shape-keyed plan cache;
//   - internal/wal — the write-ahead log and checkpoint store behind
//     WithDataDir (record framing, group commit, deterministic recovery);
//   - internal/workload, internal/bench — the paper's experimental
//     workloads and the harness regenerating every evaluation figure;
//   - internal/csp — the general NP-complete baseline (Theorem 2.1);
//   - internal/ext — the Section 6 extensions (CHOOSE k, aggregation
//     postconditions, soft preferences), with aggregation constraints
//     pushed into the compiled plans as residual filters by default and
//     the materialising post-filter path kept as an equivalence-tested
//     reference.
//
// See README.md for a quickstart, the benchmarks in bench_test.go (one per
// paper figure), and the runnable programs under examples/ and cmd/.
package entangle
