// Package engine implements the D3C coordination engine of Section 5.1:
// the layer that accepts entangled queries from applications, maintains the
// pending-query set and its unifiability graph, runs the matching algorithm
// either incrementally (on every arrival) or set-at-a-time (in batches),
// evaluates combined queries against the database, and delivers answers
// asynchronously.
//
// The middleware contract mirrors the paper: query answering is
// asynchronous (a query may wait for partners), every query eventually
// resolves to exactly one Result (answered, rejected, unsafe, or stale),
// and staleness bounds how long a query may wait for coordination partners.
//
// # Sharding
//
// The engine partitions its pending set across N shards (Config.Shards,
// default runtime.NumCPU()), generalising the paper's observation (Section
// 4.1.2) that matching decomposes into independent connected components of
// the unifiability graph. Each shard owns a complete pipeline — graph, atom
// indexes, safety checker, pending map — behind its own lock, so Submit,
// Flush and ExpireStale on different shards proceed in parallel.
//
// Routing invariant: two queries that can ever share a unifiability edge
// are always routed to the same shard. A query's routing signature is the
// set of relation names in its head and postcondition atoms (bodies never
// unify and are ignored); queries unify only when they share such a
// relation name. The router maintains a union-find over relation names —
// every signature's relations are merged into one family — and a family's
// home shard is min(hash(r)) over its member relations, mod N. Queries with
// equal single-relation signatures therefore land on the same shard
// deterministically, and a query whose signature spans families triggers a
// family merge: the displaced shards' pending members migrate to the merged
// family's home shard before the new query is admitted. Because connected
// components never cross family boundaries, every matching, safety and
// staleness decision remains shard-local and the sharded engine is
// observationally equivalent to a single-shard one (see the equivalence
// tests). One caveat: when a merged component admits several valid
// coordinated answers, the CHOOSE pick can differ from the single-shard
// run's (migration re-inserts members in query-ID order, which may
// interleave differently with the home shard's residents); runs with a
// fixed (Seed, Shards, arrival order) still reproduce exactly.
//
// # Coordination rounds
//
// Component evaluation — matching, combined-query compilation, database
// execution — runs OUTSIDE the shard lock, on an optimistic
// snapshot-validate-deliver pipeline. When an arrival closes a component
// (or a flush enumerates the closed set), the shard snapshots each closed
// component — members, nodes, edges, and a monotone per-component version
// maintained by the graph's component index — into a pooled round, then
// releases its lock. The round evaluates on a persistent per-engine worker
// pool (single incremental rounds evaluate inline on the submitting
// goroutine); each worker pins its own evaluation scratch, so steady-state
// rounds allocate nothing beyond the answer tuples. The shard lock is then
// re-acquired to validate: every member still pending and the component
// version unchanged. A concurrent arrival, expiry, migration or competing
// delivery bumps the version, so a stale evaluation is discarded and the
// surviving members' components are re-snapshotted and re-run — a stale
// round can never deliver, and outcomes are observationally identical to
// evaluating under the lock. Submissions to a shard therefore proceed while
// that shard's components are being evaluated, and the pool is fed by every
// shard, so concurrent flushes pipeline across the engine. The one
// exception is the batch ingest path, which evaluates synchronously
// under the held lock: batch ≡ sequential equivalence requires each closing
// component to retire before the next batch member's admission is decided.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/eqsql"
	"entangle/internal/fault"
	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
	"entangle/internal/wal"
)

// Mode selects when the matching algorithm runs (Section 5.1: "a parameter
// in our implementation allows us to switch between the two").
type Mode int

const (
	// Incremental runs matching on the affected partition upon every query
	// arrival.
	Incremental Mode = iota
	// SetAtATime buffers queries and evaluates the whole pending set on
	// Flush (or every FlushEvery submissions).
	SetAtATime
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Incremental:
		return "incremental"
	case SetAtATime:
		return "set-at-a-time"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Status is the terminal state of a submitted query.
type Status int

const (
	// StatusAnswered — coordination succeeded; the Result carries tuples.
	StatusAnswered Status = iota
	// StatusUnsafe — the admission safety check rejected the query.
	StatusUnsafe
	// StatusRejected — matching or evaluation determined the query is
	// permanently unanswerable (unifier clash, no global unifier, or the
	// combined query returned no rows).
	StatusRejected
	// StatusStale — the query waited longer than the staleness bound
	// without acquiring all coordination partners (Section 5.1).
	StatusStale
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusAnswered:
		return "answered"
	case StatusUnsafe:
		return "unsafe"
	case StatusRejected:
		return "rejected"
	case StatusStale:
		return "stale"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the single terminal outcome of a submitted query.
type Result struct {
	QueryID ir.QueryID
	Status  Status
	Answer  *ir.Answer // non-nil iff Status == StatusAnswered
	Detail  string     // human-readable cause for non-answered statuses
}

// Handle tracks an in-flight query. Exactly one Result is delivered.
type Handle struct {
	ID ir.QueryID
	ch chan Result
	// hook, when non-nil, is invoked with the Result right after it is
	// buffered on ch (SubmitNotify, SubmitBatchNotify). It runs on the delivering
	// goroutine — possibly under a shard lock — so it must be fast,
	// non-blocking, and must not call back into the engine.
	hook func(Result)
}

// deliver buffers the handle's single Result (ch has capacity 1 and gets
// exactly one send, so this never blocks) and fires the optional hook.
func (h *Handle) deliver(r Result) {
	h.ch <- r
	if h.hook != nil {
		h.hook(r)
	}
}

// Done returns a channel that receives the query's single Result.
func (h *Handle) Done() <-chan Result { return h.ch }

// Wait blocks until the result arrives or the timeout elapses (0 = forever).
func (h *Handle) Wait(timeout time.Duration) (Result, error) {
	if timeout <= 0 {
		return <-h.ch, nil
	}
	select {
	case r := <-h.ch:
		return r, nil
	case <-time.After(timeout):
		return Result{}, fmt.Errorf("engine: query %d: no result within %v", h.ID, timeout)
	}
}

// Config tunes the engine.
type Config struct {
	Mode Mode
	// Shards is the number of engine partitions; 0 picks runtime.NumCPU().
	// 1 reproduces the pre-sharding single-lock engine exactly.
	Shards int
	// StaleAfter bounds how long a query may stay pending; 0 disables
	// staleness. Expiry happens on ExpireStale calls (or Run's ticker).
	StaleAfter time.Duration
	// FlushEvery triggers an automatic Flush after this many submissions
	// in SetAtATime mode; 0 means flush only on explicit Flush calls. The
	// counter is per shard: a shard flushes after FlushEvery submissions
	// landed on it, which preserves the single-shard semantics for
	// workloads routed to one shard and bounds every shard's buffered
	// backlog independently.
	FlushEvery int
	// Parallelism sizes the engine's persistent evaluation worker pool —
	// the goroutines that run snapshotted coordination rounds out of lock,
	// shared by all shards; 0 means GOMAXPROCS.
	Parallelism int
	// Seed drives the CHOOSE 1 random choice; 0 picks deterministically.
	// Each shard runs its own stream started from the seed, so a given
	// (Seed, Shards, arrival order) reproduces exactly, and workloads that
	// land on a single shard reproduce across shard counts too.
	Seed int64
	// PlanCacheSize bounds the engine's shape-keyed compiled-plan cache
	// (entries, LRU eviction): components whose bodies share a shape —
	// same relations, same variable-sharing pattern, constants in the same
	// positions — reuse one compiled plan, skipping the join-order
	// simulation on every repeat arrival. 0 picks the default (512);
	// negative disables caching (every evaluation compiles afresh).
	PlanCacheSize int
	// Match carries ablation switches through to the matcher.
	Match match.Options
	// AnswerSchemas forwards declared ANSWER relation layouts to SubmitSQL.
	AnswerSchemas map[string][]string
	// HistorySize retains the last N lifecycle events PER SHARD
	// (submissions, answers, rejections, staleness, flushes) for
	// debugging and operations; 0 disables the audit trail. Each shard
	// records into its own ring under the shard lock it already holds, so
	// an always-on trail adds no cross-shard contention; History() merges
	// the rings by timestamp at read time.
	HistorySize int
	// DataDir enables the durability subsystem: a write-ahead log of
	// admissions/results plus periodic checkpoints in this directory.
	// Empty disables durability (New ignores it; use Open). See
	// internal/wal for the on-disk format and recovery semantics.
	DataDir string
	// Durability is the WAL fsync policy (wal.Off, wal.Batch, wal.Sync);
	// meaningful only with DataDir set.
	Durability wal.Policy
	// CheckpointEvery is the periodic-checkpoint cadence driven by Run's
	// ticker; 0 picks the default (1 minute), negative disables periodic
	// checkpoints (explicit Checkpoint calls and Close still checkpoint).
	CheckpointEvery time.Duration
	// WALFlushInterval is the background flush/group-commit cadence for
	// the Off and Batch policies; 0 picks the default (2ms).
	WALFlushInterval time.Duration
	// WALFS overrides the filesystem under the write-ahead log and
	// checkpoints (fault injection in tests); nil uses the real OS
	// filesystem. Meaningful only with DataDir set.
	WALFS fault.FS
	// MaxPending caps the engine-wide pending-query count: a Submit /
	// SubmitBatch that would push the gauge past the cap is
	// shed with ErrOverloaded before any WAL append or shard work. The cap
	// is approximate under concurrency (the gauge is read without holding
	// shard locks), which is exactly what load shedding wants: cheap on the
	// admit path, precise enough to bound memory. 0 disables the cap.
	MaxPending int
}

// Stats are cumulative engine counters. For a sharded engine the top-level
// fields aggregate across shards and PerShard carries each shard's own
// counters (indexed by shard; nested PerShard is always nil). A query
// migrated by a family merge moves its Submitted attribution to the
// destination shard, so every PerShard entry independently satisfies
// Submitted = Answered + Rejected + RejectedUnsafe + ExpiredStale +
// Pending. Flushes is
// the exception to plain summing: the aggregate counts flush rounds — one
// per Flush call plus one per FlushEvery-triggered auto-flush — while each
// PerShard entry counts the rounds that ran on that shard (a single Flush
// call is one round but touches every shard).
type Stats struct {
	Submitted      int
	Answered       int
	RejectedUnsafe int
	Rejected       int
	ExpiredStale   int
	Pending        int
	Flushes        int
	Evaluations    int // combined queries sent to the database

	// RouterPasses counts routing passes on the submission path: one per
	// Submit retry loop iteration and one per SubmitBatch round, however
	// many queries the round resolves. SubmitLocks counts shard lock
	// acquisitions on the submission path: one per Submit iteration, one
	// per touched shard per SubmitBatch round. Both are engine-level (zero
	// in PerShard, excluded from aggregation) and exist to make the batch
	// fast path's amortisation observable: a batch of N queries costs 1
	// router pass and ≤ min(N, Shards) submit locks instead of N of each.
	RouterPasses int
	SubmitLocks  int
	// FamiliesRetired counts relation families reclaimed by GC sweeps.
	FamiliesRetired int
	// PlanHits / PlanMisses / PlanEvictions are the compiled-plan cache's
	// counters: a hit reuses a cached plan (no join-order simulation), a
	// miss compiles and caches, an eviction ages out the least recently
	// used shape. Engine-level like RouterPasses: zero in PerShard,
	// excluded from aggregation. All zero when PlanCacheSize < 0.
	PlanHits      int
	PlanMisses    int
	PlanEvictions int
	// Overloaded counts submissions shed by the MaxPending cap (whole
	// batches count once per call). Engine-level like RouterPasses: zero in
	// PerShard, excluded from aggregation.
	Overloaded int
	// EvalRetries counts coordination rounds whose out-of-lock evaluation
	// was invalidated by a concurrent arrival, expiry, migration or
	// competing delivery between snapshot and validation, and was therefore
	// discarded and re-run (a stale round never delivers). EvalWorkers is
	// the persistent evaluation pool's size; EvalQueueDepth is the
	// instantaneous number of rounds queued for it. Engine-level like
	// RouterPasses: zero in PerShard, excluded from aggregation.
	EvalRetries    int
	EvalWorkers    int
	EvalQueueDepth int

	// WAL carries the durability subsystem's counters; nil when the engine
	// was not opened with a data directory.
	WAL *WALStats `json:"WAL,omitempty"`

	PerShard []Stats `json:"PerShard,omitempty"`
}

// WALStats are the durability subsystem's counters: log appends, bytes and
// fsyncs since the process started, checkpoints taken, the age of the last
// checkpoint, and error counts (append errors mean the log is failed — see
// the durability section of the package docs).
type WALStats struct {
	Records             int64
	Bytes               int64
	Fsyncs              int64
	Checkpoints         int64
	LastCheckpointAgeMS int64
	AppendErrors        int64
	CheckpointErrors    int64
	// Poisoned reports the WAL's fail-stop state: an append or fsync
	// failed, so submissions fail fast with ErrWALPoisoned until a
	// successful checkpoint rotates to a fresh epoch.
	Poisoned bool
}

// add accumulates s2 into the aggregate. PerShard is excluded, and so is
// Flushes: the aggregate counts engine-level rounds (Engine.flushRounds),
// not the sum of per-shard rounds — see the Stats doc comment.
func (s *Stats) add(s2 Stats) {
	s.Submitted += s2.Submitted
	s.Answered += s2.Answered
	s.RejectedUnsafe += s2.RejectedUnsafe
	s.Rejected += s2.Rejected
	s.ExpiredStale += s2.ExpiredStale
	s.Pending += s2.Pending
	s.Evaluations += s2.Evaluations
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded is returned by Submit/SubmitBatch when the
// MaxPending cap would be exceeded; test with errors.Is. Shedding happens
// before the WAL append and before any shard work, so an overloaded engine
// stays cheap to say no to.
var ErrOverloaded = errors.New("engine: overloaded: pending-query cap reached")

// ErrWALPoisoned re-exports the WAL's fail-stop sentinel: after a failed
// append or fsync, durable submissions fail fast with this error (wrapped,
// test with errors.Is) instead of acknowledging writes the log may have
// lost. A successful Checkpoint clears it.
var ErrWALPoisoned = wal.ErrPoisoned

type pendingQuery struct {
	renamed   *ir.Query // renamed apart; lives in the shard's graph
	rels      []string  // coordination signature (routing key)
	handle    *Handle
	submitted time.Time
	// src is the ORIGINAL query (pre-rename) in ir's binary form, captured
	// only on durable engines: the admit record carries it and checkpoints
	// persist the same bytes, so recovery decodes and re-submits the query
	// exactly as first admitted (re-encoding the renamed copy would stack
	// "q<id>·" variable prefixes on every crash/recover cycle). Empty when
	// the engine has no WAL.
	src string
}

// Engine is the D3C coordination module. Safe for concurrent use: requests
// are routed to shards that lock independently (see the package comment).
//
// Lock order: lifeMu (read for operations, write for Close) → shard mutexes
// in ascending index order → router mutex. The router's own lock is also
// taken without shard locks held during routing; it never acquires shard
// locks itself, so the order stays acyclic. Shard-local history rings are
// guarded by their shard's mutex — there is no separate history lock.
type Engine struct {
	db  *memdb.DB
	cfg Config

	shards      []*shard
	router      *router
	plans       *memdb.PlanCache // shared compiled-plan cache; nil when disabled
	shapes      *eqsql.ShapeCache
	nextID      atomic.Int64
	flushRounds atomic.Int64 // engine-level flush rounds (see Stats.Flushes)
	// Submission-path amortisation counters (see Stats.RouterPasses).
	routerPasses    atomic.Int64
	submitLocks     atomic.Int64
	familiesRetired atomic.Int64
	// pendingGauge tracks the engine-wide pending-query count (Σ over
	// shards of len(s.pending)) for the MaxPending admission check, updated
	// where shards register and retire entries. overloadShed counts
	// submissions refused by the cap.
	pendingGauge atomic.Int64
	overloadShed atomic.Int64
	// eventSeq stamps audit events with a total order, so History can merge
	// the per-shard rings deterministically even at equal timestamps.
	eventSeq atomic.Uint64
	// evalQueue feeds the persistent worker pool that evaluates snapshotted
	// coordination rounds out of lock; poolSize workers start lazily on
	// the first multi-round dispatch (poolOnce) and exit when Close closes
	// the queue (workersUp records whether there is anything to close). One
	// engine-wide pool rather than a per-shard split: a skewed workload
	// concentrated on one shard can still use the whole Parallelism budget,
	// while simultaneous flushes cannot oversubscribe to Shards × budget.
	// evalRetries counts rounds invalidated between snapshot and validation
	// (Stats.EvalRetries).
	evalQueue   chan *evalRound
	poolOnce    sync.Once
	workersUp   atomic.Bool
	poolSize    int
	evalRetries atomic.Int64
	// testEvalHook, when non-nil, runs at the start of every out-of-lock
	// round evaluation with the component's members. Tests use it to stall
	// or mutate the engine mid-round; it must be set before any submission
	// and is never set in production.
	testEvalHook func(members []ir.QueryID)
	// migEpoch increments whenever a family merge moves pending queries
	// between shards. Stats uses it to take an exact aggregate without
	// holding all shard locks at once: snapshot shards one at a time and
	// retry if a migration happened mid-pass (the only event that could
	// double- or zero-count a query across per-shard snapshots).
	migEpoch atomic.Uint64

	// wal is the durability subsystem (nil for non-durable engines). Set
	// once by Open before the engine is shared, read without further
	// synchronisation on the hot paths. Appends happen under lifeMu read
	// holds; Checkpoint rotates the log under the lifeMu write hold, which
	// quiesces every appender.
	wal *wal.Dir
	// loadMu serialises DDL registration (log append + script execution)
	// so concurrent Loads replay in their logged order.
	loadMu sync.Mutex
	// recoveredBase carries the counter totals of queries resolved before
	// the last recovery, so Stats stays cumulative across restarts.
	recoveredBase Stats
	// recovered holds the handles of pending queries re-submitted by
	// Open's recovery (nil otherwise); see Recovered.
	recovered      []*Handle
	walAppendErrs  atomic.Int64
	checkpointErrs atomic.Int64

	lifeMu sync.RWMutex // held read by operations, write by Close
	closed bool         // guarded by lifeMu

	now func() time.Time
}

// New creates an engine over the given database.
func New(db *memdb.DB, cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.NumCPU()
	}
	poolSize := cfg.Parallelism
	if poolSize <= 0 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		db:       db,
		cfg:      cfg,
		router:   newRouter(cfg.Shards),
		poolSize: poolSize,
		// Buffered past the worker count so dispatching shards rarely fall
		// back to evaluating inline while workers are momentarily busy.
		evalQueue: make(chan *evalRound, 4*poolSize),
		shapes:    eqsql.NewShapeCache(eqsql.DBSchema{DB: db}, eqsql.Options{AnswerSchemas: cfg.AnswerSchemas}),
		now:       time.Now,
	}
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = 512
		}
		e.plans = memdb.NewPlanCache(size)
		e.cfg.Match.Plans = e.plans
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(i, e)
	}
	return e
}

// DB returns the engine's database (for loading data and for SubmitSQL
// schema resolution).
func (e *Engine) DB() *memdb.DB { return e.db }

// NumShards returns the number of engine partitions.
func (e *Engine) NumShards() int { return len(e.shards) }

// Stats returns a snapshot of the counters, aggregated across shards, with
// each shard's own counters in PerShard. Shards are snapshotted one at a
// time — never holding one shard's lock while waiting on another, so a
// slow flush on one shard cannot stall Stats-concurrent Submits elsewhere
// — and the pass retries if a family-merge migration ran meanwhile, the
// only event that could count a moving query twice or not at all. The one
// non-shard field, Flushes, is a monotone engine-level round counter read
// atomically alongside: a Flush call concurrent with Stats may already be
// counted before its per-shard effects are visible.
func (e *Engine) Stats() Stats {
	for {
		epoch := e.migEpoch.Load()
		var agg Stats
		agg.PerShard = make([]Stats, len(e.shards))
		for i, s := range e.shards {
			s.mu.Lock()
			st := s.snapshotLocked()
			s.mu.Unlock()
			agg.PerShard[i] = st
			agg.add(st)
		}
		if e.migEpoch.Load() != epoch {
			continue // a migration interleaved; re-snapshot (merges are rare and finite)
		}
		agg.Flushes = int(e.flushRounds.Load())
		agg.RouterPasses = int(e.routerPasses.Load())
		agg.SubmitLocks = int(e.submitLocks.Load())
		agg.FamiliesRetired = int(e.familiesRetired.Load())
		agg.Overloaded = int(e.overloadShed.Load())
		agg.EvalRetries = int(e.evalRetries.Load())
		agg.EvalWorkers = e.poolSize
		agg.EvalQueueDepth = len(e.evalQueue)
		if e.plans != nil {
			hits, misses, evictions := e.plans.Counters()
			agg.PlanHits = int(hits)
			agg.PlanMisses = int(misses)
			agg.PlanEvictions = int(evictions)
		}
		// Fold in the totals of queries resolved before the last recovery,
		// so counters stay cumulative across restarts.
		agg.add(e.recoveredBase)
		if e.wal != nil {
			ws := e.wal.Stats()
			agg.WAL = &WALStats{
				Records: ws.Records, Bytes: ws.Bytes, Fsyncs: ws.Fsyncs,
				Checkpoints:      ws.Checkpoints,
				AppendErrors:     e.walAppendErrs.Load(),
				CheckpointErrors: e.checkpointErrs.Load(),
				Poisoned:         ws.Poisoned,
			}
			if !ws.LastCheckpoint.IsZero() {
				agg.WAL.LastCheckpointAgeMS = time.Since(ws.LastCheckpoint).Milliseconds()
			}
		}
		return agg
	}
}

// Submit enqueues an entangled query for coordinated answering and returns
// a handle that will receive exactly one Result. The query's ID is assigned
// by the engine; the input's ID field is ignored.
func (e *Engine) Submit(q *ir.Query) (*Handle, error) {
	return e.SubmitNotify(q, nil)
}

// SubmitNotify is Submit with a result hook, as SubmitBatchNotify is for
// batches: fn (when non-nil) is invoked once with the query's Result right
// after it is buffered on the handle. An arrival that closes its component
// delivers inside this call, before SubmitNotify returns the handle. fn runs
// on the delivering goroutine, possibly under a shard lock: it must be fast,
// non-blocking, and must not call back into the engine.
func (e *Engine) SubmitNotify(q *ir.Query, fn func(Result)) (*Handle, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	if err := e.admitCap(1); err != nil {
		return nil, err
	}
	// One copy, not three: RenamedCopy fuses the defensive clone (the
	// caller keeps q) with ID assignment and the rename-apart pass. The
	// original variable names are never needed again — answers carry only
	// ground tuples.
	id := ir.QueryID(e.nextID.Add(1))
	renamed := q.RenamedCopy(id)
	h := &Handle{ID: id, ch: make(chan Result, 1), hook: fn}
	rels := coordRels(q)
	now := e.now()

	// Write-ahead: the admission is durable before the query can become
	// visible to coordination, so no delivered result can ever reference an
	// unlogged admission. A failed append rejects the submission outright.
	var src string
	if e.wal != nil {
		src = encodeQuery(q)
		if err := e.wal.Append(wal.AdmitRecord(int64(id), q.Choose, q.Owner, src, now.UnixNano())); err != nil {
			return nil, fmt.Errorf("engine: wal admit: %w", err)
		}
	}

	for {
		e.routerPasses.Add(1)
		target, root, needsMigration, gen := e.router.route(rels)
		if needsMigration {
			e.migrateFamily(root)
		}
		s := e.shards[target]
		s.mu.Lock()
		e.submitLocks.Add(1)
		// A concurrent family merge may have re-homed our signature between
		// routing and locking; re-validate and retry if so. One atomic load
		// suffices: an unchanged generation means no family anywhere
		// re-homed, so our route is still current (a changed one merely
		// costs a spurious re-route). Merges are bounded by the number of
		// distinct relations, so this terminates.
		if e.router.generation() != gen {
			s.mu.Unlock()
			continue
		}
		var rb roundBatch
		err := s.submit(renamed, rels, h, now, src, &rb)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		// Any coordination round this arrival triggered evaluates here, out
		// of lock: concurrent submissions to the same shard proceed while
		// the component is matched and executed.
		e.processRounds(s, &rb)
		return h, nil
	}
}

// admitCap sheds the submission when admitting n more queries would push
// the pending gauge past MaxPending. Entire batches are refused whole: a
// partially admitted batch would break the caller's all-or-nothing handle
// contract. The cap is approximate under concurrency (see Config.MaxPending).
func (e *Engine) admitCap(n int) error {
	max := e.cfg.MaxPending
	if max <= 0 {
		return nil
	}
	if pending := e.pendingGauge.Load(); int(pending)+n > max {
		e.overloadShed.Add(1)
		return fmt.Errorf("%w (pending %d + %d > max %d)", ErrOverloaded, pending, n, max)
	}
	return nil
}

// migrateFamily drains every displaced shard of the family rooted at root
// into the family's current home, looping until the residence set collapses
// (a concurrent merge can re-home the family mid-drain, in which case the
// stale drain target stays resident and the next round moves it again).
// Both shard locks are held for the duration of each move (acquired in
// ascending index order), so a migrating query is never invisible to Flush,
// ExpireStale or Close — it is in exactly one shard at every observable
// instant.
func (e *Engine) migrateFamily(root string) {
	for {
		home, sources := e.router.residencePlan(root)
		if home < 0 || len(sources) == 0 {
			return
		}
		for _, from := range sources {
			src, dst := e.shards[from], e.shards[home]
			first, second := src, dst
			if dst.idx < src.idx {
				first, second = dst, src
			}
			var rb roundBatch
			first.mu.Lock()
			second.mu.Lock()
			if e.router.currentHome(root) == home {
				// Classify the source shard's pending set with one router
				// pass. All of a pending query's signature relations belong
				// to one family (its own submission merged them), so its
				// first relation decides membership.
				distinct := make(map[string]bool)
				for _, p := range src.pending {
					distinct[p.rels[0]] = true
				}
				rels := make([]string, 0, len(distinct))
				for rel := range distinct {
					rels = append(rels, rel)
				}
				member := e.router.inFamily(rels, root)
				var ids []ir.QueryID
				for id, p := range src.pending {
					if member[p.rels[0]] {
						ids = append(ids, id)
					}
				}
				// Move in query-ID (= submission) order: map iteration
				// order must not leak into the destination graph's
				// insertion order, or matching would lose its determinism
				// for a fixed (Seed, Shards, arrival order).
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				for _, id := range ids {
					dst.adopt(src.evict(id))
				}
				if len(ids) > 0 {
					epoch := e.migEpoch.Add(1) // invalidate concurrent Stats passes
					if e.wal != nil {
						// Informational epoch mark: lets offline tooling
						// correlate the log with the migration counter.
						// Families re-form from re-submission on recovery, so
						// a lost mark affects nothing.
						if err := e.wal.Append(wal.EpochRecord(epoch)); err != nil {
							e.walAppendErrs.Add(1)
						}
					}
					// Defensive: adoption rediscovers the migrated queries'
					// edges in the destination graph, so re-check their
					// components. Today every same-family arrival drains
					// residence before landing (its own Submit migrates
					// first) and distinct families share no relations, so
					// adoption alone should not close a component that some
					// submit won't also evaluate — but liveness of the
					// exactly-one-Result contract is worth an O(adopted)
					// re-check rather than a reachability argument.
					// Rounds are snapshotted here and evaluated after both
					// locks release; covers dedupes adopted IDs that share a
					// component, preserving one CHOOSE draw per component.
					if e.cfg.Mode == Incremental {
						for _, id := range ids {
							if rb.covers(id) {
								continue
							}
							if r := dst.captureComponentRound(id); r != nil {
								rb.add(r)
							}
						}
					}
					// Adopted queries count toward the destination's
					// FlushEvery backlog; fire the auto-flush the adoptions
					// may have earned, as their own submissions would have.
					if e.cfg.Mode == SetAtATime && e.cfg.FlushEvery > 0 && dst.sinceFl >= e.cfg.FlushEvery {
						e.flushRounds.Add(1)
						dst.collectFlushRounds(&rb)
					}
				}
				e.router.clearResidence(root, from, home)
			}
			second.mu.Unlock()
			first.mu.Unlock()
			e.processRounds(dst, &rb)
		}
	}
}

// SubmitBatch enqueues many queries at once, amortising the routing and
// locking cost that dominates bulk loads: every round resolves ALL remaining
// queries with one router pass (a single router mutex acquisition, however
// large the batch) and then admits each group of same-shard queries under
// ONE shard lock acquisition, in ascending shard order. Queries are admitted
// in batch order within each shard, so a batch is observationally equivalent
// to submitting its queries one at a time: the safety check sees the same
// admission sequence, incremental evaluation fires at the same points, and
// per-shard FlushEvery accounting is unchanged. Handles are returned in
// input order, each delivering exactly one Result.
//
// A concurrent family merge can invalidate routes between the router pass
// and a shard lock (detected by the generation check, exactly as in Submit);
// only the not-yet-admitted remainder of the batch is re-routed, so extra
// passes occur only under cross-submitter merge races, not in steady state.
func (e *Engine) SubmitBatch(qs []*ir.Query) ([]*Handle, error) {
	return e.SubmitBatchNotify(qs, nil)
}

// SubmitBatchNotify is SubmitBatch with a result hook: fn (when non-nil) is
// installed on every returned handle before admission, and is invoked once
// per query with its Result, right after the Result is buffered on that
// handle's channel. This is the multiplexing substrate for subscriptions —
// one callback fans N results into one stream with no per-query goroutine.
// fn runs on the delivering goroutine, possibly under a shard lock: it must
// be fast, non-blocking, and must not call back into the engine.
func (e *Engine) SubmitBatchNotify(qs []*ir.Query, fn func(Result)) ([]*Handle, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
	}
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	if err := e.admitCap(len(qs)); err != nil {
		return nil, err
	}
	n := len(qs)
	renamed := make([]*ir.Query, n)
	relss := make([][]string, n)
	handles := make([]*Handle, n)
	var srcs []string
	var recs []wal.Record
	if e.wal != nil {
		srcs = make([]string, n)
		recs = make([]wal.Record, n)
	}
	now := e.now()
	for i, q := range qs {
		id := ir.QueryID(e.nextID.Add(1))
		renamed[i] = q.RenamedCopy(id)
		relss[i] = coordRels(q)
		handles[i] = &Handle{ID: id, ch: make(chan Result, 1), hook: fn}
		if e.wal != nil {
			srcs[i] = encodeQuery(q)
			recs[i] = wal.AdmitRecord(int64(id), q.Choose, q.Owner, srcs[i], now.UnixNano())
		}
	}
	// One append for the whole batch: the write-ahead cost amortises the
	// same way the batch's router pass and shard locks do.
	if e.wal != nil {
		if err := e.wal.Append(recs...); err != nil {
			return nil, fmt.Errorf("engine: wal admit: %w", err)
		}
	}
	err := e.submitGrouped(relss, func(s *shard, group []int) error {
		for _, i := range group {
			var src string
			if srcs != nil {
				src = srcs[i]
			}
			// rb == nil: each closing component evaluates synchronously
			// under the held shard lock, so the next batch member's
			// admission sees it retired — exactly what sequential
			// submission would see (batch ≡ sequential equivalence).
			if err := s.submit(renamed[i], relss[i], handles[i], now, src, nil); err != nil {
				return err // unreachable: IDs are fresh and Check precedes Admit
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return handles, nil
}

// submitGrouped is the shared routing/regrouping skeleton of SubmitBatch
// and crash recovery (restorePending): every round resolves ALL remaining items with one router
// pass, groups them by home shard, and hands each group — in ascending
// input order, under its shard's lock, with the routing generation
// re-validated — to the ingest callback. relss holds one coordination
// signature per item; group carries indices into it.
//
// A concurrent family merge between the router pass and a shard lock is
// detected by the generation check; groups ingested before the bump
// validated their routes under their own shard locks, so they stand, and
// only the remainder re-routes. The remainder is re-sorted back to input
// order before the next round: regrouping collects it shard by shard,
// which interleaves the original order, and both callers' admission-order
// contracts (batch order for SubmitBatch, ID-order safety verdicts for
// recovery) require every group to ascend even after a retry.
func (e *Engine) submitGrouped(relss [][]string, ingest func(s *shard, group []int) error) error {
	remaining := make([]int, len(relss))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		sigs := make([][]string, len(remaining))
		for j, i := range remaining {
			sigs[j] = relss[i]
		}
		e.routerPasses.Add(1)
		homes, _, migrate, gen := e.router.routeBatch(sigs)
		for _, root := range migrate {
			e.migrateFamily(root)
		}
		// Group by home shard; ascending shard order keeps the locking
		// sequence deterministic. Input order is preserved within a group,
		// which is all determinism needs: queries on different shards are in
		// different families and cannot interact.
		groups := make(map[int][]int, len(e.shards))
		for j, i := range remaining {
			groups[homes[j]] = append(groups[homes[j]], i)
		}
		order := make([]int, 0, len(groups))
		for t := range groups {
			order = append(order, t)
		}
		sort.Ints(order)
		var retry []int
		stale := false
		for _, t := range order {
			if stale {
				retry = append(retry, groups[t]...)
				continue
			}
			s := e.shards[t]
			s.mu.Lock()
			e.submitLocks.Add(1)
			if e.router.generation() != gen {
				s.mu.Unlock()
				stale = true
				retry = append(retry, groups[t]...)
				continue
			}
			err := ingest(s, groups[t])
			s.mu.Unlock()
			if err != nil {
				return err
			}
		}
		sort.Ints(retry)
		remaining = retry
	}
	return nil
}

// ParseSQL translates an entangled-SQL statement against the engine's
// database schema and configured ANSWER schemas, without submitting it.
// Statements differing only in their string literals are translated once
// per shape (eqsql.ShapeCache); the database's stats epoch, which advances
// on every CREATE and DROP TABLE, is the schema generation, so DDL never
// serves a template translated against an older schema.
func (e *Engine) ParseSQL(src string) (*ir.Query, error) {
	return e.shapes.Parse(src, e.db.StatsEpoch())
}

// SubmitSQL parses an entangled-SQL statement against the engine's database
// schema and submits it. Extension constructs require cfg.AnswerSchemas for
// aggregation column resolution and are rejected here (use internal/ext).
func (e *Engine) SubmitSQL(src string) (*Handle, error) {
	q, err := e.ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return e.Submit(q)
}

// Flush runs a set-at-a-time evaluation round over every shard's pending
// set, shards in parallel. It is a no-op in Incremental mode (arrivals are
// already evaluated).
func (e *Engine) Flush() {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed {
		return
	}
	e.flushRounds.Add(1)
	var wg sync.WaitGroup
	for _, s := range e.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			// Snapshot under the lock, evaluate out of it: submissions to
			// this shard proceed while its components run on the worker
			// pool, and all shards feed the same pool, so concurrent
			// flushes pipeline instead of serialising per shard.
			var rb roundBatch
			s.mu.Lock()
			s.collectFlushRounds(&rb)
			s.mu.Unlock()
			e.processRounds(s, &rb)
		}(s)
	}
	wg.Wait()
}

// ExpireStale fails every pending query older than the staleness bound and
// returns how many were expired. No-op when StaleAfter is 0.
func (e *Engine) ExpireStale() int {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.cfg.StaleAfter <= 0 || e.closed {
		return 0
	}
	cutoff := e.now().Add(-e.cfg.StaleAfter)
	total := 0
	var wg sync.WaitGroup
	counts := make([]int, len(e.shards))
	for i, s := range e.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			var rb roundBatch
			counts[i] = s.expireStale(cutoff, &rb)
			e.processRounds(s, &rb)
		}(i, s)
	}
	wg.Wait()
	for _, n := range counts {
		total += n
	}
	return total
}

// Run services the engine until the context is cancelled: every
// flushInterval tick it flushes (SetAtATime), expires stale queries, and
// sweeps retired relation families; on a durable engine it also takes a
// checkpoint whenever the last one is older than Config.CheckpointEvery.
// Intended to be started as a goroutine.
func (e *Engine) Run(ctx context.Context, flushInterval time.Duration) {
	if flushInterval <= 0 {
		flushInterval = 100 * time.Millisecond
	}
	ckptEvery := e.cfg.CheckpointEvery
	if ckptEvery == 0 {
		ckptEvery = time.Minute
	}
	t := time.NewTicker(flushInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if e.cfg.Mode == SetAtATime {
				e.Flush()
			}
			e.ExpireStale()
			e.GCFamiliesN(gcFamiliesPerTick)
			if e.wal != nil && ckptEvery > 0 && time.Since(e.wal.Stats().LastCheckpoint) >= ckptEvery {
				_ = e.Checkpoint() // failure is counted in Stats.WAL.CheckpointErrors
			}
		}
	}
}

// gcFamiliesPerTick bounds how many GC candidates one Run tick examines, so
// an engine waking up to a huge retired-family backlog drains it across
// ticks instead of stalling one tick on a single sweep.
const gcFamiliesPerTick = 256

// GCFamilies retires every relation family with no pending members and no
// migration in flight, reclaiming the state a long-lived engine would
// otherwise accrete for every ANSWER relation it ever saw: the union-find
// entries and route-cache slots in the router, and the per-relation key maps
// of the home shard's atom indexes (graph head/postcondition indexes and the
// safety checker's), all removed in the same sweep. Returns how many
// families were retired. A family whose relations reappear later is simply
// re-created by routing, with the same deterministic min-hash home.
func (e *Engine) GCFamilies() int { return e.GCFamiliesN(0) }

// GCFamiliesN is the incremental form of GCFamilies: it examines at most
// max candidates (0 = all) off the router's eligibility queue, so the
// caller bounds the work of one sweep. Candidates are discovered by
// transition (family created idle, pending count hitting zero, residence
// collapsing), not by scanning every family, and eligibility is re-verified
// under the home shard's lock before anything is deleted; a candidate found
// busy simply re-queues at its next transition. Run's tick uses this with a
// fixed budget, so a huge retired-family backlog drains across ticks
// without a single-sweep spike.
func (e *Engine) GCFamiliesN(max int) int {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed {
		return 0
	}
	retired := 0
	for _, root := range e.router.popGCCandidates(max) {
		home := e.router.currentHome(root)
		if home < 0 {
			continue // already gone (concurrent sweep or merge)
		}
		s := e.shards[home]
		// Home shard lock first (lock order: shard → router), so no admission
		// into this family can interleave between the eligibility re-check
		// and the index sweep: a concurrent Submit either admits before
		// retireFamily (pending > 0 fails the check) or routes afresh after
		// the generation bump and re-creates the family.
		s.mu.Lock()
		members, ok := e.router.retireFamily(root, home)
		if ok {
			for _, rel := range members {
				s.g.DropRelation(rel)
				s.checker.DropRelation(rel)
			}
			retired++
		}
		s.mu.Unlock()
	}
	if retired > 0 {
		e.familiesRetired.Add(int64(retired))
	}
	return retired
}

// Close fails all pending queries as stale and rejects future submissions.
// On a durable engine it first takes a final checkpoint, so the pending set
// survives on disk and reopening the data directory re-submits it — the
// local "engine closed" results are deliberately NOT logged.
func (e *Engine) Close() {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.closed {
		return
	}
	if e.wal != nil {
		_ = e.checkpointLocked() // best effort; counted on failure
	}
	for _, s := range e.shards {
		s.close()
	}
	e.closed = true
	// Retire the evaluation workers. Safe under the lifeMu write hold:
	// every producer dispatches under a read hold, so none is in flight.
	if e.workersUp.Load() {
		close(e.evalQueue)
	}
	if e.wal != nil {
		_ = e.wal.Close()
	}
}
