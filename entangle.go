package entangle

import (
	"context"
	"errors"
	"strings"
	"time"

	"entangle/internal/engine"
	"entangle/internal/eqsql"
	"entangle/internal/ext"
	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
)

// Mode selects when the matching algorithm runs.
type Mode = engine.Mode

// Evaluation modes (Section 5.1: "a parameter in our implementation allows
// us to switch between the two").
const (
	// Incremental runs matching on the affected partition upon every query
	// arrival.
	Incremental = engine.Incremental
	// SetAtATime buffers queries and evaluates the whole pending set on
	// Flush (or every FlushEvery submissions, or every Run tick).
	SetAtATime = engine.SetAtATime
)

// Status is the terminal state of a submitted query.
type Status = engine.Status

// Terminal statuses.
const (
	StatusAnswered = engine.StatusAnswered
	StatusUnsafe   = engine.StatusUnsafe
	StatusRejected = engine.StatusRejected
	StatusStale    = engine.StatusStale
)

// Stats are cumulative engine counters; see engine.Stats for field
// semantics (PerShard, Flushes, RouterPasses, …).
type Stats = engine.Stats

// Durability is the write-ahead log's fsync policy (see WithDurability).
type Durability = engine.Durability

// WAL fsync policies for WithDurability.
const (
	// DurabilityOff buffers log appends and flushes them to the OS on a
	// background cadence without ever calling fsync: near-zero overhead on
	// the arrival path; a crash loses at most the unflushed tail.
	DurabilityOff = engine.DurabilityOff
	// DurabilityBatch group-commits on the background cadence: one fsync
	// amortises over every append in the window (bounded loss).
	DurabilityBatch = engine.DurabilityBatch
	// DurabilitySync fsyncs before each submission returns, with group
	// commit — concurrent submitters share one fsync (no loss).
	DurabilitySync = engine.DurabilitySync
)

// Query is an entangled query in the {C} H :- B intermediate
// representation; build one with ParseIR / MustParseIR or via
// (*System).ParseSQL.
type Query = ir.Query

// QueryID identifies a submitted query (engine-assigned).
type QueryID = ir.QueryID

// Answer carries the coordinated tuples of an answered query.
type Answer = ir.Answer

// Event is one entry of the audit trail (see WithHistory).
type Event = engine.Event

// config collects the functional options.
type config struct {
	engine        engine.Config
	flushInterval time.Duration
}

// Option configures a System at Open time.
type Option func(*config)

// WithMode selects incremental (default) or set-at-a-time evaluation.
func WithMode(m Mode) Option { return func(c *config) { c.engine.Mode = m } }

// WithShards partitions the engine's pending set for parallel coordination
// (0 = one shard per CPU; 1 = the single-lock engine).
func WithShards(n int) Option { return func(c *config) { c.engine.Shards = n } }

// WithStaleAfter bounds how long queries wait for coordination partners
// (0 = forever). Expiry happens on ExpireStale calls or Run's ticker.
func WithStaleAfter(d time.Duration) Option { return func(c *config) { c.engine.StaleAfter = d } }

// WithFlushEvery auto-flushes a shard after n submissions landed on it in
// set-at-a-time mode. The counter is per shard: with S shards and
// spread-out traffic, up to S×n submissions may buffer engine-wide before
// the first auto-flush.
func WithFlushEvery(n int) Option { return func(c *config) { c.engine.FlushEvery = n } }

// WithFlushInterval sets Run's background flush/staleness/GC tick
// (default 100ms).
func WithFlushInterval(d time.Duration) Option { return func(c *config) { c.flushInterval = d } }

// WithParallelism sizes the engine's persistent evaluation worker pool —
// the goroutines that run coordination rounds out of the shard locks
// during flushes (0 = GOMAXPROCS).
func WithParallelism(n int) Option { return func(c *config) { c.engine.Parallelism = n } }

// WithSeed drives CHOOSE 1 randomness (0 = deterministic first choice).
func WithSeed(seed int64) Option { return func(c *config) { c.engine.Seed = seed } }

// WithAnswerSchemas declares ANSWER relation columns for SQL aggregation
// subqueries (Section 6 extension).
func WithAnswerSchemas(schemas map[string][]string) Option {
	return func(c *config) { c.engine.AnswerSchemas = schemas }
}

// WithHistory retains the last n lifecycle events per engine shard as an
// audit trail, readable through History (0, the default, disables it).
func WithHistory(n int) Option { return func(c *config) { c.engine.HistorySize = n } }

// WithPlanCacheSize bounds the engine's shape-keyed compiled-plan cache
// (entries, LRU eviction): coordinated components whose combined queries
// share a shape reuse one compiled plan instead of re-running join-order
// selection per evaluation. 0, the default, picks the engine's default
// capacity (512); a negative n disables caching.
func WithPlanCacheSize(n int) Option { return func(c *config) { c.engine.PlanCacheSize = n } }

// WithDataDir enables durability: every externally visible engine
// transition (admissions, deliveries, expiries, DDL) is write-ahead logged
// to dir, periodic checkpoints snapshot the database and pending set, and
// Open recovers deterministically from whatever the directory holds — a
// recovered System is observationally equivalent to one that never
// crashed. Data loading on a durable System must go through Load /
// MustCreateTable / MustInsert (they register with the log); writing to
// DB() directly bypasses durability.
func WithDataDir(dir string) Option { return func(c *config) { c.engine.DataDir = dir } }

// WithDurability selects the WAL fsync policy (default DurabilityOff);
// meaningful only together with WithDataDir.
func WithDurability(d Durability) Option { return func(c *config) { c.engine.Durability = d } }

// WithCheckpointEvery sets the periodic-checkpoint cadence driven by Run's
// ticker (default 1 minute; negative disables periodic checkpoints).
// Checkpoints pause the engine briefly (they quiesce all operations to
// capture a consistent cut) and truncate the log behind themselves.
func WithCheckpointEvery(d time.Duration) Option {
	return func(c *config) { c.engine.CheckpointEvery = d }
}

// WithMaxPending caps the engine-wide pending-query count: submissions that
// would push past the cap are shed with ErrOverloaded before any WAL append
// or coordination work (0 = unlimited). The cap is approximate under
// concurrency — cheap on the admit path, precise enough to bound memory.
func WithMaxPending(n int) Option { return func(c *config) { c.engine.MaxPending = n } }

// System is the top-level façade of the entangled-queries library: a
// database substrate plus an asynchronous coordination engine, wired to the
// entangled-SQL front end, the matching algorithm, and the Section 6
// extensions. Safe for concurrent use.
type System struct {
	db  *memdb.DB
	eng *engine.Engine
	cfg config
}

// Open creates a System.
//
//	sys, err := entangle.Open(entangle.WithSeed(42))
//	defer sys.Close()
//
// Without WithDataDir the System starts empty and the error is always nil.
// With WithDataDir, Open recovers the database and the pending query set
// from the directory's checkpoint and write-ahead log (see WithDataDir);
// recovered pending queries are reachable through Engine().Recovered().
func Open(opts ...Option) (*System, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	db := memdb.New()
	eng, err := engine.Open(db, cfg.engine)
	if err != nil {
		return nil, err
	}
	return &System{db: db, eng: eng, cfg: cfg}, nil
}

// DB exposes the underlying database for data loading and inspection.
func (s *System) DB() *memdb.DB { return s.db }

// Engine exposes the coordination engine for advanced control.
func (s *System) Engine() *engine.Engine { return s.eng }

// MustCreateTable creates a database table, panicking on error (setup code).
// On a durable System the statement is registered with the write-ahead log
// so recovery replays it.
func (s *System) MustCreateTable(name string, cols ...string) {
	if !s.durable() {
		s.db.MustCreateTable(name, cols...)
		return
	}
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(name)
	b.WriteString(" (")
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString(");")
	if err := s.Load(b.String()); err != nil {
		panic(err)
	}
}

// MustInsert inserts a row, panicking on error (setup code). On a durable
// System the statement is registered with the write-ahead log so recovery
// replays it.
func (s *System) MustInsert(table string, values ...string) {
	if !s.durable() {
		s.db.MustInsert(table, values...)
		return
	}
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES (")
	for i, v := range values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('\'')
		b.WriteString(strings.ReplaceAll(v, "'", "''"))
		b.WriteByte('\'')
	}
	b.WriteString(");")
	if err := s.Load(b.String()); err != nil {
		panic(err)
	}
}

// Load runs a DDL/DML script (CREATE TABLE / INSERT / CREATE INDEX / DROP
// TABLE statements separated by semicolons) against the database. On a
// durable System the script is write-ahead logged and replayed by
// recovery — always load data through here (or MustCreateTable /
// MustInsert), never through DB() directly, when WithDataDir is in use.
func (s *System) Load(script string) error { return s.eng.Load(script) }

// Checkpoint takes an on-demand durability checkpoint: the database and
// pending set are snapshotted to the data directory and the write-ahead
// log is truncated behind them. The engine pauses briefly (a checkpoint
// captures a consistent cut). Returns engine.ErrNotDurable without
// WithDataDir.
func (s *System) Checkpoint() error { return s.eng.Checkpoint() }

// durable reports whether this System logs to a data directory.
func (s *System) durable() bool { return s.cfg.engine.DataDir != "" }

// Submit enqueues an IR query for asynchronous coordinated answering. The
// context gates admission only: a cancelled context fails the call, but a
// query already admitted keeps running (await it with Handle.Wait, whose
// context controls the wait). Returns ErrClosed after Close.
func (s *System) Submit(ctx context.Context, q *ir.Query) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := s.eng.Submit(q)
	if err != nil {
		return nil, wrapSubmitErr(err)
	}
	return newHandle(h), nil
}

// SubmitSQL parses an entangled-SQL statement against the system's schema
// and enqueues it. Syntax failures carry a *ParseError (errors.As).
func (s *System) SubmitSQL(ctx context.Context, sql string) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := s.eng.SubmitSQL(sql)
	if err != nil {
		return nil, wrapSubmitErr(err)
	}
	return newHandle(h), nil
}

// SubmitIR parses a query in the intermediate-representation text syntax
// ({C} H :- B) and enqueues it.
func (s *System) SubmitIR(ctx context.Context, irText string) (*Handle, error) {
	q, err := ir.Parse(0, irText)
	if err != nil {
		return nil, err
	}
	return s.Submit(ctx, q)
}

// SubmitBatch enqueues many queries at once, returning one handle per query
// in input order. The batch takes a single routing pass and one lock
// acquisition per touched engine shard, amortising the per-query submission
// overhead for bulk loads; outcomes are identical to submitting the queries
// one at a time in order. Returns ErrClosed after Close.
func (s *System) SubmitBatch(ctx context.Context, qs []*ir.Query) ([]*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ehs, err := s.eng.SubmitBatch(qs)
	if err != nil {
		return nil, wrapSubmitErr(err)
	}
	handles := make([]*Handle, len(ehs))
	for i, eh := range ehs {
		handles[i] = newHandle(eh)
	}
	return handles, nil
}

// Flush forces a set-at-a-time evaluation round.
func (s *System) Flush() { s.eng.Flush() }

// ExpireStale fails every pending query older than the staleness bound and
// returns how many were expired (no-op without WithStaleAfter).
func (s *System) ExpireStale() int { return s.eng.ExpireStale() }

// GC retires relation families with no pending members, reclaiming router
// and index state accreted by long-gone ANSWER relations. Run does this
// automatically; GC exists for systems driven without Run.
func (s *System) GC() int { return s.eng.GCFamilies() }

// Stats returns a snapshot of the engine counters.
func (s *System) Stats() Stats { return s.eng.Stats() }

// History returns the retained audit events merged across shards, oldest
// first, and the total number ever recorded. Nil without WithHistory.
func (s *System) History() ([]Event, int) { return s.eng.History() }

// Run services the system until the context is cancelled: it flushes
// (set-at-a-time mode), expires stale queries, and sweeps retired relation
// families on every tick (WithFlushInterval, default 100ms). It blocks;
// start it as a goroutine:
//
//	go sys.Run(ctx)
func (s *System) Run(ctx context.Context) { s.eng.Run(ctx, s.cfg.flushInterval) }

// Close shuts the system down: pending queries fail as stale (locally —
// on a durable System a final checkpoint preserves them on disk first, so
// reopening the data directory re-submits them) and future submissions
// return ErrClosed. Idempotent.
func (s *System) Close() { s.eng.Close() }

// Coordinate answers a batch of IR queries synchronously (the set-at-a-time
// pipeline of Section 4, bypassing the engine's pending set).
func (s *System) Coordinate(queries []*ir.Query) (*match.Outcome, error) {
	return match.Coordinate(s.db, queries, match.CoordinateOptions{EnforceSafety: true})
}

// CoordinateExtended answers a batch with the Section 6 extensions enabled
// (CHOOSE k, aggregation constraints, soft preferences).
func (s *System) CoordinateExtended(queries []*ir.Query, aggs map[ir.QueryID][]eqsql.AggConstraint, opt ext.Options) (*ext.Outcome, error) {
	return ext.Coordinate(s.db, queries, aggs, opt)
}

// ParseSQL translates entangled SQL against the system's schema without
// submitting it; useful for inspecting the intermediate representation.
// Unlike SubmitSQL it accepts the Section 6 extension constructs, returning
// their constraints in Translated.Aggs — those are honored ONLY by
// CoordinateExtended. Submitting tr.Query through Submit/SubmitBatch is
// fine for extension-free statements, but would silently drop any Aggs, so
// check that field first.
func (s *System) ParseSQL(sql string) (*eqsql.Translated, error) {
	return eqsql.Parse(0, sql, eqsql.DBSchema{DB: s.db}, eqsql.Options{
		AllowExtensions: true,
		AnswerSchemas:   s.cfg.engine.AnswerSchemas,
	})
}

// ParseIR parses a query in the IR text syntax ({C} H :- B) without
// submitting it.
func ParseIR(text string) (*ir.Query, error) { return ir.Parse(0, text) }

// MustParseIR is ParseIR that panics on error; for tests and examples with
// literal query text.
func MustParseIR(text string) *ir.Query { return ir.MustParse(0, text) }

// wrapSubmitErr maps the engine's closed sentinel to the public one.
func wrapSubmitErr(err error) error {
	if errors.Is(err, engine.ErrClosed) {
		return ErrClosed
	}
	return err
}
