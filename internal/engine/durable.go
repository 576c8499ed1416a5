package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/wal"
)

// Durability re-exports the WAL fsync policy so engine (and root-package)
// callers need not import internal/wal directly.
type Durability = wal.Policy

const (
	DurabilityOff   = wal.Off
	DurabilityBatch = wal.Batch
	DurabilitySync  = wal.Sync
)

// ErrNotDurable is returned by Checkpoint on an engine that was not opened
// with a data directory.
var ErrNotDurable = errors.New("engine: not opened with a data directory")

// Open creates an engine like New and, when cfg.DataDir is set, attaches
// the durability subsystem: it recovers the database and pending set from
// the directory's checkpoint + WAL, re-admits the recovered pending
// queries through the safety check and the path migrated queries take
// (graph, component index and router families are rebuilt by construction
// — there is no parallel rehydration code), takes a fresh checkpoint
// (which also truncates any torn log tail by rotating the epoch), and
// finally runs one coordination round over components the recovered set
// already closes. Every transition
// from then on is logged write-ahead, so a recovered engine is
// observationally equivalent to one that never crashed:
//
//   - a query whose terminal result was durable is NOT re-delivered (its
//     handle belonged to the dead process; the result is reflected in the
//     recovered counters);
//   - every other admitted query is pending again, reachable through
//     Recovered(), with its original ID, CHOOSE multiplicity, owner and
//     submission time (staleness deadlines survive the restart);
//   - determinism of coordination (fixed Seed ⇒ fixed CHOOSE draws over a
//     given pending set) makes the re-coordinated outcomes match what the
//     uncrashed engine would have delivered.
//
// db must be empty when a checkpoint exists — its contents come from the
// snapshot plus DDL replay.
func Open(db *memdb.DB, cfg Config) (*Engine, error) {
	if cfg.DataDir == "" {
		return New(db, cfg), nil
	}
	d, err := wal.OpenDirFS(cfg.DataDir, cfg.Durability, cfg.WALFlushInterval, cfg.WALFS)
	if err != nil {
		return nil, err
	}
	rec, err := d.Recover(db)
	if err != nil {
		return nil, err
	}
	e := New(db, cfg)
	e.nextID.Store(rec.NextID)
	// The historical Submitted total is every durably resolved query; the
	// re-submission below adds the still-pending ones on live shards, so
	// Submitted = Answered + Rejected + RejectedUnsafe + ExpiredStale +
	// Pending holds after recovery too. Not NextID: a durable prefix can
	// skip an ID — an admit dropped for a result the crash cut off, while a
	// later admit was already framed — and that query is simply lost.
	e.recoveredBase = Stats{
		Submitted: int(rec.Counters.Answered + rec.Counters.Unsafe +
			rec.Counters.Rejected + rec.Counters.Stale),
		Answered:       int(rec.Counters.Answered),
		RejectedUnsafe: int(rec.Counters.Unsafe),
		Rejected:       int(rec.Counters.Rejected),
		ExpiredStale:   int(rec.Counters.Stale),
	}
	// Re-submit with the WAL still detached: ingest is deferred (no
	// coordination round), so nothing needs logging yet, and admit records
	// for recovered queries must NOT be re-appended (their admissions are
	// already durable in the checkpoint being written next).
	if err := e.restorePending(rec.Pending); err != nil {
		return nil, err
	}
	e.wal = d
	// The initial checkpoint makes the recovered state durable in one
	// piece and rotates to a fresh log epoch — recovery never appends
	// after a torn tail.
	if err := e.Checkpoint(); err != nil {
		return nil, err
	}
	// Coordinate components the recovered pending set already closes (for
	// example a pair whose result record was cut off by the crash). These
	// deliveries go through the normal logged path.
	e.Flush()
	return e, nil
}

// Recovered returns the handles of the pending queries the last Open
// re-submitted from the data directory, in ascending ID order (nil when
// there was nothing to recover). Their original clients are gone with the
// crashed process; the embedding server can await these to observe
// post-recovery outcomes. Handles of queries resolved by Open's own
// recovery round have their Result already buffered.
func (e *Engine) Recovered() []*Handle { return e.recovered }

// encodeQuery is the durable form of an admitted query: ir's exact binary
// encoding, written once into the admit record and kept for checkpoints.
func encodeQuery(q *ir.Query) string {
	var buf [256]byte
	return string(ir.AppendBinary(buf[:0], q))
}

// restorePending re-homes checkpointed pending queries with their ORIGINAL
// engine-assigned IDs and submission times through shard.adopt, the path a
// migrated query takes, after the same safety check a fresh submission
// passes. Queries are checked in ascending ID order per family, so a
// recovered set reproduces the verdicts of the original admissions. No
// coordination round runs here: Open flushes once after the WAL is
// attached, so re-coordinated deliveries are logged like any others.
func (e *Engine) restorePending(pending []wal.PendingQuery) error {
	if len(pending) == 0 {
		return nil
	}
	items := make([]*pendingQuery, len(pending))
	relss := make([][]string, len(pending))
	handles := make([]*Handle, len(pending))
	for i, p := range pending {
		q, err := ir.DecodeBinary(p.IR)
		if err != nil {
			return fmt.Errorf("engine: recover pending query %d: %w", p.ID, err)
		}
		if err := q.Validate(); err != nil {
			return fmt.Errorf("engine: recover pending query %d: %w", p.ID, err)
		}
		id := ir.QueryID(p.ID)
		handles[i] = &Handle{ID: id, ch: make(chan Result, 1)}
		relss[i] = coordRels(q)
		items[i] = &pendingQuery{
			renamed: q.RenamedCopy(id), rels: relss[i], handle: handles[i],
			submitted: time.Unix(0, p.SubmittedUnixNano), src: p.IR,
		}
	}
	err := e.submitGrouped(relss, func(s *shard, idxs []int) error {
		for _, i := range idxs {
			p := items[i]
			s.record(EventSubmitted, p.renamed.ID, p.renamed.Owner)
			if err := s.checker.Check(p.renamed); err != nil {
				s.stats.Submitted++
				s.rejectUnsafe(p.renamed.ID, err, p.handle)
				continue
			}
			s.adopt(p)
			e.pendingGauge.Add(1)
			e.router.addPending(p.rels[0], 1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.recovered = handles
	return nil
}

// Checkpoint durably persists the engine's state — a memdb snapshot plus
// the pending set (in ID order), ID high-water mark and delivered-result
// counters — and truncates the WAL behind it by rotating to a fresh log
// epoch. It runs under the engine's lifecycle write lock, which quiesces
// every concurrent operation (they all hold read locks), so the captured
// state is a consistent cut; expect a pause proportional to database size.
// Fails with ErrNotDurable on engines opened without a data directory.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return ErrNotDurable
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	return e.checkpointLocked()
}

// checkpointLocked captures and writes the checkpoint. Caller holds the
// lifeMu write lock (or is Close, after quiescing).
func (e *Engine) checkpointLocked() error {
	st := wal.CheckpointState{NextID: e.nextID.Load()}
	st.Counters = wal.Counters{
		Answered: int64(e.recoveredBase.Answered),
		Unsafe:   int64(e.recoveredBase.RejectedUnsafe),
		Rejected: int64(e.recoveredBase.Rejected),
		Stale:    int64(e.recoveredBase.ExpiredStale),
	}
	for _, s := range e.shards {
		// The lifeMu write hold excludes every operation, but take the
		// shard lock anyway for memory-visibility of its latest writes.
		s.mu.Lock()
		for id, p := range s.pending {
			st.Pending = append(st.Pending, wal.PendingQuery{
				ID: int64(id), Choose: p.renamed.Choose, Owner: p.renamed.Owner,
				IR: p.src, SubmittedUnixNano: p.submitted.UnixNano(),
			})
		}
		st.Counters.Answered += int64(s.stats.Answered)
		st.Counters.Unsafe += int64(s.stats.RejectedUnsafe)
		st.Counters.Rejected += int64(s.stats.Rejected)
		st.Counters.Stale += int64(s.stats.ExpiredStale)
		s.mu.Unlock()
	}
	sort.Slice(st.Pending, func(i, j int) bool { return st.Pending[i].ID < st.Pending[j].ID })
	if err := e.wal.Checkpoint(st, e.db); err != nil {
		e.checkpointErrs.Add(1)
		return err
	}
	return nil
}

// Load registers and executes a database script (DDL / inserts / index
// builds; see memdb.ExecScript for the statement syntax). On a durable
// engine the script is logged write-ahead and replayed on recovery, which
// is why durable data loading must go through here rather than directly to
// the DB. Concurrent Loads serialise so the log order matches execution
// order; a checkpoint cannot interleave (it holds the lifecycle write
// lock).
func (e *Engine) Load(script string) error {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if e.wal == nil {
		return e.db.ExecScript(script)
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if err := e.wal.Append(wal.DDLRecord(script)); err != nil {
		return fmt.Errorf("engine: wal ddl: %w", err)
	}
	return e.db.ExecScript(script)
}

// logResults appends one atomic result-batch record. Called under a shard
// lock, on durable engines only. An append failure (failed disk, log
// closed) is counted rather than propagated: the results are still
// delivered — availability over the durability guarantee — and the sticky
// log error surfaces through Stats.WAL.AppendErrors for operators.
func (e *Engine) logResults(results []wal.QueryResult) {
	if len(results) == 0 {
		return
	}
	if err := e.wal.Append(wal.ResultsRecord(results)); err != nil {
		e.walAppendErrs.Add(1)
	}
}

// logUnsafe logs a single admission-time unsafe rejection (no-op on
// non-durable engines).
func (e *Engine) logUnsafe(id ir.QueryID, verdict error) {
	if e.wal == nil {
		return
	}
	e.logResults([]wal.QueryResult{{ID: int64(id), Status: wal.StatusUnsafe, Detail: verdict.Error()}})
}

// SyncWAL forces everything logged so far to stable storage regardless of
// the configured policy (no-op without one). Exposed for tests and for the
// server's clean-shutdown path.
func (e *Engine) SyncWAL() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Sync()
}
