package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/wal"
)

// staleDetail is the staleness result text; a constant so the WAL record
// and the delivered Result stay byte-identical.
const staleDetail = "no coordination partners arrived within the staleness bound"

// shard is one partition of the engine's pending-query set. Each shard owns
// a complete coordination pipeline — unifiability graph, atom indexes,
// safety checker, pending map and counters — guarded by its own mutex, so
// shards make progress independently. The router guarantees that queries
// able to unify always land on the same shard, which keeps every connected
// component (and therefore every matching and safety decision) shard-local.
type shard struct {
	idx int
	eng *Engine

	mu      sync.Mutex
	g       *graph.Graph
	checker *match.SafetyChecker
	pending map[ir.QueryID]*pendingQuery
	stale   staleHeap // pending submissions by submit time (maintained iff StaleAfter > 0)
	rnd     *rand.Rand
	stats   Stats
	sinceFl int      // submissions since last flush (SetAtATime)
	hist    *history // this shard's slice of the audit trail (nil if disabled)
}

func newShard(idx int, e *Engine) *shard {
	var rnd *rand.Rand
	if e.cfg.Seed != 0 {
		// Every shard starts its stream from the same seed (not mixed with
		// the shard index): a workload whose queries all land on one shard
		// — every single-relation-family workload, including the paper's —
		// then draws the same CHOOSE sequence no matter which index that
		// shard has, so fixed-seed results reproduce across hosts with
		// different core counts (the index would otherwise depend on
		// hash(rel) mod NumCPU). Shards consume their streams
		// independently as they evaluate.
		rnd = rand.New(rand.NewSource(e.cfg.Seed))
	}
	g := graph.New()
	return &shard{
		idx: idx,
		eng: e,
		g:   g,
		// The checker reads the graph's own atom indexes: admission and
		// graph membership move in lock-step under the shard lock, so one
		// index pair serves both and every atom is indexed once per shard.
		checker: match.NewSharedSafetyChecker(g),
		pending: make(map[ir.QueryID]*pendingQuery),
		rnd:     rnd,
		hist:    newHistory(e.cfg.HistorySize),
	}
}

// record appends to this shard's slice of the audit trail. The ring is
// guarded by the shard lock the caller already holds — no extra lock is
// taken, unlike the old engine-global ring that serialised all shards on
// one history mutex. The engine-wide sequence number gives events a total
// order for the timestamp merge in Engine.History.
func (s *shard) record(kind EventKind, id ir.QueryID, detail string) {
	if s.hist == nil {
		return
	}
	s.hist.record(Event{Time: s.eng.now(), Seq: s.eng.eventSeq.Add(1), Kind: kind, QueryID: id, Detail: detail})
}

// submit admits one arrival. renamed carries the engine-assigned ID; the
// handle receives exactly one Result, either here (unsafe rejection,
// incremental coordination) or later (flush, staleness, close). src is the
// original query's text for checkpointing (empty on non-durable engines).
//
// rb selects what happens to any coordination round this arrival triggers
// (incremental closing, or a FlushEvery-crossing set-at-a-time backlog).
// Non-nil: the round is snapshotted into rb and the caller evaluates it out
// of lock after releasing s.mu — the single-submission path. Nil: the round
// evaluates and delivers synchronously under the held lock — the batch path,
// where deferring a closing component past the admission of the next batch
// member on the same shard would change what that member's safety check and
// unifiability edges see, breaking batch ≡ sequential equivalence.
func (s *shard) submit(renamed *ir.Query, rels []string, h *Handle, now time.Time, src string, rb *roundBatch) error {
	s.stats.Submitted++
	s.record(EventSubmitted, renamed.ID, renamed.Owner)

	// Admission safety check (Sections 3.1.1, 5.3.5): reject arrivals that
	// would make the pending workload unsafe. Safety is a property of
	// unifying atoms, and all atoms that can unify with this query's live
	// on this shard, so the shard-local check is equivalent to a global one.
	if err := s.checker.Check(renamed); err != nil {
		s.rejectUnsafe(renamed.ID, err, h)
		return nil
	}
	// Check just passed under this same lock, so admission cannot re-fail;
	// AdmitUnchecked skips the redundant second pass over the indexes.
	s.checker.AdmitUnchecked(renamed)
	if err := s.g.AddQuery(renamed); err != nil {
		s.checker.Remove(renamed.ID)
		return err
	}
	s.pending[renamed.ID] = &pendingQuery{renamed: renamed, rels: rels, handle: h, submitted: now, src: src}
	s.eng.pendingGauge.Add(1)
	if s.eng.cfg.StaleAfter > 0 {
		s.stale.push(staleItem{at: now, id: renamed.ID})
		s.compactStaleIfNeeded()
	}
	// All of a query's signature relations are in one family (its own
	// routing merged them), so the first relation identifies it for the
	// family's pending-member count (which gates family GC).
	s.eng.router.addPending(rels[0], 1)

	switch s.eng.cfg.Mode {
	case Incremental:
		// Constant-time closedness probe: the component index already knows
		// whether this arrival completed its component. Only then is the
		// component snapshotted and matched; the dominant non-closing
		// arrival does no component traversal at all.
		if s.g.ComponentClosed(renamed.ID) {
			if r := s.captureComponentRound(renamed.ID); r != nil {
				if rb != nil {
					rb.add(r)
				} else {
					s.settleInline(r)
				}
			}
		}
	case SetAtATime:
		s.sinceFl++
		if s.eng.cfg.FlushEvery > 0 && s.sinceFl >= s.eng.cfg.FlushEvery {
			s.eng.flushRounds.Add(1) // auto-flush is one shard-local round
			if rb != nil {
				s.collectFlushRounds(rb)
			} else {
				s.flushLocked()
			}
		}
	}
	return nil
}

// rejectUnsafe resolves an arrival that failed the admission safety check.
// Caller holds s.mu.
func (s *shard) rejectUnsafe(id ir.QueryID, verdict error, h *Handle) {
	s.stats.RejectedUnsafe++
	s.record(EventUnsafe, id, verdict.Error())
	s.eng.logUnsafe(id, verdict)
	h.deliver(Result{QueryID: id, Status: StatusUnsafe, Detail: verdict.Error()})
}

// adopt re-homes a pending query migrated from another shard after a family
// merge. The query was vetted by its source shard's safety checker, and
// atoms of distinct families never unify, so re-admission cannot introduce a
// violation; AdmitUnchecked skips the redundant re-check. The Submitted
// attribution moves with the query (evict decremented it) so every shard's
// counters satisfy Submitted = Answered + Rejected + RejectedUnsafe +
// ExpiredStale + Pending on their own. Crash recovery (restorePending)
// re-homes recovered queries here too, after its own Check. Caller holds
// s.mu.
func (s *shard) adopt(p *pendingQuery) {
	s.stats.Submitted++
	if s.eng.cfg.Mode == SetAtATime {
		// The adopted query counts toward this shard's FlushEvery backlog
		// bound just like a direct submission; migrateFamily checks the
		// threshold once the drain completes.
		s.sinceFl++
	}
	s.checker.AdmitUnchecked(p.renamed)
	if err := s.g.AddQuery(p.renamed); err != nil {
		// Duplicate IDs cannot occur (IDs are engine-global); fail loudly
		// rather than silently dropping a handle.
		panic(fmt.Sprintf("engine: re-add failed: %v", err))
	}
	s.pending[p.renamed.ID] = p
	// The source shard's heap entry goes stale (lazily skipped there); the
	// adopted query keeps its original submission time here.
	if s.eng.cfg.StaleAfter > 0 {
		s.stale.push(staleItem{at: p.submitted, id: p.renamed.ID})
		s.compactStaleIfNeeded()
	}
}

// evict removes a pending query from this shard without resolving its
// handle, returning it for adoption elsewhere. Caller holds s.mu.
func (s *shard) evict(id ir.QueryID) *pendingQuery {
	p := s.pending[id]
	if p == nil {
		return nil
	}
	s.stats.Submitted--
	delete(s.pending, id)
	s.g.RemoveQuery(id)
	s.checker.Remove(id)
	return p
}

// captureComponentRound snapshots the closed component containing id into a
// pooled coordination round: membership, nodes, edges, version, and the
// CHOOSE seed. Returns nil when the component is open, id is not live, or a
// member has already retired (the round would be undeliverable). The seed is
// drawn only after those checks pass — one draw per evaluated component,
// exactly where the old under-lock evaluation drew it, so fixed-seed runs
// reproduce across the rework. Caller holds s.mu.
func (s *shard) captureComponentRound(id ir.QueryID) *evalRound {
	if !s.g.ComponentClosed(id) {
		return nil
	}
	snap := snapPool.Get().(*graph.CompSnap)
	if !snap.CaptureComponent(s.g, id) {
		snapPool.Put(snap)
		return nil
	}
	for _, m := range snap.Members() {
		if _, ok := s.pending[m]; !ok {
			snapPool.Put(snap)
			return nil
		}
	}
	var seed int64
	if s.rnd != nil {
		seed = s.rnd.Int63()
	}
	r := roundPool.Get().(*evalRound)
	r.snap = snap
	r.seed = seed
	return r
}

// collectFlushRounds starts a set-at-a-time evaluation round: it snapshots
// every closed component of the pending set into rb for out-of-lock
// evaluation. The component index enumerates exactly the closed components —
// the open remainder (typically the vast majority) is never visited, and
// closedness is read off the per-component counters instead of re-scanning
// member indegrees. One CHOOSE seed is drawn per flush with a non-empty
// closed set; component ci derives its stream from seed+ci, preserving the
// draw schedule of the old under-lock flush. Caller holds s.mu.
func (s *shard) collectFlushRounds(rb *roundBatch) {
	s.stats.Flushes++
	s.sinceFl = 0
	if s.hist != nil {
		s.record(EventFlush, 0, fmt.Sprintf("shard %d: %d pending", s.idx, len(s.pending)))
	}
	closed := s.g.ClosedComponents()
	if len(closed) == 0 {
		return
	}
	var seed int64
	if s.rnd != nil {
		seed = s.rnd.Int63()
	}
	for ci, comp := range closed {
		live := true
		for _, id := range comp {
			if _, ok := s.pending[id]; !ok {
				live = false
				break
			}
		}
		if !live {
			continue
		}
		ver, ok := s.g.ComponentVersion(comp[0])
		if !ok {
			continue
		}
		snap := snapPool.Get().(*graph.CompSnap)
		snap.CaptureMembers(s.g, comp, ver)
		r := roundPool.Get().(*evalRound)
		r.snap = snap
		if seed != 0 {
			r.seed = seed + int64(ci)
		}
		rb.add(r)
	}
}

// flushLocked runs a full flush round synchronously under the held shard
// lock: collect, evaluate inline, deliver. The batch ingest path uses
// it (via submit with rb == nil) where round deferral would reorder
// coordination against later same-shard admissions.
func (s *shard) flushLocked() {
	var rb roundBatch
	s.collectFlushRounds(&rb)
	if rb.one != nil {
		s.settleInline(rb.one)
	}
	for _, r := range rb.many {
		s.settleInline(r)
	}
}

// settleInline evaluates and delivers one captured round without releasing
// the shard lock the caller holds. Validation is vacuous — nothing can
// mutate the shard mid-hold. The test hook does not fire here: it exists to
// let tests mutate the engine mid-evaluation, which under a held shard lock
// would deadlock.
func (s *shard) settleInline(r *evalRound) {
	s.eng.evalRoundOn(r, nil, false)
	s.stats.Evaluations++
	s.deliver(r.answers, r.rejected)
	putRound(r)
}

// validateRound reports whether a snapshotted component is still exactly the
// live component: every member still pending on this shard and the component
// version unchanged since capture. Any concurrent arrival joining the
// component, member expiry, migration, or competing delivery bumps the
// version or retires a member, so a stale snapshot can never deliver.
// Versions are never reused (the index clock only advances), so an A-B-A
// membership coincidence cannot validate either. Caller holds s.mu.
func (s *shard) validateRound(r *evalRound) bool {
	members := r.snap.Members()
	for _, id := range members {
		if _, ok := s.pending[id]; !ok {
			return false
		}
	}
	ver, ok := s.g.ComponentVersion(members[0])
	return ok && ver == r.snap.Version()
}

// settleRound is the validate-and-deliver half of an out-of-lock round: if
// the snapshot still matches the live shard state the results deliver as if
// evaluated under the lock; otherwise the evaluation is discarded and every
// still-pending member's (possibly re-shaped) closed component is
// re-snapshotted into retry. The pending-membership requirement also makes
// retries terminate after close(), which empties the pending map. Caller
// holds s.mu.
func (s *shard) settleRound(r *evalRound, retry *roundBatch) {
	if s.validateRound(r) {
		s.stats.Evaluations++
		s.deliver(r.answers, r.rejected)
		putRound(r)
		return
	}
	s.eng.evalRetries.Add(1)
	for _, id := range r.snap.Members() {
		if _, ok := s.pending[id]; !ok {
			continue
		}
		if retry.covers(id) {
			continue // already re-captured with an earlier member's component
		}
		if nr := s.captureComponentRound(id); nr != nil {
			retry.add(nr)
		}
	}
	putRound(r)
}

// deliver retires answered and rejected queries, sending results. Caller
// holds s.mu.
//
// On a durable engine, the whole delivery — every partner of the evaluated
// component — is logged as ONE WAL record before any handle receives its
// result: a crash can therefore never persist half a component's
// retirement, and recovery either suppresses the entire delivery or
// re-coordinates the entire component.
func (s *shard) deliver(answers []ir.Answer, rejected []match.Removal) {
	if s.eng.wal != nil {
		var results []wal.QueryResult
		for _, a := range answers {
			if _, ok := s.pending[a.QueryID]; !ok {
				continue
			}
			tuples := make([]string, len(a.Tuples))
			for i, t := range a.Tuples {
				tuples[i] = t.String()
			}
			results = append(results, wal.QueryResult{ID: int64(a.QueryID), Status: wal.StatusAnswered, Tuples: tuples})
		}
		for _, r := range rejected {
			if _, ok := s.pending[r.Query]; !ok {
				continue
			}
			results = append(results, wal.QueryResult{ID: int64(r.Query), Status: wal.StatusRejected, Detail: removalDetail(r)})
		}
		s.eng.logResults(results)
	}
	for _, a := range answers {
		p, ok := s.pending[a.QueryID]
		if !ok {
			continue
		}
		s.stats.Answered++
		ans := a
		if s.hist != nil { // don't format tuples the nil trail discards
			s.record(EventAnswered, a.QueryID, ir.FormatAtoms(a.Tuples))
		}
		p.handle.deliver(Result{QueryID: a.QueryID, Status: StatusAnswered, Answer: &ans})
		s.retire(a.QueryID)
	}
	for _, r := range rejected {
		p, ok := s.pending[r.Query]
		if !ok {
			continue
		}
		s.stats.Rejected++
		detail := removalDetail(r)
		s.record(EventRejected, r.Query, detail)
		p.handle.deliver(Result{QueryID: r.Query, Status: StatusRejected, Detail: detail})
		s.retire(r.Query)
	}
}

// removalDetail renders a rejection for the WAL, the audit trail, and the
// delivered Result: the cause, plus the removal's own detail (the error
// text, for CauseEvalError) when it carries one.
func removalDetail(r match.Removal) string {
	if r.Detail != "" {
		return r.Cause.String() + ": " + r.Detail
	}
	return r.Cause.String()
}

func (s *shard) retire(id ir.QueryID) {
	if p := s.pending[id]; p != nil {
		s.eng.router.addPending(p.rels[0], -1)
		s.eng.pendingGauge.Add(-1)
	}
	delete(s.pending, id)
	s.g.RemoveQuery(id)
	s.checker.Remove(id)
}

// compactStaleIfNeeded rebuilds the staleness heap once entries for
// already-retired (or migrated-away) queries outnumber the live pending
// set, bounding the heap at O(pending) regardless of churn rate or
// staleness window. Caller holds s.mu.
func (s *shard) compactStaleIfNeeded() {
	if n := s.stale.len(); n >= 64 && n > 2*len(s.pending) {
		s.stale.compact(s.pending)
	}
}

// expireStale fails every pending query older than the cutoff and returns
// how many were expired. The staleness heap is ordered by submit time, so
// the sweep pops exactly the expired prefix — O(expired · log pending) per
// tick — instead of scanning the whole pending set; entries whose query
// already retired or migrated are skipped as they surface. Components the
// expiry newly closed are snapshotted into rb; the caller evaluates them
// out of lock after this returns.
func (s *shard) expireStale(cutoff time.Time, rb *roundBatch) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Collect the expired prefix first: on a durable engine the whole
	// sweep's expiries are logged as one WAL record before any handle is
	// resolved (expiries are independent, so this is pure fsync batching,
	// not an atomicity requirement like deliver's).
	var victims []ir.QueryID
	for s.stale.len() > 0 && s.stale.min().at.Before(cutoff) {
		it := s.stale.pop()
		p, ok := s.pending[it.id]
		if !ok || !p.submitted.Equal(it.at) {
			continue // retired here, or migrated away and re-tracked elsewhere
		}
		// A query that migrated away and back leaves duplicate heap entries
		// with identical (at, id) keys, and both pass the check above. The
		// heap pops equal keys consecutively (ties break by ID), so a
		// last-victim comparison dedupes them; without it the delivery loop
		// below would retire the ID twice and hit a nil *pendingQuery.
		if len(victims) > 0 && victims[len(victims)-1] == it.id {
			continue
		}
		victims = append(victims, it.id)
	}
	if s.eng.wal != nil && len(victims) > 0 {
		results := make([]wal.QueryResult, len(victims))
		for i, id := range victims {
			results[i] = wal.QueryResult{ID: int64(id), Status: wal.StatusStale, Detail: staleDetail}
		}
		s.eng.logResults(results)
	}
	expired := len(victims)
	for _, id := range victims {
		s.stats.ExpiredStale++
		s.record(EventStale, id, "staleness bound exceeded")
		s.pending[id].handle.deliver(Result{QueryID: id, Status: StatusStale, Detail: staleDetail})
		s.retire(id)
	}
	// Expiry can close previously blocked components: a stale query whose
	// unmatched postcondition was the only obstacle is gone now. The
	// component index enumerates exactly those — open components are not
	// revisited.
	if expired > 0 && s.eng.cfg.Mode == Incremental {
		for _, comp := range s.g.ClosedComponents() {
			if len(comp) == 0 {
				continue
			}
			if r := s.captureComponentRound(comp[0]); r != nil {
				rb.add(r)
			}
		}
	}
	return expired
}

// close fails all pending queries as stale, counting them as expired so
// the per-shard accounting identity survives shutdown (a query reported
// StatusStale to its caller must show up in ExpiredStale).
func (s *shard) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, p := range s.pending {
		s.stats.ExpiredStale++
		s.record(EventStale, id, "engine closed")
		p.handle.deliver(Result{QueryID: id, Status: StatusStale, Detail: "engine closed"})
		s.eng.router.addPending(p.rels[0], -1)
		s.eng.pendingGauge.Add(-1)
	}
	s.pending = make(map[ir.QueryID]*pendingQuery)
	s.stale.reset()
}

// snapshotLocked returns the shard's counters with Pending filled in.
// Caller holds s.mu. Cross-shard exactness is Engine.Stats's concern: it
// snapshots shards one at a time and retries the pass when a migration
// interleaves (see the migEpoch comment there).
func (s *shard) snapshotLocked() Stats {
	st := s.stats
	st.Pending = len(s.pending)
	return st
}
