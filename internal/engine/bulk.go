package engine

import (
	"fmt"
	"time"

	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/wal"
)

// BulkOptions tunes SubmitBulk.
type BulkOptions struct {
	// DeferFlush skips the coordination round SubmitBulk normally runs on
	// each touched shard after ingest: closed components stay pending until
	// the next Flush (explicit, FlushEvery-triggered, or Run's tick in
	// set-at-a-time mode — in Incremental mode Run does not flush, so a
	// deferred bulk needs an explicit Flush call). Useful for staged loads
	// that want several SubmitBulk calls to coordinate as one round.
	DeferFlush bool
}

// SubmitBulk enqueues many queries at once as an explicitly UNORDERED bulk
// load: the batch is treated as a set, the paper's native granularity — a
// coordination round needs the set of pending entangled queries, not the
// order they arrived. That weaker contract is what lets the bulk path skip
// the per-query incremental admission work SubmitBatch must keep paying to
// preserve one-at-a-time equivalence:
//
//   - one router pass resolves the whole batch (as SubmitBatch);
//   - each touched shard ingests its group under ONE lock acquisition with
//     atoms indexed and unifiability edges discovered set-at-a-time — no
//     per-query index probing for admission, no per-arrival closedness
//     probe, no mid-batch evaluation;
//   - the safety check runs once over the ingested set, reading the
//     discovered edges instead of probing the atom indexes per query;
//   - the component/closedness index is re-derived once per touched
//     component; and
//   - one flush per touched shard runs coordination over the resulting
//     closed components (skippable with BulkOptions.DeferFlush).
//
// Correctness contract: for a batch with no interleaved singles, the
// answered set and per-query results equal SubmitBatch on a set-at-a-time
// engine followed by one Flush — and on a set-at-a-time engine the two
// paths are observationally identical. On an Incremental engine the bulk
// itself still evaluates set-at-a-time (components that close mid-batch
// under SubmitBatch are instead coordinated whole at the end), which is the
// semantic difference callers opt into. Queries left open after the bulk
// flush wait like any others: staleness deadlines are honored from the
// SubmitBulk call, and handles deliver exactly one Result each.
func (e *Engine) SubmitBulk(qs []*ir.Query, opt BulkOptions) ([]*Handle, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("bulk query %d: %w", i, err)
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
	items := make([]bulkItem, n)
	relss := make([][]string, n)
	handles := make([]*Handle, n)
	var recs []wal.Record
	if e.wal != nil {
		recs = make([]wal.Record, n)
	}
	now := e.now()
	for i, q := range qs {
		id := ir.QueryID(e.nextID.Add(1))
		h := &Handle{ID: id, ch: make(chan Result, 1)}
		relss[i] = coordRels(q)
		items[i] = bulkItem{renamed: q.RenamedCopy(id), rels: relss[i], handle: h, at: now}
		handles[i] = h
		if e.wal != nil {
			items[i].src = encodeQuery(q)
			recs[i] = wal.AdmitRecord(int64(id), q.Choose, q.Owner, items[i].src, now.UnixNano())
		}
	}
	// One write-ahead append covers the whole bulk, before any item can
	// become visible to coordination.
	if e.wal != nil {
		if err := e.wal.Append(recs...); err != nil {
			return nil, fmt.Errorf("engine: wal admit: %w", err)
		}
	}
	e.bulkLoads.Add(1)

	// Routing, regrouping and the merge-race retry are the shared
	// submitGrouped skeleton, which hands every group over in ascending
	// input (= ID) order — the order the safety sweep resolves conflicts
	// in, so a bulk's verdicts are reproducible however its groups land.
	var group []bulkItem // reused per-shard ingest slice
	// Post-ingest coordination rounds are snapshotted under each shard's
	// ingest lock hold but evaluated only after the whole grouped submission
	// returns: the bulk's flush is the last thing to happen on each touched
	// shard, so deferral cannot reorder it against any same-bulk admission,
	// and the rounds of all touched shards then pipeline on the worker pool.
	type shardRounds struct {
		s  *shard
		rb roundBatch
	}
	var batches []shardRounds
	err := e.submitGrouped(relss, func(s *shard, idxs []int) error {
		group = group[:0]
		for _, i := range idxs {
			group = append(group, items[i])
		}
		if err := s.bulkLoad(group); err != nil {
			return err // unreachable: IDs are engine-assigned and fresh
		}
		if !opt.DeferFlush {
			e.flushRounds.Add(1)
			e.bulkFlushes.Add(1)
		} else if e.cfg.Mode == SetAtATime && e.cfg.FlushEvery > 0 && s.sinceFl >= e.cfg.FlushEvery {
			// A deferred bulk still honors the configured backlog bound,
			// exactly as migration-adopted queries do.
			e.flushRounds.Add(1)
		} else {
			return nil
		}
		batches = append(batches, shardRounds{s: s})
		s.collectFlushRounds(&batches[len(batches)-1].rb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range batches {
		e.processRounds(batches[i].s, &batches[i].rb)
	}
	return handles, nil
}

// bulkItem carries one bulk arrival through its shard's set-at-a-time
// ingest. at is the item's submission time — SubmitBulk stamps the call
// time on every item, while crash recovery restores each pending query's
// ORIGINAL submission time so staleness deadlines survive a restart. src
// is the original query's binary form for checkpointing (durable engines
// only).
type bulkItem struct {
	renamed *ir.Query
	rels    []string
	handle  *Handle
	at      time.Time
	src     string
}

// postFeed identifies one postcondition slot of one query — the unit the
// safety sweep's head-side check counts feeders against.
type postFeed struct {
	q   ir.QueryID
	pos int
}

// bulkLoad ingests a group of bulk arrivals set-at-a-time, under the shard
// lock the caller holds: one graph pass indexes every atom and discovers
// every unifiability edge (graph.BulkAdd), one safety sweep over the
// ingested set decides admission, and survivors are registered as pending.
// No per-query incremental evaluation runs; the component index re-derives
// each touched component once, at the flush (or probe) that follows.
func (s *shard) bulkLoad(items []bulkItem) error {
	qs := make([]*ir.Query, len(items))
	for i, it := range items {
		qs[i] = it.renamed
	}
	if err := s.g.BulkAdd(qs); err != nil {
		return err
	}
	verdicts := s.sweepUnsafe(qs)
	for i, it := range items {
		id := it.renamed.ID
		s.stats.Submitted++
		s.record(EventSubmitted, id, it.renamed.Owner)
		if err := verdicts[i]; err != nil {
			// Unsafe: withdraw the query's atoms and edges from the graph —
			// later sweeps and matching must see exactly the admitted set —
			// and deliver the rejection.
			s.g.RemoveQuery(id)
			s.stats.RejectedUnsafe++
			s.record(EventUnsafe, id, err.Error())
			s.eng.logUnsafe(id, err)
			it.handle.deliver(Result{QueryID: id, Status: StatusUnsafe, Detail: err.Error()})
			continue
		}
		s.checker.AdmitUnchecked(it.renamed)
		s.pending[id] = &pendingQuery{renamed: it.renamed, rels: it.rels, handle: it.handle, submitted: it.at, src: it.src}
		s.eng.pendingGauge.Add(1)
		if s.eng.cfg.StaleAfter > 0 {
			s.stale.push(staleItem{at: it.at, id: id})
			s.compactStaleIfNeeded()
		}
		s.eng.router.addPending(it.rels[0], 1)
		if s.eng.cfg.Mode == SetAtATime {
			s.sinceFl++
		}
	}
	return nil
}

// sweepUnsafe runs the admission safety check (Section 3.1.1) once over a
// just-ingested bulk instead of once per query: every unifying (head,
// postcondition) pair is already a graph edge, so the sweep reads edges
// where incremental admission probes the atom indexes — zero index lookups.
// Verdicts are resolved in ascending ID order with each verdict feeding the
// later ones (a rejected query's atoms stop counting), which reproduces
// exactly what per-query admission of the same sequence would have decided:
// the post-side test counts admissible feeders of each of q's
// postconditions, and the head-side test counts the feeders q's own heads
// join, both restricted to residents and already-accepted bulk members.
// Returns one error per input (nil = admissible), aligned with qs.
func (s *shard) sweepUnsafe(qs []*ir.Query) []error {
	verdicts := make([]error, len(qs))
	inBulk := make(map[ir.QueryID]bool, len(qs))
	for _, q := range qs {
		inBulk[q.ID] = true
	}
	accepted := make(map[ir.QueryID]bool, len(qs))
	// admissible: a resident (admitted before this bulk), or a bulk member
	// already accepted by this sweep.
	admissible := func(id ir.QueryID) bool { return !inBulk[id] || accepted[id] }
	var postCnt []int // per-postcondition feeder counts, reused across queries
	for i, q := range qs {
		n := s.g.Node(q.ID)
		if cap(postCnt) < len(q.Posts) {
			postCnt = make([]int, len(q.Posts))
		}
		postCnt = postCnt[:len(q.Posts)]
		for j := range postCnt {
			postCnt[j] = 0
		}
		for _, e := range n.In {
			if admissible(e.From) {
				postCnt[e.Post.Pos]++
			}
		}
		for pos, c := range postCnt {
			if c > 1 {
				verdicts[i] = match.UnsafePostError(q.Posts[pos], q.ID, c)
				break
			}
		}
		if verdicts[i] == nil {
			// Walk q's out-edges in head order (BulkAdd discovers them in
			// exactly the probe order Check uses), accumulating q's own
			// contribution per target postcondition, so a query feeding one
			// postcondition twice is caught — and the verdict names the
			// head that crossed the threshold, byte-identical with Check's.
			var added map[postFeed]int
		headSide:
			for _, e := range n.Out {
				if !admissible(e.To) {
					continue
				}
				if added == nil {
					added = make(map[postFeed]int)
				}
				k := postFeed{e.To, e.Post.Pos}
				added[k]++
				existing := 0
				for _, e2 := range s.g.Node(e.To).In {
					if e2.Post.Pos == e.Post.Pos && e2.From != q.ID && admissible(e2.From) {
						existing++
					}
				}
				if existing+added[k] > 1 {
					verdicts[i] = match.UnsafeHeadError(e.Head.Atom, q.ID, e.Post.Atom, e.To)
					break headSide
				}
			}
		}
		if verdicts[i] == nil {
			accepted[q.ID] = true
		}
	}
	return verdicts
}
