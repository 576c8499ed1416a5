package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"entangle/internal/engine"
	"entangle/internal/ir"
	"entangle/internal/workload"
)

// submitMode selects how BatchingComparison drives queries into the engine.
type submitMode int

const (
	submitSingle submitMode = iota // one Submit call per query
	submitBatch                    // SubmitBatch in chunks of batchSize
)

// BatchingComparison measures the submission-path amortisation of the
// engine's two submission modes on identical social workloads (per-group
// ANSWER relations, the spreadable shape): one-at-a-time Submit and
// Engine.SubmitBatch (order-preserving batches). The engine runs
// set-at-a-time and only the submission phase is timed — evaluation cost is
// identical for both paths and would otherwise drown the per-arrival
// overhead being measured — so both runs coordinate in one final flush
// outside the timer, whose answered counts must agree (batch is an
// amortisation of the same admission decisions, not a semantics change).
// Row labels carry the routing work actually done: N router passes and N
// submit-lock acquisitions for singles versus ⌈N/B⌉ passes and
// ≤ ⌈N/B⌉ × min(B, shards) locks for batches.
func (e *Env) BatchingComparison(sizes []int, batchSize, shards int) ([]Row, error) {
	if batchSize < 2 {
		return nil, fmt.Errorf("bench: batching comparison needs batch size ≥ 2, got %d", batchSize)
	}
	if shards < 1 {
		return nil, fmt.Errorf("bench: batching comparison needs shards ≥ 1, got %d", shards)
	}
	var rows []Row
	for _, n := range sizes {
		gen := workload.NewGen(e.G, int64(n)+91)
		gen.DistinctRels = true
		qs := gen.Interleave(gen.TwoWayBest(e.G.FriendPairs(n/2, int64(n)+91)))

		single, err := e.runSubmitMode(fmt.Sprintf("single submit (%d shards)", shards), qs, shards, batchSize, submitSingle)
		if err != nil {
			return nil, err
		}
		rows = append(rows, single)
		batched, err := e.runSubmitMode(fmt.Sprintf("batched B=%d (%d shards)", batchSize, shards), qs, shards, batchSize, submitBatch)
		if err != nil {
			return nil, err
		}
		rows = append(rows, batched)
		if batched.Answered != single.Answered {
			return nil, fmt.Errorf("bench: %q answered %d, single-submit answered %d on identical workloads",
				batched.Label, batched.Answered, single.Answered)
		}
	}
	return rows, nil
}

// submitReps is how many times runSubmitMode repeats each arm's submission
// phase (fresh engine every time); the reported Elapsed is the median. A
// single rep's wall time at small n is a handful of milliseconds — one
// scheduler hiccup on a busy host swamps the figure being compared.
const submitReps = 5

// runSubmitMode drives qs into a fresh set-at-a-time engine through the
// given submission mode, timing only the submission phase (median of
// submitReps runs); a flush after each rep drains the pending set for the
// answered-count equivalence check, which must agree across reps. The
// routing-work counters of one rep are appended to the label.
func (e *Env) runSubmitMode(label string, qs []*ir.Query, shards, batchSize int, mode submitMode) (Row, error) {
	var elapsed []time.Duration
	var row Row
	for rep := 0; rep < submitReps; rep++ {
		eng := engine.New(e.DB, engine.Config{Mode: engine.SetAtATime, Shards: shards, Seed: 1})
		// Quiesce before timing (as the arrival experiment does): the
		// previous rep or arm retired its whole workload moments ago, and
		// without a collection here that garbage is collected inside OUR
		// timed phase, charging later runs with earlier runs' GC debt.
		runtime.GC()
		start := time.Now()
		switch mode {
		case submitSingle:
			for _, q := range qs {
				if _, err := eng.Submit(q); err != nil {
					eng.Close()
					return Row{}, err
				}
			}
		default:
			for i := 0; i < len(qs); i += batchSize {
				end := i + batchSize
				if end > len(qs) {
					end = len(qs)
				}
				if _, err := eng.SubmitBatch(qs[i:end]); err != nil {
					eng.Close()
					return Row{}, err
				}
			}
		}
		elapsed = append(elapsed, time.Since(start))
		st := eng.Stats() // submission-path counters, before the drain flush
		eng.Flush()
		drained := eng.Stats()
		eng.Close()
		cur := Row{
			Label:    fmt.Sprintf("%s [%dp/%dl]", label, st.RouterPasses, st.SubmitLocks),
			N:        len(qs),
			Answered: drained.Answered, Rejected: drained.Rejected + drained.RejectedUnsafe, Pending: drained.Pending,
		}
		if rep == 0 {
			row = cur
		} else if cur.Answered != row.Answered || cur.Pending != row.Pending {
			return Row{}, fmt.Errorf("bench: %q rep %d answered %d/pending %d, rep 0 answered %d/pending %d",
				label, rep, cur.Answered, cur.Pending, row.Answered, row.Pending)
		}
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })
	row.Elapsed = elapsed[len(elapsed)/2]
	return row, nil
}
