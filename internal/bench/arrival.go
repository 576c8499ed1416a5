package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"entangle/internal/engine"
	"entangle/internal/ir"
	"entangle/internal/workload"
)

// ArrivalExperiment measures the incremental engine's per-arrival cost —
// the steady-state number a production coordination service lives on — for
// the two regimes an arrival can hit:
//
//   - "arrival non-closing": only the first member of each social pair is
//     submitted, so no component ever closes; this isolates the admission
//     pipeline itself (validate, route, safety check, graph insert,
//     closedness probe) with matching and evaluation out of the picture.
//   - "arrival closing (per pair)": both members arrive back to back and
//     the second closes the pair, so the figure includes matching, the
//     compiled combined-query evaluation, and retirement.
//   - "arrival closing cache-hit": same closing workload, but a warm-up
//     wave primes the shared compiled-plan cache first, so the timed wave
//     serves every component from the cache — zero CompilePlan calls,
//     enforced via the engine's PlanMisses staying flat. This is the
//     steady state of a service whose query shapes repeat, and the row's
//     budget pins the cache-hit closing cost below the cold closing cost.
//
// Both regimes run at the requested shard count AND single-shard (when they
// differ): the single-shard rows are the per-core reference point the
// ROADMAP's multicore re-measurement scales from, and give the perf gate a
// sharding-independent closing-path budget.
//
// Per-op wall time comes from the run clock; allocation figures come from
// runtime.MemStats deltas around the timed phase (the process is quiesced
// with a GC first), divided by the number of submissions. Each row also
// carries an AllocLimit — measured allocs/op × 1.4 + 6, rounded up — so a
// checked-in report pins a tight hard budget for the gate (see
// CompareReports): a regression back to map-backed evaluation (~2.5× the
// compiled path's allocations) trips CI outright, while small-scale
// amortisation noise stays inside the margin. Workloads use per-pair ANSWER
// relations (the routable shape), matching the engine's own
// BenchmarkArrival* microbenchmarks.
func (e *Env) ArrivalExperiment(sizes []int, shards int) ([]Row, error) {
	var rows []Row
	shardCounts := []int{shards}
	if shards != 1 {
		shardCounts = append(shardCounts, 1)
	}
	for _, n := range sizes {
		if n < 2 {
			n = 2
		}
		gen := workload.NewGen(e.G, int64(n)+137)
		gen.DistinctRels = true
		qs := gen.PermuteGroups(gen.TwoWayBest(e.G.FriendPairs(n/2, int64(n)+137)), 2)

		// Non-closing: first members only (pairs are adjacent after
		// PermuteGroups, so even indexes are first members).
		firsts := make([]*ir.Query, 0, len(qs)/2)
		for i := 0; i < len(qs); i += 2 {
			firsts = append(firsts, qs[i])
		}
		for _, sc := range shardCounts {
			open, err := e.runArrivals(fmt.Sprintf("arrival non-closing (%s)", shardsLabel(sc)), firsts, sc)
			if err != nil {
				return nil, err
			}
			if open.Answered != 0 {
				return nil, fmt.Errorf("bench: non-closing run answered %d queries", open.Answered)
			}
			rows = append(rows, open)

			closing, err := e.runArrivals(fmt.Sprintf("arrival closing (%s)", shardsLabel(sc)), qs, sc)
			if err != nil {
				return nil, err
			}
			if closing.Pending != 0 {
				return nil, fmt.Errorf("bench: closing run left %d pending", closing.Pending)
			}
			rows = append(rows, closing)

			// Resilience row: the same closing workload with the MaxPending
			// overload gate armed (cap high enough to never trip). Its
			// pinned AllocLimit proves the admission-path resilience hooks
			// (cap check + pending gauge) cost zero allocations: any
			// implementation that starts allocating on the gate trips the
			// perf gate against the closing baseline.
			if sc == 1 {
				guarded, err := e.runArrivalsCfg("arrival closing resilience-armed (1 shard)", nil, qs,
					engine.Config{Mode: engine.Incremental, Shards: 1, Seed: 1, MaxPending: len(qs) + 1})
				if err != nil {
					return nil, err
				}
				if guarded.Pending != 0 {
					return nil, fmt.Errorf("bench: resilience-armed run left %d pending", guarded.Pending)
				}
				rows = append(rows, guarded)

				// Contended row: the same closing workload submitted from two
				// goroutines with FlushEvery armed, so backlog-triggered
				// coordination rounds race the other submitter's arrivals on
				// one shard — the gate's standing coverage of the optimistic
				// snapshot-validate-deliver path under contention (the full
				// sweep lives in FlushParExperiment). Answered counts must
				// match the sequential closing run: retries never change
				// outcomes. Skipped at sizes too small to amortise the
				// pool-warm wave; the experiment's larger size always emits
				// the row, so the gate's fail-closed label check stays armed.
				if len(qs) >= 4*warmFlushWave(1) && len(qs) >= 200 {
					raced, err := e.runFlushRacing("arrival submitters racing flush (1 shard)", qs, 1, 2)
					if err != nil {
						return nil, err
					}
					if raced.Answered != closing.Answered {
						return nil, fmt.Errorf("bench: racing run answered %d, sequential closing run answered %d on identical workloads",
							raced.Answered, closing.Answered)
					}
					rows = append(rows, raced)
				}
			}

			// Repeat-shape wave: the first warmArrivals submissions prime
			// the plan cache untimed, the rest are timed as pure cache hits.
			if len(qs) >= warmArrivals+2 {
				hit, err := e.runArrivalsWarm(fmt.Sprintf("arrival closing cache-hit (%s)", shardsLabel(sc)),
					qs[:warmArrivals], qs[warmArrivals:], sc)
				if err != nil {
					return nil, err
				}
				if hit.Pending != 0 {
					return nil, fmt.Errorf("bench: cache-hit run left %d pending", hit.Pending)
				}
				rows = append(rows, hit)
			}
		}
	}
	return rows, nil
}

// warmArrivals is the untimed prefix of the cache-hit wave: two complete
// pairs, enough to compile the workload's one component shape into the
// engine's plan cache before the timed submissions start.
const warmArrivals = 4

// shardsLabel renders a shard count for row labels ("1 shard", "8 shards").
func shardsLabel(n int) string {
	if n == 1 {
		return "1 shard"
	}
	return fmt.Sprintf("%d shards", n)
}

// runArrivals submits qs one at a time to a fresh incremental engine,
// timing the submission phase and attributing allocations per arrival.
func (e *Env) runArrivals(label string, qs []*ir.Query, shards int) (Row, error) {
	return e.runArrivalsWarm(label, nil, qs, shards)
}

// runArrivalsWarm is runArrivals with an optional untimed warm-up wave,
// submitted on the same engine before the clock starts so the timed wave
// runs against a primed plan cache. When a warm-up is given, the timed
// wave must perform zero plan compilations — the engine's PlanMisses
// counter staying flat is enforced, so a checked-in cache-hit row can
// never silently measure the compile path.
func (e *Env) runArrivalsWarm(label string, warm, qs []*ir.Query, shards int) (Row, error) {
	return e.runArrivalsCfg(label, warm, qs, engine.Config{Mode: engine.Incremental, Shards: shards, Seed: 1})
}

// runArrivalsCfg is runArrivalsWarm with an explicit engine configuration,
// for rows that arm optional engine features (e.g. the MaxPending overload
// gate) and pin their cost on the arrival path.
func (e *Env) runArrivalsCfg(label string, warm, qs []*ir.Query, cfg engine.Config) (Row, error) {
	eng := engine.New(e.DB, cfg)
	defer eng.Close()
	for _, q := range warm {
		if _, err := eng.Submit(q); err != nil {
			return Row{}, err
		}
	}
	missesWarm := eng.Stats().PlanMisses
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, q := range qs {
		if _, err := eng.Submit(q); err != nil {
			return Row{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	st := eng.Stats()
	if warm != nil && st.PlanMisses != missesWarm {
		return Row{}, fmt.Errorf("bench: %s: PlanMisses grew %d -> %d during the repeat-shape wave; expected pure cache hits",
			label, missesWarm, st.PlanMisses)
	}
	n := len(qs)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(n)
	return Row{
		Label: label, N: n, Elapsed: elapsed,
		AllocsPerOp: allocs,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		AllocLimit:  math.Ceil(allocs*1.4) + 6,
		Answered:    st.Answered, Rejected: st.Rejected + st.RejectedUnsafe, Pending: st.Pending,
	}, nil
}
