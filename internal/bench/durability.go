package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"entangle/internal/engine"
	"entangle/internal/ir"
	"entangle/internal/workload"
)

// DurabilityExperiment measures what write-ahead logging costs on the
// arrival path, the engine's steady-state hot loop. One closing-pair
// workload (every second arrival closes its pair, so the figure includes
// matching, evaluation, delivery — and, when durable, the result records)
// runs against four engines:
//
//   - "wal=none": engine.New, no durability subsystem at all — the
//     pre-durability baseline, and the row BENCH_arrival.json already pins;
//   - "wal=off": a data directory with fsync policy Off — records are
//     framed and buffered, a background goroutine flushes them, nothing
//     fsyncs on the submission path. This is the "durability plumbing"
//     overhead: the admit record, the query's binary encoding, the result
//     records. Its allocation count is pinned (AllocLimit) so the logging
//     fast path cannot silently grow;
//   - "wal=batch": group fsync on a background tick — arrivals pay the
//     plumbing plus occasional contention with the flusher;
//   - "wal=sync": every append commits before the submission returns
//     (group commit shares fsyncs across concurrent committers, but this
//     workload submits serially, so it sees the full fsync latency).
//
// The batch and sync rows report wall time only (no alloc attribution):
// their per-op figures include fsync scheduling, which is host-dependent
// noise the alloc gate must not key budgets from. The none and off rows
// carry allocs/op plus a pinned AllocLimit, making the durability-off
// regression gate: Durability=Off must stay within a constant factor of
// the no-WAL engine's allocations.
func (e *Env) DurabilityExperiment(n, shards int) ([]Row, error) {
	if n < 2 {
		n = 2
	}
	gen := workload.NewGen(e.G, int64(n)+211)
	gen.DistinctRels = true
	qs := gen.PermuteGroups(gen.TwoWayBest(e.G.FriendPairs(n/2, int64(n)+211)), 2)

	variants := []struct {
		name    string
		policy  engine.Durability
		durable bool
		gated   bool // carry alloc figures + AllocLimit
	}{
		{"none", engine.DurabilityOff, false, true},
		{"off", engine.DurabilityOff, true, true},
		{"batch", engine.DurabilityBatch, true, false},
		{"sync", engine.DurabilitySync, true, false},
	}
	var rows []Row
	for _, v := range variants {
		label := fmt.Sprintf("durability arrival closing wal=%s (%s)", v.name, shardsLabel(shards))
		row, err := e.runDurableArrivals(label, v.policy, v.durable, v.gated, qs, shards)
		if err != nil {
			return nil, err
		}
		if row.Pending != 0 {
			return nil, fmt.Errorf("bench: %s left %d pending", label, row.Pending)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runDurableArrivals is runArrivals with an optional durability directory:
// the engine opens over a throwaway data dir (removed afterwards), the
// submission loop is timed exactly like the arrival experiment, and alloc
// attribution is recorded only for gated variants.
func (e *Env) runDurableArrivals(label string, policy engine.Durability, durable, gated bool, qs []*ir.Query, shards int) (Row, error) {
	cfg := engine.Config{Mode: engine.Incremental, Shards: shards, Seed: 1}
	if durable {
		dir, err := os.MkdirTemp("", "d3c-durability-*")
		if err != nil {
			return Row{}, err
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		cfg.Durability = policy
		cfg.CheckpointEvery = -1 // no mid-run checkpoint pauses
	}
	eng, err := engine.Open(e.DB, cfg)
	if err != nil {
		return Row{}, err
	}
	defer eng.Close()
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
	n := len(qs)
	row := Row{
		Label: label, N: n, Elapsed: elapsed,
		Answered: st.Answered, Rejected: st.Rejected + st.RejectedUnsafe, Pending: st.Pending,
	}
	if gated {
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(n)
		row.AllocsPerOp = allocs
		row.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		row.AllocLimit = math.Ceil(allocs*1.4) + 6
	}
	return row, nil
}
