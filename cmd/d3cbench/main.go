// Command d3cbench regenerates the figures of the paper's evaluation
// (Section 5.3) and the design-choice ablations, printing one series per
// figure in the same shape the paper reports.
//
// Usage:
//
//	d3cbench [-experiment all|fig6|fig7|fig8|fig9|ablations|sharding|batching|arrival|flushpar|durability|pushdown]
//	         [-users 82168] [-scale 1.0] [-seed 42] [-shards 8] [-workers 8]
//	         [-batch 64] [-json path]
//
// -users sets the social-graph size (default: the paper's 82,168).
// -scale multiplies the workload sizes; 1.0 reproduces the paper's range
// (5 … 100,000 queries), smaller values give quick runs.
// -experiment arrival measures incremental per-arrival latency and
// allocations, closing vs non-closing (the engine's hot path), at the
// requested shard count and single-shard (the per-core reference rows);
// each row carries the hard AllocLimit the perf gate enforces.
// -experiment flushpar pins the out-of-lock coordination pipeline: one row
// drains a pre-loaded backlog through the persistent worker pool (per-
// component allocation budget), one row races concurrent submitters against
// backlog-triggered coordination rounds (per-submission budget), with
// answered counts cross-checked between the two.
// -experiment batching compares the two submission modes — single Submit
// and SubmitBatch — timing the submission phase only (median of 5 reps),
// with identical answered counts enforced.
// -experiment durability measures the write-ahead log's overhead on the
// closing arrival path across fsync policies (no WAL at all, Off, Batch,
// Sync); the no-WAL and Off rows carry pinned alloc budgets, the Batch and
// Sync rows report honest wall-clock overhead only.
// -experiment pushdown compares extended coordination's aggregation-
// constraint evaluation paths on constraint-heavy workloads: constraints
// pushed into the compiled plan as residual filters (the default) versus
// the materialise-then-post-filter reference path, with identical
// answered/rejected/tuple counts enforced between the arms and pinned alloc
// budgets on both.
// -json writes every series the run produced as a machine-readable report,
// the format checked in as BENCH_arrival.json / BENCH_batching.json /
// BENCH_durability.json.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"entangle/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment: all, fig6, fig7, fig8, fig9, ablations, sharding, batching, arrival, flushpar, durability, pushdown")
		users      = flag.Int("users", 82168, "social graph size (paper: 82168)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper sizes up to 100k queries)")
		seed       = flag.Int64("seed", 42, "deterministic seed")
		shards     = flag.Int("shards", 8, "shard count for the sharding and batching experiments")
		workers    = flag.Int("workers", 8, "concurrent submitters for the sharding experiment")
		batch      = flag.Int("batch", 64, "batch size for the batching experiment")
		jsonPath   = flag.String("json", "", "write the run's series as a JSON report to this path")
	)
	flag.Parse()
	if *experiment == "ablation" {
		*experiment = "ablations" // accept the singular alias
	}

	sizes := scaled([]int{5, 100, 1000, 10000, 100000}, *scale)
	fig7Queries := int(10000 * *scale)
	if fig7Queries < 60 {
		fig7Queries = 60
	}
	resident := int(20000 * *scale)
	if resident < 100 {
		resident = 100
	}

	start := time.Now()
	log.Printf("d3cbench: building social substrate (%d users)…", *users)
	env, err := bench.NewEnv(*users, *seed)
	if err != nil {
		log.Fatalf("d3cbench: %v", err)
	}
	log.Printf("d3cbench: substrate ready in %v (clustering ≈ %.3f)",
		time.Since(start).Round(time.Millisecond), env.G.ClusteringCoefficient(500, *seed))

	report := bench.NewReport(*experiment, *users, *scale, *seed)
	// emit prints a series and records it for the JSON report.
	emit := func(heading string, rows []bench.Row) {
		bench.PrintSeries(os.Stdout, heading, rows)
		report.Add(heading, rows)
	}

	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("d3cbench: %s: %v", name, err)
		}
	}

	run("fig6", func() error {
		rows, err := env.Fig6TwoWayRandom(sizes)
		if err != nil {
			return err
		}
		emit("Figure 6 — two-way coordination, random workload", rows)
		rows, err = env.Fig6TwoWayBest(sizes)
		if err != nil {
			return err
		}
		emit("Figure 6 — two-way coordination, best case (fully specified)", rows)
		rows, err = env.Fig6ThreeWay(sizes)
		if err != nil {
			return err
		}
		emit("Figure 6 — three-way coordination (triangles)", rows)
		return nil
	})

	run("fig7", func() error {
		rows, err := env.Fig7Postconditions(fig7Queries, 5)
		if err != nil {
			return err
		}
		emit(
			fmt.Sprintf("Figure 7 — scalability in the number of postconditions (%d queries)", fig7Queries), rows)
		return nil
	})

	run("fig8", func() error {
		rows, err := env.Fig8NoUnify(sizes)
		if err != nil {
			return err
		}
		emit("Figure 8 — no coordination, no unification", rows)
		rows, err = env.Fig8Chains(sizes, 16)
		if err != nil {
			return err
		}
		emit("Figure 8 — usual partitions (bounded chains)", rows)
		big := scaled([]int{100, 1000, 5000}, *scale)
		rows, err = env.Fig8BigCluster(big)
		if err != nil {
			return err
		}
		emit("Figure 8 — massive single cluster: incremental vs set-at-a-time", rows)
		return nil
	})

	run("fig9", func() error {
		rows, err := env.Fig9SafetyCheck(resident, sizes)
		if err != nil {
			return err
		}
		emit(
			fmt.Sprintf("Figure 9 — safety check with %d resident queries", resident), rows)
		return nil
	})

	run("sharding", func() error {
		rows, err := env.ShardingComparison(scaled([]int{1000, 10000}, *scale), *shards, *workers)
		if err != nil {
			return err
		}
		emit(
			fmt.Sprintf("Sharding — concurrent submit, 1 shard vs %d shards (%d workers)", *shards, *workers), rows)
		return nil
	})

	run("batching", func() error {
		rows, err := env.BatchingComparison(scaled([]int{1000, 10000}, *scale), *batch, *shards)
		if err != nil {
			return err
		}
		emit(
			fmt.Sprintf("Batching — single Submit vs SubmitBatch B=%d (%d shards); labels carry [router passes/submit locks]", *batch, *shards), rows)
		return nil
	})

	run("arrival", func() error {
		rows, err := env.ArrivalExperiment(scaled([]int{1000, 10000}, *scale), *shards)
		if err != nil {
			return err
		}
		emit(
			fmt.Sprintf("Arrival — incremental per-arrival latency and allocations, closing vs non-closing (%d shards)", *shards), rows)
		return nil
	})

	run("flushpar", func() error {
		rows, err := env.FlushParExperiment(scaled([]int{1000, 10000}, *scale), *shards, *workers)
		if err != nil {
			return err
		}
		emit(
			fmt.Sprintf("Flushpar — out-of-lock coordination rounds on the worker pool: backlog drain and submitters racing flush (%d shards, %d submitters)", *shards, *workers), rows)
		return nil
	})

	run("durability", func() error {
		n := int(10000 * *scale)
		if n < 60 {
			n = 60
		}
		rows, err := env.DurabilityExperiment(n, 1)
		if err != nil {
			return err
		}
		emit(
			fmt.Sprintf("Durability — WAL overhead on the closing arrival path, %d queries (1 shard; none/off alloc-gated, batch/sync latency only)", n), rows)
		return nil
	})

	run("pushdown", func() error {
		rows, err := bench.PushdownExperiment(scaled([]int{40, 200}, *scale), *seed)
		if err != nil {
			return err
		}
		emit("Pushdown — aggregation constraints as residual plan filters vs materialise-then-post-filter (alloc-gated)", rows)
		return nil
	})

	run("ablations", func() error {
		rows, err := env.AblationAtomIndex(scaled([]int{1000, 10000}, *scale))
		if err != nil {
			return err
		}
		emit("Ablation A1 — atom index vs linear scan (graph construction)", rows)
		rows, err = env.AblationModes(scaled([]int{1000, 10000}, *scale))
		if err != nil {
			return err
		}
		emit("Ablation A2 — incremental vs set-at-a-time on matched pairs", rows)
		rows, err = env.AblationMGU(int(3000**scale)+60, 3)
		if err != nil {
			return err
		}
		emit("Ablation A3 — union-find MGU vs naive quadratic merge", rows)
		rows, err = env.AblationCSPBaseline([]int{4, 8, 16, 24, 32})
		if err != nil {
			return err
		}
		emit("Ablation A4 — safe-fragment matcher vs CSP backtracking (Theorem 2.1)", rows)
		return nil
	})

	if *jsonPath != "" {
		if err := report.Write(*jsonPath); err != nil {
			log.Fatalf("d3cbench: writing %s: %v", *jsonPath, err)
		}
		log.Printf("d3cbench: wrote JSON report to %s", *jsonPath)
	}
	log.Printf("d3cbench: done in %v", time.Since(start).Round(time.Millisecond))
}

// scaled multiplies sizes by the scale factor, keeping a sane minimum.
func scaled(sizes []int, scale float64) []int {
	out := make([]int, 0, len(sizes))
	for _, s := range sizes {
		v := int(float64(s) * scale)
		if v < 5 {
			v = 5
		}
		out = append(out, v)
	}
	return out
}
