// Command benchmark is the repository's benchmark: it starts a real d3cd on
// loopback, drives it open-loop over the JSON line protocol, checks every
// outcome against an oracle and prints every metric by name. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: pairs_point, cliques_batch, backlog_churn or durable_pairs")
		all      = flag.Bool("all", false, "run every workload, end-to-end and traced")
		sets     = flag.Int("sets", 1, "with -all: repeat the whole set this many times and print how well the sets agree")
		seed     = flag.Int64("seed", 1, "workload seed: shapes the query stream, not the database")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run: 2/3 open loop, 1/3 saturation")
		trace    = flag.Int("trace", 0, "1: also replay the stream in-process with spans and print the per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default <workdir>/spans-<workload>.json)")
		d3cd     = flag.String("d3cd", "", "path of the d3cd binary to start; empty serves in-process (smoke only)")
		workdir  = flag.String("workdir", "", "directory for data directories, logs and span files (default: a temporary one)")
		smoke    = flag.Bool("smoke", false, "a seconds-long in-process run on a 2,000-user substrate: checks the harness, measures nothing")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	if *workdir == "" {
		dir, err := os.MkdirTemp("", "d3c-benchmark-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer os.RemoveAll(dir)
		*workdir = dir
	} else if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	base := runConfig{
		seed: *seed, seconds: *seconds, warm: 2 * time.Second, users: 82168,
		nconn: runtime.NumCPU(), d3cd: *d3cd, workdir: *workdir, setups: 3,
		traced: 20000, roundTrips: 2000,
	}
	if !*smoke && *d3cd == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -d3cd is required (benchmark/run.sh builds it and passes it); only -smoke serves in-process")
		return 2
	}

	var names []string
	switch {
	case *all:
		for _, s := range specs {
			names = append(names, s.name)
		}
	case *workload != "":
		if _, ok := specByName(*workload); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	default:
		fmt.Fprintln(os.Stderr, "benchmark: give -workload <name> or -all")
		return 2
	}

	status := 0
	var setReports [][]*report
	for set := 0; set < *sets; set++ {
		var reports []*report
		for _, name := range names {
			cfg := base
			cfg.spec, _ = specByName(name)
			if *smoke {
				cfg = smokeConfig(cfg)
			}
			cfg.trace = *trace == 1 || *all
			if cfg.trace && !*all {
				cfg.setups = 1 // set-up time is an end-to-end metric; a traced run does not report it
			}
			cfg.spans = *traceOut
			if cfg.trace && cfg.spans == "" {
				cfg.spans = filepath.Join(*workdir, "spans-"+name+".json")
			}
			rep, err := run(ctx, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			reports = append(reports, rep)
			printReport(rep, *all || *trace == 0, cfg.trace)
			if rep.invalid != "" || float64(rep.failed) > 0.01*float64(rep.attempted) {
				status = 1
			}
			if !*all {
				if status != 0 {
					return status // an invalid run prints no result line
				}
				printResultLine(rep, *trace == 1)
			}
		}
		setReports = append(setReports, reports)
	}
	if *sets > 1 {
		if !printAgreement(setReports) {
			status = 1
		}
	}
	return status
}

// printReport prints a run's metrics by name with their units.
func printReport(rep *report, e2e, layer bool) {
	fmt.Printf("== %s: %d queries attempted, %d failed (failed_frac %.5f)\n",
		rep.workload, rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	if f := rep.failures; rep.failed > 0 {
		fmt.Printf("   failures: %d refused, %d outcome mismatches, %d duplicate results, %d late stale, %d protocol, %d without a result\n",
			f.refused, f.mismatch, f.duplicate, f.lateStale, f.protocol, rep.missing)
	}
	if rep.invalid != "" {
		fmt.Printf("   INVALID: %s\n", rep.invalid)
	}
	for _, n := range rep.notes {
		fmt.Printf("   %s\n", n)
	}
	show := func(ms map[string]metric) {
		for _, n := range sortedKeys(ms) {
			fmt.Printf("   %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	if e2e {
		show(rep.e2e)
	}
	if layer {
		show(rep.layer)
	}
}

// printResultLine prints the one-line result the benchmark driver reads.
func printResultLine(rep *report, layer bool) {
	ms := rep.e2e
	if layer {
		ms = rep.layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, ms}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// smokeConfig shrinks a run to about half a second against an in-process
// server on a 2,000-user substrate. It exercises every code path of the
// harness and measures nothing.
func smokeConfig(c runConfig) runConfig {
	c.smoke, c.d3cd, c.users, c.setups = true, "", 2000, 1
	c.seconds, c.warm = 0.45, 50*time.Millisecond
	c.traced, c.roundTrips = 1500, 100
	if c.spec.stale > 0 {
		c.spec.stale = 300 * time.Millisecond // the drain waits this long
	}
	return c
}
