// Command d3cd runs the D3C coordination server: an entangled-query engine
// over an in-memory database, exposed via the JSON line protocol of
// internal/server (including batched submission via the submit_batch op).
//
// Usage:
//
//	d3cd [-addr :7070] [-mode incremental|setatatime] [-stale 30s]
//	     [-flush-every 0] [-flush-interval 100ms] [-social N]
//	     [-data-dir DIR] [-durability off|batch|sync] [-checkpoint-every 1m]
//	     [-max-pending N] [-max-inflight N] [-write-timeout 10s]
//	     [-chaos-seed S]
//
// Resilience: -max-pending caps the engine-wide pending set (excess
// submissions shed with a typed "overloaded" reply), -max-inflight caps one
// connection's unresolved submissions, and -write-timeout bounds each reply
// write so a client that stops reading is torn down instead of wedging the
// server. -chaos-seed installs a deterministic fault injector under every
// accepted connection (for drills only — never in production): faults are
// drawn replayably from the seed and reported via the stats op.
//
// With -data-dir the server runs durably: every externally visible engine
// transition is written ahead to a WAL in DIR, periodic checkpoints bound
// the log, and a restart recovers the database and still-pending queries
// deterministically (see the root package's Durability docs). -durability
// picks the fsync policy; a clean shutdown always ends with a checkpoint.
//
// With -social N the server preloads the flight-booking social substrate
// (Friends/User tables over an N-user synthetic social graph) so clients
// can immediately run the paper's workloads. Without it the database starts
// empty and clients are expected to load their own schema via a sidecar.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"entangle"
	"entangle/internal/fault"
	"entangle/internal/server"
	"entangle/internal/wal"
	"entangle/internal/workload"
)

func main() {
	var (
		addr          = flag.String("addr", ":7070", "listen address")
		mode          = flag.String("mode", "incremental", "evaluation mode: incremental or setatatime")
		shards        = flag.Int("shards", 0, "engine shards (0 = one per CPU, 1 = single-lock engine)")
		stale         = flag.Duration("stale", 30*time.Second, "staleness bound for pending queries (0 = never)")
		flushEvery    = flag.Int("flush-every", 0, "set-at-a-time: auto-flush a shard after this many submissions landed on it (per shard, 0 = timer only)")
		flushInterval = flag.Duration("flush-interval", 100*time.Millisecond, "background flush/staleness tick")
		social        = flag.Int("social", 0, "preload a synthetic social graph with this many users (0 = empty database)")
		seed          = flag.Int64("seed", 42, "seed for the social graph and CHOOSE 1 randomness")
		dbFile        = flag.String("db", "", "database snapshot file: loaded on start if present, saved on shutdown")
		dataDir       = flag.String("data-dir", "", "durability directory (WAL + checkpoints); enables crash recovery")
		durability    = flag.String("durability", "batch", "WAL fsync policy with -data-dir: off, batch or sync")
		ckptEvery     = flag.Duration("checkpoint-every", time.Minute, "checkpoint interval with -data-dir (<0 = only on shutdown)")
		maxPending    = flag.Int("max-pending", 0, "cap on engine-wide pending queries; excess submissions are shed with a typed overloaded error (0 = uncapped)")
		maxInFlight   = flag.Int("max-inflight", 0, "cap on one connection's unresolved submissions (0 = default 1024, <0 = uncapped)")
		writeTimeout  = flag.Duration("write-timeout", 0, "per-reply write deadline; a client that stops reading is disconnected (0 = default 10s, <0 = none)")
		chaosSeed     = flag.Int64("chaos-seed", 0, "install a deterministic connection fault injector with this seed (0 = off; drills only)")
	)
	flag.Parse()
	if *dataDir != "" && *dbFile != "" {
		log.Fatal("d3cd: -db and -data-dir are mutually exclusive (the data directory already snapshots the database)")
	}

	var m entangle.Mode
	switch strings.ToLower(*mode) {
	case "incremental":
		m = entangle.Incremental
	case "setatatime", "set-at-a-time":
		m = entangle.SetAtATime
	default:
		log.Fatalf("d3cd: unknown mode %q", *mode)
	}

	opts := []entangle.Option{
		entangle.WithMode(m),
		entangle.WithShards(*shards),
		entangle.WithStaleAfter(*stale),
		entangle.WithFlushEvery(*flushEvery),
		entangle.WithFlushInterval(*flushInterval),
		entangle.WithSeed(*seed),
	}
	if *maxPending > 0 {
		opts = append(opts, entangle.WithMaxPending(*maxPending))
	}
	if *dataDir != "" {
		pol, err := wal.ParsePolicy(*durability)
		if err != nil {
			log.Fatalf("d3cd: %v", err)
		}
		opts = append(opts,
			entangle.WithDataDir(*dataDir),
			entangle.WithDurability(pol),
			entangle.WithCheckpointEvery(*ckptEvery),
		)
	}
	sys, err := entangle.Open(opts...)
	if err != nil {
		log.Fatalf("d3cd: %v", err)
	}
	if *dataDir != "" {
		rec := sys.Engine().Recovered()
		log.Printf("d3cd: durable in %s (policy %s), recovered %d pending queries", *dataDir, strings.ToLower(*durability), len(rec))
	}
	db := sys.DB()
	if *dbFile != "" {
		if _, err := os.Stat(*dbFile); err == nil {
			if err := db.LoadFile(*dbFile); err != nil {
				log.Fatalf("d3cd: load %s: %v", *dbFile, err)
			}
			log.Printf("d3cd: loaded snapshot %s:\n%s", *dbFile, strings.TrimSpace(db.String()))
		}
	}
	if *social > 0 && len(db.TableNames()) == 0 {
		log.Printf("d3cd: generating social substrate with %d users…", *social)
		g := workload.NewGraph(workload.Config{N: *social, Seed: *seed})
		if err := workload.PopulateDB(db, g); err != nil {
			log.Fatalf("d3cd: %v", err)
		}
		log.Printf("d3cd: loaded %s", strings.TrimSpace(db.String()))
	}

	ctx, cancel := context.WithCancel(context.Background())
	go sys.Run(ctx)

	srv := server.New(sys.Engine())
	srv.MaxInFlight = *maxInFlight
	srv.WriteTimeout = *writeTimeout
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("d3cd: %v", err)
	}
	if *chaosSeed != 0 {
		in := fault.Plan(*chaosSeed, 4)
		srv.Injector = in
		l = fault.WrapListener(l, in)
		log.Printf("d3cd: CHAOS MODE — connection fault injector armed with seed %d", *chaosSeed)
	}
	log.Printf("d3cd: serving %s mode on %s (%d shards)", m, l.Addr(), sys.Engine().NumShards())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "d3cd: shutting down")
		cancel()
		srv.Shutdown()
		l.Close()
		sys.Close()
		if *dbFile != "" {
			if err := db.SaveFile(*dbFile); err != nil {
				log.Printf("d3cd: save %s: %v", *dbFile, err)
			} else {
				log.Printf("d3cd: snapshot saved to %s", *dbFile)
			}
		}
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatalf("d3cd: %v", err)
	}
}
