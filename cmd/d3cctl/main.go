// Command d3cctl is an interactive client for a d3cd server. It reads
// entangled queries from stdin — either entangled SQL (lines starting with
// SELECT, terminated by a blank line or CHOOSE clause) or the IR text
// syntax ({C} H :- B, one per line) — submits them, and prints results as
// they arrive.
//
// Commands:
//
//	.load s1; s2; …    run a DDL/DML script on the server's database
//	.batch q1; q2; …   submit several IR queries as one engine batch
//	.subscribe q1; q2; …  submit a query set as one subscription: all results
//	                   stream back on one multiplexed channel, surviving
//	                   reconnects with exactly one outcome per query
//	.flush             force a set-at-a-time round
//	.checkpoint        durably checkpoint the server's engine (durable servers)
//	.stats             print engine counters (plus WAL counters on durable servers)
//	.faults            print resilience counters (client reconnects, server fault injector)
//	.quit              exit
//
// The client self-heals: a dropped connection is redialed with backoff and
// unacked submissions are re-sent idempotently, so a flaky server restart
// surfaces as typed "connection lost" messages rather than killing the
// session.
//
// Usage: d3cctl [-addr localhost:7070]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"entangle/internal/engine"
	"entangle/internal/server"
)

// describe renders an operation error with its typed cause spelled out, so
// transient transport failures are distinguishable from query errors.
func describe(err error) string {
	switch {
	case errors.Is(err, engine.ErrOverloaded):
		return fmt.Sprintf("server overloaded (shed; retry later): %v", err)
	case errors.Is(err, engine.ErrWALPoisoned):
		return fmt.Sprintf("server WAL poisoned (run .checkpoint to clear): %v", err)
	case errors.Is(err, server.ErrConnLost):
		return fmt.Sprintf("connection lost (client is redialing; retry the command): %v", err)
	case errors.Is(err, server.ErrOpTimeout):
		return fmt.Sprintf("operation timed out (server slow or unreachable): %v", err)
	case errors.Is(err, server.ErrClientClosed):
		return "client closed"
	default:
		return err.Error()
	}
}

func main() {
	addr := flag.String("addr", "localhost:7070", "d3cd server address")
	flag.Parse()

	c, err := server.DialWith(*addr, server.DialOptions{Reconnect: true})
	if err != nil {
		log.Fatalf("d3cctl: %v", err)
	}
	defer c.Close()
	fmt.Printf("connected to %s — enter IR queries ({C} H :- B) or SQL (SELECT …; multiline until CHOOSE), .help for commands\n", *addr)

	results := make(chan server.Response, 64)
	sc := bufio.NewScanner(os.Stdin)
	var sqlBuf []string

	submitSQL := func(text string) {
		qid, ch, err := c.SubmitSQL(text)
		if err != nil {
			fmt.Printf("error: %s\n", describe(err))
			return
		}
		fmt.Printf("submitted q%d\n", qid)
		go func() { results <- <-ch }()
	}
	submitIR := func(text string) {
		qid, ch, err := c.SubmitIR(text)
		if err != nil {
			fmt.Printf("error: %s\n", describe(err))
			return
		}
		fmt.Printf("submitted q%d\n", qid)
		go func() { results <- <-ch }()
	}

	submitBatch := func(text string) {
		var queries []server.BatchQuery
		for _, part := range strings.Split(text, ";") {
			if part = strings.TrimSpace(part); part != "" {
				queries = append(queries, server.BatchQuery{IR: part})
			}
		}
		if len(queries) == 0 {
			fmt.Println("usage: .batch {C} H :- B; {C} H :- B; …")
			return
		}
		handles, err := c.SubmitBatch(queries)
		if err != nil {
			fmt.Printf("error: %s\n", describe(err))
			return
		}
		for i, h := range handles {
			if h.Err != nil {
				fmt.Printf("batch[%d] error: %v\n", i, h.Err)
				continue
			}
			fmt.Printf("submitted q%d\n", h.ID)
			go func(ch <-chan server.Response) { results <- <-ch }(h.Ch)
		}
	}

	subscribe := func(text string) {
		var queries []server.BatchQuery
		for _, part := range strings.Split(text, ";") {
			if part = strings.TrimSpace(part); part != "" {
				queries = append(queries, server.BatchQuery{IR: part})
			}
		}
		if len(queries) == 0 {
			fmt.Println("usage: .subscribe {C} H :- B; {C} H :- B; …")
			return
		}
		sub, err := c.Subscribe(queries)
		if err != nil {
			fmt.Printf("error: %s\n", describe(err))
			return
		}
		for i, item := range sub.Items() {
			if item.Error != "" {
				fmt.Printf("subscribe[%d] error: %s\n", i, item.Error)
			} else {
				fmt.Printf("subscribed q%d\n", item.ID)
			}
		}
		go func() {
			for r := range sub.Results() {
				results <- r
			}
		}()
	}

	// Printer goroutine: results arrive asynchronously.
	go func() {
		for r := range results {
			if r.Status == "answered" {
				fmt.Printf("q%d answered: %s\n", r.ID, strings.Join(r.Tuples, ", "))
			} else {
				fmt.Printf("q%d %s: %s\n", r.ID, r.Status, r.Detail)
			}
		}
	}()

	prompt := func() { fmt.Print("> ") }
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			if len(sqlBuf) > 0 {
				submitSQL(strings.Join(sqlBuf, "\n"))
				sqlBuf = nil
			}
		case line == ".quit":
			return
		case line == ".help":
			fmt.Println("IR query:  {R(Jerry, x)} R(Kramer, x) :- Flights(x, Paris)")
			fmt.Println("SQL query: SELECT 'Kramer', fno INTO ANSWER R WHERE … CHOOSE 1 (multiline; ends at CHOOSE or blank line)")
			fmt.Println("commands:  .load <ddl/dml statements;…>  .batch <ir; ir; …>  .subscribe <ir; ir; …>  .flush  .checkpoint  .stats  .faults  .quit")
		case strings.HasPrefix(line, ".subscribe "):
			subscribe(strings.TrimPrefix(line, ".subscribe "))
		case strings.HasPrefix(line, ".batch "):
			submitBatch(strings.TrimPrefix(line, ".batch "))
		case strings.HasPrefix(line, ".load "):
			if err := c.Load(strings.TrimPrefix(line, ".load ")); err != nil {
				fmt.Printf("error: %s\n", describe(err))
			} else {
				fmt.Println("loaded")
			}
		case line == ".flush":
			if err := c.Flush(); err != nil {
				fmt.Printf("error: %s\n", describe(err))
			} else {
				fmt.Println("flushed")
			}
		case line == ".checkpoint":
			if err := c.Checkpoint(); err != nil {
				fmt.Printf("error: %s\n", describe(err))
			} else {
				fmt.Println("checkpointed")
			}
		case line == ".faults":
			ls := c.LocalStats()
			fmt.Printf("client: reconnects=%d conns-lost=%d dropped-replies=%d resubmits=%d\n",
				ls.Reconnects, ls.ConnsLost, ls.DroppedReplies, ls.Resubmits)
			st, err := c.Stats()
			if err != nil {
				fmt.Printf("error: %s\n", describe(err))
				break
			}
			if st.Stats != nil {
				poisoned := st.Stats.WAL != nil && st.Stats.WAL.Poisoned
				fmt.Printf("server: overloaded-shed=%d wal-poisoned=%v\n", st.Stats.Overloaded, poisoned)
			}
			if f := st.Faults; f != nil {
				fmt.Printf("injector: seed=%d injected=%d file-writes=%d/%d file-syncs=%d/%d conn-read-bytes=%d/%d conn-write-bytes=%d/%d (count/faults)\n",
					f.Seed, f.Injected(),
					f.FileWrites, f.FileWriteFaults, f.FileSyncs, f.FileSyncFaults,
					f.ConnReadBytes, f.ConnReadFaults, f.ConnWriteBytes, f.ConnWriteFaults)
			} else {
				fmt.Println("injector: none installed")
			}
		case line == ".stats":
			st, err := c.Stats()
			if err != nil {
				fmt.Printf("error: %s\n", describe(err))
			} else if st.Stats != nil {
				s := st.Stats
				fmt.Printf("submitted=%d answered=%d rejected=%d unsafe=%d stale=%d pending=%d flushes=%d router-passes=%d submit-locks=%d families-retired=%d plan-hits=%d plan-misses=%d plan-evictions=%d\n",
					s.Submitted, s.Answered, s.Rejected, s.RejectedUnsafe, s.ExpiredStale, s.Pending, s.Flushes,
					s.RouterPasses, s.SubmitLocks, s.FamiliesRetired,
					s.PlanHits, s.PlanMisses, s.PlanEvictions)
				fmt.Printf("  eval: workers=%d queue-depth=%d retries=%d\n",
					s.EvalWorkers, s.EvalQueueDepth, s.EvalRetries)
				if s.Overloaded > 0 {
					fmt.Printf("  overloaded: %d submissions shed\n", s.Overloaded)
				}
				if w := s.WAL; w != nil {
					fmt.Printf("  wal: records=%d bytes=%d fsyncs=%d checkpoints=%d last-checkpoint-age-ms=%d append-errors=%d checkpoint-errors=%d poisoned=%v\n",
						w.Records, w.Bytes, w.Fsyncs, w.Checkpoints, w.LastCheckpointAgeMS, w.AppendErrors, w.CheckpointErrors, w.Poisoned)
				}
				for i, sh := range s.PerShard {
					fmt.Printf("  shard %d: submitted=%d answered=%d rejected=%d unsafe=%d stale=%d pending=%d flushes=%d\n",
						i, sh.Submitted, sh.Answered, sh.Rejected, sh.RejectedUnsafe, sh.ExpiredStale, sh.Pending, sh.Flushes)
				}
			}
		case len(sqlBuf) > 0 || strings.HasPrefix(strings.ToUpper(line), "SELECT"):
			sqlBuf = append(sqlBuf, line)
			if strings.Contains(strings.ToUpper(line), "CHOOSE") {
				submitSQL(strings.Join(sqlBuf, "\n"))
				sqlBuf = nil
			}
		case strings.HasPrefix(line, "{"):
			submitIR(line)
		default:
			fmt.Println("unrecognised input; .help for syntax")
		}
		prompt()
	}
}
