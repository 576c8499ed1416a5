// Travel: group travel planning over a social network — the paper's
// motivating scenario at scale (Section 5.2).
//
// A synthetic social graph of 2,000 users is loaded into the database
// (Friends and User tables). Pairs of friends then submit the paper's
// two-way coordination queries as one SubmitBatch call — the path a booking
// front end draining a request queue would use: the whole wave is routed in
// one pass and each engine shard admits its share under one lock, with
// outcomes identical to submitting the queries one at a time. Pairs that
// share a hometown coordinate; the rest eventually go stale via the
// background Run loop.
//
// Run: go run ./examples/travel
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"entangle"
	"entangle/internal/workload"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fmt.Println("building a 2,000-user social substrate…")
	g := workload.NewGraph(workload.Config{N: 2000, AvgDeg: 12, Seed: 7})
	sys, err := entangle.Open(
		entangle.WithSeed(7),
		entangle.WithStaleAfter(200*time.Millisecond),
		entangle.WithFlushInterval(50*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := workload.PopulateDB(sys.DB(), g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d users, clustering ≈ %.3f\n", g.N, g.ClusteringCoefficient(300, 7))
	go sys.Run(ctx)

	// 200 friend pairs submit "fly with a friend from my city" queries,
	// ingested as one batch.
	gen := workload.NewGen(g, 7)
	pairs := g.FriendPairs(200, 7)
	queries := gen.Interleave(gen.TwoWayRandom(pairs))
	fmt.Printf("submitting %d entangled queries from %d friend pairs as one batch…\n", len(queries), len(pairs))

	handles, err := sys.SubmitBatch(ctx, queries)
	if err != nil {
		log.Fatal(err)
	}

	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	var (
		mu     sync.Mutex
		counts = map[entangle.Status]int{}
		sample []string
		wg     sync.WaitGroup
	)
	for i, h := range handles {
		wg.Add(1)
		go func(owner string, h *entangle.Handle) {
			defer wg.Done()
			r, err := h.Wait(waitCtx)
			if err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			counts[r.Status]++
			if r.Status == entangle.StatusAnswered && len(sample) < 5 {
				sample = append(sample, fmt.Sprintf("  %s booked: %s", owner, r.Answer.Tuples[0]))
			}
		}(queries[i].Owner, h)
	}
	wg.Wait()
	for _, line := range sample {
		fmt.Println(line)
	}

	fmt.Println("\noutcome summary:")
	for _, s := range []entangle.Status{entangle.StatusAnswered, entangle.StatusRejected, entangle.StatusStale, entangle.StatusUnsafe} {
		fmt.Printf("  %-9s %d\n", s, counts[s])
	}
	st := sys.Stats()
	fmt.Printf("engine: %d submissions, %d combined-query evaluations, %d router passes, %d submit locks\n",
		st.Submitted, st.Evaluations, st.RouterPasses, st.SubmitLocks)
	fmt.Println("\npairs sharing a hometown coordinated; pairs in different cities matched but found no")
	fmt.Println("satisfying data (rejected); queries whose partner collided with another pending pair")
	fmt.Println("were rejected by the safety check or timed out as stale.")
}
