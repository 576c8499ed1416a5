package main

import (
	"bytes"
	"testing"
	"time"

	"entangle/internal/engine"
	"entangle/internal/ir"
	"entangle/internal/workload"
)

// The oracle is computed from the social graph, not from the engine. This
// checks it against the engine once, in-process on one shard: every query of
// every workload, submitted in stream order, must resolve the way the oracle
// says — status and answer tuple.
func TestOracleAgreesWithSingleShardReference(t *testing.T) {
	db, g := smallDB(t)
	for _, sp := range specs {
		sp.stale = 0 // the reference run closes the engine instead of waiting
		st, err := buildStream(sp, g, 5, 2, 3000/sp.batch)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(db, engine.Config{Shards: 1, Seed: dataSeed})
		handles := make([]*engine.Handle, len(st.queries))
		for q := range st.queries {
			parsed := parseFragment(t, eng, st.queries[q].frag)
			if handles[q], err = eng.Submit(parsed); err != nil {
				t.Fatalf("%s: query %d: %v", sp.name, q, err)
			}
		}
		eng.Close() // what is still pending resolves stale
		counts := map[string]int{}
		for q, h := range handles {
			r, err := h.Wait(time.Second)
			if err != nil {
				t.Fatalf("%s: query %d: %v", sp.name, q, err)
			}
			qi := st.queries[q]
			counts[qi.want]++
			if got := r.Status.String(); got != qi.want {
				t.Fatalf("%s: query %d resolved %s (%s), oracle says %s", sp.name, q, got, r.Detail, qi.want)
			}
			if qi.want == wantAnswered && (len(r.Answer.Tuples) != 1 || r.Answer.Tuples[0].String() != qi.tuple) {
				t.Fatalf("%s: query %d answered %v, oracle says %s", sp.name, q, r.Answer.Tuples, qi.tuple)
			}
		}
		if counts[wantAnswered] == 0 || counts[wantRejected] == 0 {
			t.Errorf("%s: outcomes %v exercise only one of answered and rejected", sp.name, counts)
		}
		if sp.name == "backlog_churn" && counts[wantStale] == 0 {
			t.Errorf("%s: no never-closing queries", sp.name)
		}
	}
}

func parseFragment(t *testing.T, eng *engine.Engine, frag []byte) *ir.Query {
	t.Helper()
	op, text := splitFragment(t, frag)
	var q *ir.Query
	var err error
	if op == "sql" {
		q, err = eng.ParseSQL(text)
	} else {
		q, err = ir.Parse(0, text)
	}
	if err != nil {
		t.Fatalf("parse %s: %v", text, err)
	}
	return q
}

func TestStreamsAreDeterministicAndWellFormed(t *testing.T) {
	_, g := smallDB(t)
	for _, sp := range specs {
		a, err := buildStream(sp, g, 11, 2, 2000/sp.batch)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildStream(sp, g, 11, 2, 2000/sp.batch)
		c, _ := buildStream(sp, g, 12, 2, 2000/sp.batch)
		if !bytes.Equal(a.wire(), b.wire()) {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		if bytes.Equal(a.wire(), c.wire()) {
			t.Errorf("%s: two seeds gave the same stream", sp.name)
		}
		// Partners are different users on different connections, and a
		// batched group is spread over at least two requests.
		sendOf := make([]int, len(a.queries))
		for si, s := range a.sends {
			if int(s.n) != sp.batch {
				t.Fatalf("%s: request %d carries %d queries, want %d", sp.name, si, s.n, sp.batch)
			}
			for i := 0; i < int(s.n); i++ {
				sendOf[s.query(i)] = si
			}
		}
		for q, qi := range a.queries[:a.sends[len(a.sends)-1].first] {
			if qi.closer >= 0 && qi.closer < int32(q) || qi.first > int32(q) {
				t.Fatalf("%s: query %d lies outside its group [%d, %d]", sp.name, q, qi.first, qi.closer)
			}
			if int32(q) != qi.first && sendOf[q] == sendOf[qi.first] {
				t.Fatalf("%s: query %d shares request %d with its group's opener", sp.name, q, sendOf[q])
			}
		}
	}
	// durable_pairs sends pairs_point's stream, byte for byte.
	pp, _ := specByName("pairs_point")
	dp, _ := specByName("durable_pairs")
	x, _ := buildStream(pp, g, 4, 2, 1000)
	y, _ := buildStream(dp, g, 4, 2, 1000)
	if !bytes.Equal(x.wire(), y.wire()) {
		t.Error("durable_pairs and pairs_point streams differ")
	}
	if len(y.openers) != len(y.partners) || len(y.openers) == 0 || len(x.openers) != 0 {
		t.Errorf("epilogue: %d openers, %d partners on durable_pairs, %d openers on pairs_point",
			len(y.openers), len(y.partners), len(x.openers))
	}
}

// wire is every timed request line of the stream, concatenated.
func (st *stream) wire() []byte {
	var b []byte
	for i := range st.sends {
		b = st.appendRequest(b, &st.sends[i])
	}
	return b
}

func TestKeysKeepConcurrentGroupsDisjoint(t *testing.T) {
	g := workload.NewGraph(workload.Config{N: 2000, Seed: dataSeed})
	b, err := newBuilder(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 3*len(b.keys); i++ {
		rel, dest := b.nextKey()
		if last, ok := seen[rel+dest]; ok && i-last != len(b.keys) {
			t.Fatalf("key %s/%s reused after %d groups, want %d", rel, dest, i-last, len(b.keys))
		}
		seen[rel+dest] = i
	}
	if len(seen) != tenants*workload.NumAirports {
		t.Errorf("%d distinct keys, want %d", len(seen), tenants*workload.NumAirports)
	}
}
