package server

import (
	"fmt"
	"testing"

	"entangle/internal/engine"
	"entangle/internal/ir"
)

// wireReader reads one raw connection and enforces the wire-order contract
// clients (the repo benchmark's load generator among them) rely on: replies
// arrive in request order, and every result arrives after the ack or batch
// reply that carried its id.
type wireReader struct {
	*rawConn
	carried map[ir.QueryID]bool
	results map[ir.QueryID][]Response
}

func newWireReader(t *testing.T, addr string) *wireReader {
	return &wireReader{rawConn: rawDial(t, addr), carried: map[ir.QueryID]bool{}, results: map[ir.QueryID][]Response{}}
}

// reply reads up to and including the next reply, checking every result
// read on the way, and checks that the reply answers the oldest unanswered
// request: its type, and its token when one was sent.
func (w *wireReader) reply(typ, token string) Response {
	w.t.Helper()
	for {
		m := w.recv()
		if m.Type == "result" {
			if !w.carried[m.ID] {
				w.t.Fatalf("result for query %d arrived before the reply carrying its id", m.ID)
			}
			w.results[m.ID] = append(w.results[m.ID], m)
			continue
		}
		if m.Type != typ || m.Token != token {
			w.t.Fatalf("reply %+v, want type %q token %q", m, typ, token)
		}
		if m.ID != 0 {
			w.carried[m.ID] = true
		}
		for _, it := range m.Items {
			if it.ID != 0 {
				w.carried[it.ID] = true
			}
		}
		return m
	}
}

// await reads results until each id has n of them, all answered.
func (w *wireReader) await(n int, ids ...ir.QueryID) {
	w.t.Helper()
	for _, id := range ids {
		for len(w.results[id]) < n {
			m := w.recv()
			if m.Type != "result" {
				w.t.Fatalf("unsolicited reply %+v", m)
			}
			if !w.carried[m.ID] {
				w.t.Fatalf("result for query %d arrived before the reply carrying its id", m.ID)
			}
			w.results[m.ID] = append(w.results[m.ID], m)
		}
		for _, r := range w.results[id] {
			if r.Status != "answered" {
				w.t.Fatalf("query %d: %+v", id, r)
			}
		}
		if len(w.results[id]) != n {
			w.t.Fatalf("query %d: %d results, want %d", id, len(w.results[id]), n)
		}
	}
}

// pairIR returns the two halves of a coordinating pair on relation rel; the
// second closes the pair on arrival.
func pairIR(rel string) (opener, closer string) {
	return fmt.Sprintf("{%s(B, x)} %s(A, x) :- F(x, Rome)", rel, rel),
		fmt.Sprintf("{%s(A, y)} %s(B, y) :- F(y, Rome)", rel, rel)
}

// TestWireOrder pins the ordering contract on every path where a result
// can be delivered before its reply is written: pairs closing on arrival
// (the closer's own result is delivered inside its admission), batches
// whose members close inside the batch, a tokened re-send after a forced
// reconnect, and a subscription replay. Run under -race -count=20.
func TestWireOrder(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 2}, nil)

	t.Run("closing arrivals", func(t *testing.T) {
		w := newWireReader(t, addr)
		const pairs = 16
		for i := 0; i < pairs; i++ {
			opener, closer := pairIR(fmt.Sprintf("CA%d", i))
			w.send(Request{Op: "ir", IR: opener})
			if i%2 == 0 {
				w.send(Request{Op: "ir", IR: closer, Token: fmt.Sprintf("ca-%d", i)})
			} else {
				w.send(Request{Op: "sql", SQL: fmt.Sprintf(`SELECT 'B', fno INTO ANSWER CA%d
WHERE fno IN (SELECT fno FROM F WHERE dest = 'Rome') AND ('A', fno) IN ANSWER CA%d CHOOSE 1`, i, i)})
			}
		}
		var ids []ir.QueryID
		for i := 0; i < pairs; i++ {
			ids = append(ids, w.reply("ack", "").ID)
			token := ""
			if i%2 == 0 {
				token = fmt.Sprintf("ca-%d", i)
			}
			ids = append(ids, w.reply("ack", token).ID)
		}
		w.await(1, ids...)
	})

	t.Run("batch closing inside", func(t *testing.T) {
		w := newWireReader(t, addr)
		pOpen, pClose := pairIR("BC0")
		xOpen, xClose := pairIR("BC1")
		w.send(Request{Op: "ir", IR: pOpen})
		w.send(Request{Op: "submit_batch", Queries: []BatchQuery{{IR: pClose}, {IR: xOpen}, {IR: xClose}}})
		w.send(Request{Op: "stats"})
		ids := []ir.QueryID{w.reply("ack", "").ID}
		for _, it := range w.reply("batch", "").Items {
			ids = append(ids, it.ID)
		}
		w.reply("stats", "")
		w.await(1, ids...)
	})

	t.Run("token re-send after reconnect", func(t *testing.T) {
		opener, closer := pairIR("TR")
		first := newWireReader(t, addr)
		first.send(Request{Op: "ir", IR: opener, Token: "tr-open"})
		id := first.reply("ack", "tr-open").ID
		first.conn.Close() // the client loses the connection before the result

		// The re-send is acked with the original id; the partner, pipelined
		// behind it, closes the pair, so the re-delivered result and the
		// partner's own both follow their acks.
		second := newWireReader(t, addr)
		second.send(Request{Op: "ir", IR: opener, Token: "tr-open"})
		second.send(Request{Op: "ir", IR: closer, Token: "tr-close"})
		if got := second.reply("ack", "tr-open").ID; got != id {
			t.Fatalf("re-send acked id %d, want %d", got, id)
		}
		partner := second.reply("ack", "tr-close").ID
		second.await(1, id, partner)

		// A re-send after the result exists gets the ack, then the cached
		// result.
		third := newWireReader(t, addr)
		third.send(Request{Op: "ir", IR: opener, Token: "tr-open"})
		third.reply("ack", "tr-open")
		third.await(1, id)
	})

	t.Run("subscribe replay", func(t *testing.T) {
		var queries []BatchQuery
		for i := 0; i < 4; i++ {
			opener, closer := pairIR(fmt.Sprintf("SR%d", i))
			queries = append(queries, BatchQuery{IR: opener}, BatchQuery{IR: closer})
		}
		first := newWireReader(t, addr)
		first.send(Request{Op: "subscribe", Queries: queries, Token: "sr"})
		var ids []ir.QueryID
		for _, it := range first.reply("batch", "sr").Items {
			ids = append(ids, it.ID)
		}
		first.await(1, ids...)
		// A re-send replays the batch reply and then every result.
		second := newWireReader(t, addr)
		second.send(Request{Op: "subscribe", Queries: queries, Token: "sr"})
		second.reply("batch", "sr")
		second.await(1, ids...)
	})
}
