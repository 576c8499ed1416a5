package main

import (
	"testing"
	"time"
)

// testLoad is a load over two single-query requests of one closing pair,
// both due in the first measured window, with no server behind it.
func testLoad(recovered bool) (*load, *loadConn) {
	st := &stream{
		spec: spec{batch: 1, op: "sql"},
		queries: []qinfo{
			{first: 0, closer: 1, want: wantAnswered, tuple: "R(a, b)"},
			{first: 0, closer: 1, want: wantRejected},
		},
		sends: []send{{first: 0, n: 1}, {first: 1, n: 1}},
	}
	ld := newLoad(st, newClock(), 0)
	ld.openStart, ld.winLen = 0, int64(time.Hour)
	c := &loadConn{ld: ld, recovered: recovered, fifo: make(chan int32, 4), wake: make(chan struct{}, 1),
		ids: map[int64]int32{}, outcomes: map[string]int{}}
	for k := range st.sends {
		ld.ref[k].Store(1000)
		c.fifo <- int32(k)
	}
	return ld, c
}

// A refused request and a wrong outcome count as failed and land in the
// latency histograms at the drain timeout: they miss every latency limit.
func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	_, c := testLoad(false)
	c.replied(&reply{Type: "error", Error: "overloaded"}, 2000)
	c.replied(&reply{Type: "ack", ID: 7}, 3000)
	if c.failures.refused != 1 || c.ack[0].n != 2 || c.ack[0].max != int64(drainTimeout) || c.ack[0].quantile(0.5) > 2100 {
		t.Errorf("refused %d, ack samples %d, slowest %v, faster one %v; want 1, 2, %v, 2µs",
			c.failures.refused, c.ack[0].n, time.Duration(c.ack[0].max), time.Duration(c.ack[0].quantile(0.5)), drainTimeout)
	}
	c.result(&reply{Type: "result", ID: 7, Status: wantAnswered, Tuples: []string{"R(a, b)"}}, 4000)
	if c.failures.mismatch != 1 || c.coord[0].max != int64(drainTimeout) {
		t.Errorf("an answer where a rejection was due: %d mismatches, coord sample %v", c.failures.mismatch, time.Duration(c.coord[0].max))
	}
	c.result(&reply{Type: "result", ID: 7, Status: wantRejected}, 5000)
	if c.failures.duplicate != 1 {
		t.Errorf("a second result for one id: %d duplicates", c.failures.duplicate)
	}
}

// After the crash epilogue's restart exactly one wrong outcome is the known
// recovery defect; every other one fails the run like anywhere else.
func TestRecoveredMismatchIsOnlyTheKnownDefect(t *testing.T) {
	_, c := testLoad(true)
	c.replied(&reply{Type: "ack", ID: 1}, 2000)
	c.replied(&reply{Type: "ack", ID: 2}, 2000)
	c.result(&reply{Type: "result", ID: 1, Status: wantRejected}, 3000) // due: answered
	c.result(&reply{Type: "result", ID: 2, Status: wantStale}, 3000)    // due: rejected
	if c.failures.recovered != 1 || c.failures.mismatch != 1 || c.failures.total() != 1 {
		t.Errorf("known defect %d, mismatches %d, failures %d; want 1, 1, 1", c.failures.recovered, c.failures.mismatch, c.failures.total())
	}
}
