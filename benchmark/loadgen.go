package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// windows is how many equal windows the measured open-loop phase is cut
// into. A latency metric is the median over the windows of the per-window
// percentile, which one slow window (a GC, a scheduler hiccup) cannot move.
const windows = 5

// satWindow is the saturation phase's cap on unacknowledged queries per
// connection: the phase is clocked by acks, not by time.
const satWindow = 256

// drainTimeout is how long after the last request a result may still arrive
// before its query counts as failed.
const drainTimeout = 10 * time.Second

// reply is the subset of server.Response the load connections read. It is
// declared here, not imported, so that the reader decodes nothing it does not
// use.
type reply struct {
	Type   string   `json:"type"`
	ID     int64    `json:"id"`
	Status string   `json:"status"`
	Tuples []string `json:"tuples"`
	Error  string   `json:"error"`
	Items  []struct {
		ID    int64  `json:"id"`
		Error string `json:"error"`
	} `json:"items"`
}

// load is the state one run's writer and readers share. Each query is written
// once, on one connection, and everything recorded about it (ackAt, results)
// belongs to that connection's reader until the readers have stopped; only
// ref crosses connections, and it is atomic.
type load struct {
	st  *stream
	clk clock
	// sends holds the stream's requests followed by room for the requests
	// the run assembles itself (tail and epilogue); entries past the stream
	// are written before their index is queued to a reader.
	sends []send
	used  int // writer-owned: entries of sends in use
	// ref is each query's reference time: when it was due in the open loop,
	// when it was written otherwise. Latency is measured from here.
	ref     []atomic.Int64
	ackAt   []int64
	results []uint8
	sent    []bool // writer-owned

	openStart, winLen int64 // the measured phase, fixed before anything is sent
	satStart, satEnd  atomic.Int64
	staleBound        int64 // latest a never-closing query may resolve after its ack; 0 = unchecked

	lag      hist // writer-owned: how late each open-loop burst was written
	late     int  // bursts written more than maxLagUS late
	realtime bool // the pacer got real-time scheduling
}

// loadConn is one load connection and its reader's tallies.
type loadConn struct {
	ld      *load
	nc      net.Conn
	fifo    chan int32      // indexes of written requests awaiting their reply
	wake    chan struct{}   // poked by the reader after every reply
	unacked atomic.Int32    // requests written and not yet replied to
	ids     map[int64]int32 // engine id → query, reader-owned
	wbuf    []byte          // writer-owned
	closing atomic.Bool
	// recovered marks a connection opened after the crash epilogue's
	// restart. The server at the commit that added this benchmark re-parses
	// its own log wrongly (README.md) and rejects every recovered group that
	// should be answered; that one outcome on such a connection is counted
	// as wal.recovered_mismatch, not as a failure of the run — the run would
	// have been incorrect from its first day. Any other wrong outcome fails.
	recovered bool
	done      chan struct{}

	bytesOut int64 // writer-owned
	// Reader-owned, read by the run after done is closed.
	bytesIn    int64
	ack, coord [windows]hist
	satAcked   int64 // queries acknowledged during the saturation phase
	failures   failures
	outcomes   map[string]int
	readErr    error

	ackedQ, resolved atomic.Int64 // queries acknowledged / resolved, for draining
}

// failures counts what the run holds against the server, by kind.
type failures struct {
	refused   int // error replies, overloaded included
	mismatch  int // outcome differs from the oracle
	duplicate int // a second result for one query
	lateStale int // a never-closing query outlived -stale + 2 ticks
	protocol  int // a reply that fits no request
	recovered int // recovered groups rejected instead of answered: the known defect, not a failure
}

func (f *failures) add(o failures) {
	f.refused += o.refused
	f.mismatch += o.mismatch
	f.duplicate += o.duplicate
	f.lateStale += o.lateStale
	f.protocol += o.protocol
	f.recovered += o.recovered
}

func (f failures) total() int {
	return f.refused + f.mismatch + f.duplicate + f.lateStale + f.protocol
}

func newLoad(st *stream, clk clock, extra int) *load {
	n := len(st.queries)
	ld := &load{
		st:      st,
		clk:     clk,
		sends:   make([]send, len(st.sends), len(st.sends)+extra),
		used:    len(st.sends),
		ref:     make([]atomic.Int64, n),
		ackAt:   make([]int64, n),
		results: make([]uint8, n),
		sent:    make([]bool, n),
	}
	copy(ld.sends, st.sends)
	ld.sends = ld.sends[:cap(ld.sends)]
	return ld
}

func (ld *load) dial(addr string, recovered bool) (*loadConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	c := &loadConn{
		ld: ld, nc: nc, recovered: recovered,
		// Sized so the writer never blocks on it before the socket does:
		// the saturation window admits far fewer, and an open loop that is
		// this far behind has already failed its lag limit.
		fifo:     make(chan int32, 1<<16),
		wake:     make(chan struct{}, 1),
		ids:      make(map[int64]int32),
		outcomes: make(map[string]int),
		done:     make(chan struct{}),
	}
	go c.read()
	return c, nil
}

func (c *loadConn) close() {
	c.closing.Store(true)
	c.nc.Close()
	<-c.done
}

// window returns which measured window a reference time falls into, or -1.
func (ld *load) window(ref int64) int {
	if ref < ld.openStart {
		return -1
	}
	w := int((ref - ld.openStart) / ld.winLen)
	if w >= windows {
		return -1
	}
	return w
}

func (c *loadConn) read() {
	defer close(c.done)
	ld := c.ld
	br := bufio.NewReaderSize(c.nc, 1<<20)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if !c.closing.Load() {
				c.readErr = err
			}
			return
		}
		now := ld.clk.now()
		c.bytesIn += int64(len(line))
		var r reply
		if err := json.Unmarshal(line, &r); err != nil {
			c.failures.protocol++
			continue
		}
		switch r.Type {
		case "result":
			c.result(&r, now)
		case "ack", "batch", "error":
			c.replied(&r, now)
		default:
			c.failures.protocol++
		}
	}
}

// replied matches an ack, batch or error reply to the oldest unanswered
// request of this connection: the server answers requests in order.
func (c *loadConn) replied(r *reply, now int64) {
	ld := c.ld
	var s *send
	select {
	case k := <-c.fifo:
		s = &ld.sends[k]
	default:
		c.failures.protocol++
		return
	}
	n := 0 // queries of the request the server accepted
	switch {
	case r.Type == "error":
		c.failures.refused += int(s.n)
	case r.Type == "ack" && s.n == 1:
		c.ids[r.ID] = s.query(0)
		n = 1
	case r.Type == "batch" && len(r.Items) == int(s.n):
		for i, it := range r.Items {
			if it.Error != "" {
				c.failures.refused++
				continue
			}
			c.ids[it.ID] = s.query(i)
			n++
		}
	default:
		c.failures.protocol++
	}
	first := s.query(0)
	ref := ld.ref[first].Load()
	if w := ld.window(ref); w >= 0 {
		lat := now - ref
		if n < int(s.n) {
			lat = int64(drainTimeout) // a failed request misses every latency limit
		}
		c.ack[w].record(lat)
	}
	if now >= ld.satStart.Load() && now < ld.satEnd.Load() {
		c.satAcked += int64(n)
	}
	for i := 0; i < int(s.n); i++ {
		ld.ackAt[s.query(i)] = now
	}
	c.ackedQ.Add(int64(n))
	c.unacked.Add(-1)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *loadConn) result(r *reply, now int64) {
	ld := c.ld
	q, ok := c.ids[r.ID]
	if !ok {
		// A second result for a resolved query, or one for an id this
		// connection never submitted.
		c.failures.duplicate++
		return
	}
	delete(c.ids, r.ID)
	ld.results[q]++
	c.outcomes[r.Status]++
	qi := &ld.st.queries[q]
	wrong := r.Status != qi.want || (qi.want == wantAnswered && (len(r.Tuples) != 1 || r.Tuples[0] != qi.tuple))
	if wrong {
		if c.recovered && qi.want == wantAnswered && r.Status == wantRejected {
			c.failures.recovered++
		} else {
			c.failures.mismatch++
		}
	}
	if qi.closer >= 0 {
		ref := ld.ref[qi.closer].Load()
		if w := ld.window(ref); w >= 0 {
			lat := now - ref
			if wrong {
				lat = int64(drainTimeout) // a wrong outcome misses every latency limit
			}
			c.coord[w].record(lat)
		}
	} else if ld.staleBound > 0 && now-ld.ackAt[q] > ld.staleBound {
		c.failures.lateStale++
	}
	c.resolved.Add(1)
}

// queue hands request k to its connection: reference times are stamped, the
// reader is told to expect a reply, and the line joins the write buffer.
func (ld *load) queue(conns []*loadConn, k int, ref int64) {
	s := &ld.sends[k]
	c := conns[s.conn]
	for i := 0; i < int(s.n); i++ {
		q := s.query(i)
		ld.ref[q].Store(ref)
		ld.sent[q] = true
	}
	c.unacked.Add(1)
	c.fifo <- int32(k)
	c.wbuf = ld.st.appendRequest(c.wbuf, s)
}

func flush(conns []*loadConn) error {
	for _, c := range conns {
		if len(c.wbuf) == 0 {
			continue
		}
		n, err := c.nc.Write(c.wbuf)
		c.bytesOut += int64(n)
		c.wbuf = c.wbuf[:0]
		if err != nil {
			return fmt.Errorf("write to server: %w", err)
		}
	}
	return nil
}

// openLoop writes requests [from, to) on the schedule's ticks starting at
// start, whatever the server does: a slow server makes replies late, never
// requests. Each request's reference time is when it was due.
func (ld *load) openLoop(conns []*loadConn, sch schedule, start int64, from, to int) error {
	rt, undo := realtime()
	defer undo()
	ld.realtime = rt
	for k := from; k < to; {
		due := start + sch.due(k-from)
		now := ld.clk.waitUntil(due)
		ld.lag.record(now - due)
		if now-due > maxLagUS*1000 {
			ld.late++
		}
		for ; k < to && start+sch.due(k-from) == due; k++ {
			ld.queue(conns, k, due)
		}
		if err := flush(conns); err != nil {
			return err
		}
	}
	return nil
}

// ackClocked writes requests from index from in stream order as fast as acks
// allow — at most limit unacknowledged requests per connection — until until
// (clock time; 0 = no limit) or index to. It returns the next unsent index.
// One writer keeps the stream's order across connections, so no connection
// can run ahead of its partners' and inflate the pending set.
func (ld *load) ackClocked(conns []*loadConn, from, to, limit int, until int64) (int, error) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	k := from
	for ; k < to; k++ {
		c := conns[ld.sends[k].conn]
		for int(c.unacked.Load()) >= limit {
			if err := flush(conns); err != nil {
				return k, err
			}
			select {
			case <-c.wake:
			case <-tick.C:
				if c.isDone() {
					return k, errors.New("connection to server lost")
				}
			}
			if until > 0 && ld.clk.now() >= until {
				return k, nil
			}
		}
		if until > 0 && k%64 == 0 && ld.clk.now() >= until {
			break
		}
		ld.queue(conns, k, ld.clk.now())
		if len(c.wbuf) >= 32<<10 {
			if err := flush(conns); err != nil {
				return k, err
			}
		}
	}
	return k, flush(conns)
}

func (c *loadConn) isDone() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// settle waits until every request has its reply and, if results is set,
// every acknowledged query its result, for at most timeout.
func settle(conns []*loadConn, results bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		quiet := true
		for _, c := range conns {
			if c.unacked.Load() > 0 || (results && c.resolved.Load() < c.ackedQ.Load()) {
				quiet = false
			}
			if c.isDone() {
				return false
			}
		}
		if quiet {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// tail appends requests for the members that complete every group opened
// before cut (a stream index) and returns their index range in sends.
func (ld *load) tail(cut int32, nconn int) (from, to int) {
	from = ld.used
	var rest []int32
	timed := int32(len(ld.st.queries))
	if len(ld.st.openers) > 0 {
		timed = ld.st.openers[0].first
	}
	for q := cut; q < timed; q++ {
		if ld.st.queries[q].first < cut {
			rest = append(rest, q)
		}
	}
	per := ld.st.spec.batch
	for i := 0; i < len(rest); i += per {
		chunk := rest[i:min(i+per, len(rest))]
		s := send{first: chunk[0], n: int32(len(chunk)), conn: ld.st.queries[chunk[0]].conn}
		if per > 1 {
			s.list, s.conn = chunk, int32(ld.used%nconn)
		}
		ld.sends[ld.used] = s
		ld.used++
	}
	return from, ld.used
}

// appendSends copies requests (the epilogue's) into sends and returns their
// index range.
func (ld *load) appendSends(ss []send) (from, to int) {
	from = ld.used
	ld.used += copy(ld.sends[ld.used:], ss)
	return from, ld.used
}

// windowStat is a latency over the measured windows: the median of the
// per-window medians, the spread between the windows' quartiles, and how many
// samples the windows held.
type windowStat struct {
	median, iqr float64 // milliseconds
	samples     uint64
}

func windowQuantile(conns []*loadConn, pick func(*loadConn) *[windows]hist, q float64) windowStat {
	var vals []float64
	var ws windowStat
	for w := 0; w < windows; w++ {
		var h hist
		for _, c := range conns {
			h.merge(&pick(c)[w])
		}
		if h.n == 0 {
			continue
		}
		ws.samples += h.n
		vals = append(vals, float64(h.quantile(q))/1e6)
	}
	ws.median, ws.iqr = medianIQR(vals)
	return ws
}

// pooledTail merges the measured windows and returns their p99 — or the
// highest lower percentile that still leaves ten samples beyond it — in
// milliseconds, with the percentile used.
func pooledTail(conns []*loadConn, pick func(*loadConn) *[windows]hist) (q, ms float64) {
	var h hist
	for _, c := range conns {
		for w := range pick(c) {
			h.merge(&pick(c)[w])
		}
	}
	q = h.tailQuantile(0.5, 0.9, 0.95, 0.99)
	return q, float64(h.quantile(q)) / 1e6
}
