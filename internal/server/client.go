package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/ir"
)

// Typed client-side transport errors, matchable with errors.Is through
// every wrapping layer.
var (
	// ErrConnLost — the connection died (and, with reconnection enabled,
	// could not be re-established within the retry budget) before the
	// operation completed. Waiting result channels receive a synthesized
	// error result carrying CodeConnLost instead of hanging.
	ErrConnLost = errors.New("server client: connection lost")
	// ErrClientClosed — the operation ran on a client after Close.
	ErrClientClosed = errors.New("server client: closed")
	// ErrOpTimeout — the operation's per-op deadline (DialOptions.OpTimeout)
	// elapsed before its reply arrived. The reply is still owed on the
	// connection; the client skips it before the next exchange.
	ErrOpTimeout = errors.New("server client: operation timed out")
)

// DialOptions configures a client's resilience behavior.
type DialOptions struct {
	// OpTimeout bounds each request/reply exchange (including waiting for a
	// live connection). 0 picks the default (5s); negative disables
	// deadlines entirely.
	OpTimeout time.Duration
	// Reconnect enables automatic redial after a lost connection. Single
	// submissions (sql / ir) carry idempotency tokens and are
	// re-sent when the connection died before their ack, so a flaky link
	// cannot admit a query twice or lose it without a typed error.
	Reconnect bool
	// RetryBudget caps dial attempts per reconnection episode (0 → 5). An
	// exhausted budget fails waiting operations with ErrConnLost; the next
	// operation arms a fresh episode.
	RetryBudget int
	// BackoffMin/BackoffMax bound the exponential backoff between dial
	// attempts (0 → 25ms / 1s). The delay for attempt k is drawn
	// deterministically from JitterSeed in [d/2, d], d = min(Min<<k, Max).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// JitterSeed seeds the backoff jitter, making reconnection schedules
	// replayable in tests.
	JitterSeed int64
	// Dialer overrides how connections are (re)established; nil dials TCP.
	// Tests use this to interpose fault.Conn wrappers.
	Dialer func(addr string) (net.Conn, error)
}

// clientSeq distinguishes the token namespaces of clients created in the
// same nanosecond.
var clientSeq atomic.Uint64

// Client is a connection to a D3C server. Safe for concurrent use; results
// are demultiplexed by query ID. With DialOptions.Reconnect it is
// self-healing: a dropped connection is redialed with jittered backoff,
// unacked single submissions are re-sent under their idempotency token, and
// operations that cannot complete fail with typed errors — never a hang.
type Client struct {
	addr string
	opts DialOptions

	// reqMu serialises request/reply exchanges: it is held across the
	// request encode AND the receive of its in-order reply, so concurrent
	// submissions (single or batch), loads, and flushes can never consume
	// each other's acknowledgements off the generation's acks channel.
	reqMu sync.Mutex

	mu           sync.Mutex
	conn         net.Conn
	enc          *json.Encoder
	gen          int  // bumped by install; stale generations are ignored
	dead         bool // no live connection
	reconnecting bool
	closed       bool
	change       chan struct{} // closed+replaced on any lifecycle change
	acks         chan Response // current generation's in-order replies; closed on death
	skip         int           // replies owed to timed-out exchanges on skipGen
	skipGen      int
	waiters      map[ir.QueryID]chan Response
	orphans      map[ir.QueryID]Response   // results that arrived before their waiter registered
	subIDs       map[ir.QueryID]*ClientSub // subscription routing: query id → its stream
	statsCh      chan Response             // stats replies, shared across generations
	readErr      error
	reconFails   int // reconnection episodes that exhausted their budget

	jmu  sync.Mutex
	jrnd *rand.Rand

	tokenPrefix string
	tokenSeq    atomic.Uint64

	reconnects     atomic.Int64
	connsLost      atomic.Int64
	droppedReplies atomic.Int64
	resubmits      atomic.Int64
}

// ClientLocalStats are the client's own resilience counters (not the
// server's engine stats).
type ClientLocalStats struct {
	Reconnects     int64 `json:"reconnects"`      // successful redials
	ConnsLost      int64 `json:"conns_lost"`      // connection deaths observed
	DroppedReplies int64 `json:"dropped_replies"` // unsolicited/stale replies discarded
	Resubmits      int64 `json:"resubmits"`       // tokened requests re-sent after a lost ack
}

// LocalStats snapshots the client-side resilience counters.
func (c *Client) LocalStats() ClientLocalStats {
	return ClientLocalStats{
		Reconnects:     c.reconnects.Load(),
		ConnsLost:      c.connsLost.Load(),
		DroppedReplies: c.droppedReplies.Load(),
		Resubmits:      c.resubmits.Load(),
	}
}

// Dial connects to a D3C server with default options (5s per-op deadline,
// no reconnection).
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects to a D3C server with explicit resilience options.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	if opts.OpTimeout == 0 {
		opts.OpTimeout = 5 * time.Second
	} else if opts.OpTimeout < 0 {
		opts.OpTimeout = 0 // disabled
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = 5
	}
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = 25 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = time.Second
	}
	if opts.Dialer == nil {
		opts.Dialer = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	conn, err := opts.Dialer(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		addr:        addr,
		opts:        opts,
		dead:        true,
		change:      make(chan struct{}),
		waiters:     make(map[ir.QueryID]chan Response),
		orphans:     make(map[ir.QueryID]Response),
		jrnd:        rand.New(rand.NewSource(opts.JitterSeed)),
		tokenPrefix: fmt.Sprintf("%x-%x", time.Now().UnixNano(), clientSeq.Add(1)),
		statsCh:     make(chan Response, 16),
	}
	c.install(conn)
	return c, nil
}

// Close terminates the connection; pending waiters receive a conn-lost
// error result and no further reconnection is attempted.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.bumpLocked()
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// bumpLocked signals a lifecycle change to everyone blocked in awaitConn.
// Caller holds c.mu.
func (c *Client) bumpLocked() {
	close(c.change)
	c.change = make(chan struct{})
}

// install adopts conn as the new current generation and starts its read
// loop.
func (c *Client) install(conn net.Conn) {
	c.mu.Lock()
	if c.closed {
		c.reconnecting = false
		c.bumpLocked()
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.gen++
	c.conn = conn
	c.enc = json.NewEncoder(conn)
	c.dead = false
	c.reconnecting = false
	acks := make(chan Response, 16)
	c.acks = acks
	gen := c.gen
	c.bumpLocked()
	c.mu.Unlock()
	go c.readLoop(conn, gen, acks)
}

func (c *Client) readLoop(conn net.Conn, gen int, acks chan Response) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			continue
		}
		switch resp.Type {
		case "ack", "error", "batch":
			// Never block the read loop on a slow/absent exchange: an
			// unsolicited or stale reply is dropped and counted, so one
			// misrouted message cannot wedge result delivery for the whole
			// connection.
			select {
			case acks <- resp:
			default:
				c.droppedReplies.Add(1)
			}
		case "stats":
			select {
			case c.statsCh <- resp:
			default:
				c.droppedReplies.Add(1)
			}
		case "result":
			c.mu.Lock()
			if sub, ok := c.subIDs[resp.ID]; ok {
				// Subscription result: forwarded (or deduped, on a replayed
				// stream after a reconnect) without ever blocking this loop.
				c.deliverSubLocked(sub, resp)
				c.mu.Unlock()
				continue
			}
			ch := c.waiters[resp.ID]
			delete(c.waiters, resp.ID)
			if ch == nil {
				// Coordination can complete before the submitter has
				// registered its waiter (the ack and the result race);
				// park the result until the waiter appears.
				c.orphans[resp.ID] = resp
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- resp
			}
		}
	}
	c.connLost(conn, gen, acks, sc.Err())
}

// connLost runs when a generation's read loop exits: it fails that
// generation's waiters with a typed conn-lost result, wakes exchanges
// blocked on its acks channel, and arms reconnection when enabled.
func (c *Client) connLost(conn net.Conn, gen int, acks chan Response, scanErr error) {
	conn.Close()
	close(acks) // exchanges blocked on this generation observe !ok
	c.mu.Lock()
	if gen != c.gen {
		c.mu.Unlock()
		return // an older generation dying after its replacement installed
	}
	c.connsLost.Add(1)
	c.dead = true
	c.readErr = scanErr
	for id, ch := range c.waiters {
		ch <- Response{Type: "result", ID: id, Status: "error",
			Code: CodeConnLost, Detail: "connection lost"}
	}
	c.waiters = make(map[ir.QueryID]chan Response)
	recon := c.opts.Reconnect && !c.closed && !c.reconnecting
	if recon {
		c.reconnecting = true
	}
	c.bumpLocked()
	c.mu.Unlock()
	if recon {
		go c.reconnect()
	}
}

// backoff returns the jittered delay before dial attempt k (0-based,
// counting from the first retry).
func (c *Client) backoff(k int) time.Duration {
	d := c.opts.BackoffMin << uint(k)
	if d <= 0 || d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	c.jmu.Lock()
	j := time.Duration(c.jrnd.Int63n(int64(d)/2 + 1))
	c.jmu.Unlock()
	return d/2 + j
}

// reconnect is one reconnection episode: up to RetryBudget dials with
// jittered exponential backoff. Exactly one runs at a time (the
// reconnecting flag); an exhausted budget leaves the client dead until the
// next operation arms a fresh episode.
func (c *Client) reconnect() {
	for attempt := 0; attempt < c.opts.RetryBudget; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff(attempt - 1))
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			break
		}
		conn, err := c.opts.Dialer(c.addr)
		if err == nil {
			c.reconnects.Add(1)
			c.install(conn)
			return
		}
	}
	c.mu.Lock()
	c.reconnecting = false
	c.reconFails++
	c.bumpLocked()
	c.mu.Unlock()
}

// awaitConn returns the current live generation's encoder and acks channel,
// blocking (deadline-bounded) through reconnection when the client is dead.
// It re-arms a reconnection episode on demand, so a client whose previous
// episode exhausted its budget self-heals on the next operation.
func (c *Client) awaitConn(deadline time.Time) (*json.Encoder, chan Response, int, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, nil, 0, ErrClientClosed
		}
		if !c.dead {
			if c.skipGen != c.gen {
				c.skip, c.skipGen = 0, c.gen
			}
			enc, acks, gen := c.enc, c.acks, c.gen
			c.mu.Unlock()
			return enc, acks, gen, nil
		}
		if !c.opts.Reconnect {
			err := c.readErr
			c.mu.Unlock()
			if err != nil {
				return nil, nil, 0, fmt.Errorf("%w: %v", ErrConnLost, err)
			}
			return nil, nil, 0, ErrConnLost
		}
		fails := c.reconFails
		if !c.reconnecting {
			c.reconnecting = true
			go c.reconnect()
		}
		ch := c.change
		c.mu.Unlock()
		if deadline.IsZero() {
			<-ch
		} else {
			d := time.Until(deadline)
			if d <= 0 {
				return nil, nil, 0, fmt.Errorf("%w awaiting connection", ErrOpTimeout)
			}
			t := time.NewTimer(d)
			select {
			case <-ch:
				t.Stop()
			case <-t.C:
				return nil, nil, 0, fmt.Errorf("%w awaiting connection", ErrOpTimeout)
			}
		}
		c.mu.Lock()
		budgetOut := c.dead && !c.reconnecting && c.reconFails > fails
		c.mu.Unlock()
		if budgetOut {
			return nil, nil, 0, fmt.Errorf("%w: reconnect budget exhausted", ErrConnLost)
		}
	}
}

// recvAck reads one in-order reply off acks, bounded by deadline. The third
// return is true on timeout (the reply is still owed on the connection).
func recvAck(acks chan Response, deadline time.Time) (Response, bool, bool) {
	if deadline.IsZero() {
		r, ok := <-acks
		return r, ok, false
	}
	d := time.Until(deadline)
	if d <= 0 {
		return Response{}, true, true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case r, ok := <-acks:
		return r, ok, false
	case <-t.C:
		return Response{}, true, true
	}
}

// exchange performs one request/reply round: wait for a live connection,
// encode, skip replies owed to previously timed-out exchanges, receive the
// in-order reply. Caller holds reqMu. retryable marks requests that are
// safe to re-send on a new connection when the old one died before the
// reply — only idempotent (tokened) single submissions qualify. Returns the
// reply and the generation it arrived on.
func (c *Client) exchange(req Request, retryable bool) (Response, int, error) {
	var deadline time.Time
	if c.opts.OpTimeout > 0 {
		deadline = time.Now().Add(c.opts.OpTimeout)
	}
attempts:
	for attempt := 0; ; attempt++ {
		enc, acks, gen, err := c.awaitConn(deadline)
		if err != nil {
			return Response{}, 0, err
		}
		if attempt > 0 {
			c.resubmits.Add(1)
		}
		if err := enc.Encode(req); err != nil {
			c.killGen(gen)
			if retryable {
				continue
			}
			return Response{}, 0, fmt.Errorf("%w: %v", ErrConnLost, err)
		}
		c.mu.Lock()
		owed := 0
		if c.skipGen == gen {
			owed, c.skip = c.skip, 0
		}
		c.mu.Unlock()
		// Consume owed+1 replies; the last one is ours.
		for remaining := owed + 1; remaining > 0; remaining-- {
			r, ok, timedOut := recvAck(acks, deadline)
			if timedOut {
				c.mu.Lock()
				if c.gen == gen {
					c.skip, c.skipGen = c.skip+remaining, gen
				}
				c.mu.Unlock()
				return Response{}, 0, fmt.Errorf("%w (op %s)", ErrOpTimeout, req.Op)
			}
			if !ok {
				if retryable {
					continue attempts
				}
				return Response{}, 0, fmt.Errorf("%w awaiting reply", ErrConnLost)
			}
			if remaining > 1 {
				c.droppedReplies.Add(1)
				continue
			}
			return r, gen, nil
		}
	}
}

// killGen force-closes the given generation's connection after an encode
// failure; its read loop observes the close and runs the normal conn-lost
// path (fail waiters, arm reconnection).
func (c *Client) killGen(gen int) {
	c.mu.Lock()
	if c.gen == gen && !c.dead && c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
}

// nextToken mints a client-unique idempotency token.
func (c *Client) nextToken() string {
	return fmt.Sprintf("%s-%x", c.tokenPrefix, c.tokenSeq.Add(1))
}

// registerWaiter installs the single-result channel for an accepted query.
// If its result already arrived it is delivered immediately; if the
// generation that acked it is gone (died between ack and registration) a
// typed conn-lost result is synthesized so the caller never hangs.
func (c *Client) registerWaiter(id ir.QueryID, gen int) <-chan Response {
	ch := make(chan Response, 1)
	c.mu.Lock()
	if r, ok := c.orphans[id]; ok {
		delete(c.orphans, id)
		ch <- r
	} else if c.gen != gen || c.dead {
		ch <- Response{Type: "result", ID: id, Status: "error",
			Code: CodeConnLost, Detail: "connection lost before result"}
	} else {
		c.waiters[id] = ch
	}
	c.mu.Unlock()
	return ch
}

// submit sends a tokened single submission and waits for the ack,
// registering a result waiter. The token makes the request idempotent, so
// a connection lost before the ack triggers a transparent re-send.
func (c *Client) submit(req Request) (ir.QueryID, <-chan Response, error) {
	req.Token = c.nextToken()
	c.reqMu.Lock()
	ack, gen, err := c.exchange(req, true)
	c.reqMu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	if ack.Type == "error" {
		return 0, nil, ack.Err()
	}
	return ack.ID, c.registerWaiter(ack.ID, gen), nil
}

// SubmitSQL submits an entangled-SQL statement; the returned channel
// receives the single terminal result.
func (c *Client) SubmitSQL(sql string) (ir.QueryID, <-chan Response, error) {
	return c.submit(Request{Op: "sql", SQL: sql})
}

// BatchHandle is the per-query outcome of a client batch submission: either
// Err is set (that query was refused — parse or validation failure) or Ch
// receives the query's single terminal result.
type BatchHandle struct {
	ID  ir.QueryID
	Err error
	Ch  <-chan Response
}

// SubmitBatch submits many queries in one submit_batch request, admitted
// server-side through the engine's batched fast path. Returns one handle
// per query in input order; a per-query failure sets that handle's Err and
// does not fail the rest. The error return covers transport-level failures
// only. Batch submissions carry no idempotency token and are never re-sent;
// a connection lost mid-exchange fails with ErrConnLost.
func (c *Client) SubmitBatch(queries []BatchQuery) ([]BatchHandle, error) {
	return c.submitMany(Request{Op: "submit_batch", Queries: queries})
}

// submitMany performs a batch-shaped request/reply exchange: send one
// request, consume its in-order "batch" reply, register a waiter per
// accepted query. If the acking generation died before registration,
// accepted handles get synthesized conn-lost results.
func (c *Client) submitMany(req Request) ([]BatchHandle, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	queries := req.Queries
	ack, gen, err := c.exchange(req, false)
	if err != nil {
		return nil, err
	}
	if ack.Type == "error" {
		return nil, ack.Err()
	}
	if len(ack.Items) != len(queries) {
		return nil, fmt.Errorf("server client: batch reply has %d items for %d queries", len(ack.Items), len(queries))
	}
	out := make([]BatchHandle, len(ack.Items))
	c.mu.Lock()
	defer c.mu.Unlock()
	stale := c.gen != gen || c.dead
	for i, item := range ack.Items {
		if item.Error != "" {
			out[i] = BatchHandle{Err: fmt.Errorf("server: %s", item.Error)}
			continue
		}
		ch := make(chan Response, 1)
		if r, ok := c.orphans[item.ID]; ok {
			delete(c.orphans, item.ID)
			ch <- r
		} else if stale {
			ch <- Response{Type: "result", ID: item.ID, Status: "error",
				Code: CodeConnLost, Detail: "connection lost before result"}
		} else {
			c.waiters[item.ID] = ch
		}
		out[i] = BatchHandle{ID: item.ID, Ch: ch}
	}
	return out, nil
}

// SubmitIR submits a query in IR text syntax.
func (c *Client) SubmitIR(irText string) (ir.QueryID, <-chan Response, error) {
	return c.submit(Request{Op: "ir", IR: irText})
}

// control performs an ack-only exchange (load / flush / checkpoint): not
// idempotent, so never re-sent — a mid-exchange connection loss surfaces as
// ErrConnLost.
func (c *Client) control(req Request) error {
	c.reqMu.Lock()
	ack, _, err := c.exchange(req, false)
	c.reqMu.Unlock()
	if err != nil {
		return err
	}
	if ack.Type == "error" {
		return ack.Err()
	}
	return nil
}

// Load runs a DDL/DML script (memdb.ExecScript syntax) on the server's
// database.
func (c *Client) Load(script string) error {
	return c.control(Request{Op: "load", SQL: script})
}

// Checkpoint asks the server to durably checkpoint its engine. Fails on
// servers whose engine has no data directory. A checkpoint also clears the
// engine's WAL fail-stop (poisoned) state.
func (c *Client) Checkpoint() error {
	return c.control(Request{Op: "checkpoint"})
}

// Flush asks the server to run a set-at-a-time evaluation round.
func (c *Client) Flush() error {
	return c.control(Request{Op: "flush"})
}

// Stats fetches the engine counters (plus fault-injector counters, when the
// server has an injector installed), bounded by the per-op deadline.
func (c *Client) Stats() (Response, error) {
	var deadline time.Time
	if c.opts.OpTimeout > 0 {
		deadline = time.Now().Add(c.opts.OpTimeout)
	}
	c.reqMu.Lock()
	enc, _, _, err := c.awaitConn(deadline)
	if err != nil {
		c.reqMu.Unlock()
		return Response{}, err
	}
	// Discard stale stats replies from previously timed-out Stats calls so
	// this call cannot read an old snapshot.
drain:
	for {
		select {
		case <-c.statsCh:
			c.droppedReplies.Add(1)
		default:
			break drain
		}
	}
	err = enc.Encode(Request{Op: "stats"})
	c.reqMu.Unlock() // stats replies arrive on their own channel; don't block submitters while waiting
	if err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	if deadline.IsZero() {
		return <-c.statsCh, nil
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case r := <-c.statsCh:
		return r, nil
	case <-t.C:
		return Response{}, fmt.Errorf("%w (op stats)", ErrOpTimeout)
	}
}
