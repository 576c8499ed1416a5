// Package server exposes the D3C engine over TCP with a JSON line protocol,
// mirroring the paper's system structure (Section 5.1): a server accepting
// connections and entangled queries from many concurrent clients, answering
// asynchronously once coordination succeeds or fails.
//
// Protocol: each line is one JSON object.
//
//	client → server: {"op":"sql","sql":"SELECT …"}        submit entangled SQL
//	                 {"op":"ir","ir":"{R(J,x)} R(K,x) :- F(x,P)"}  submit IR text
//	                 {"op":"submit_batch","queries":[{"sql":"…"},{"ir":"…"}]}
//	                                                      submit many queries in one engine batch
//	                 {"op":"subscribe","queries":[…],"token":"…"}
//	                                                      submit a query set, stream every result back
//	                 {"op":"load","sql":"CREATE TABLE …"} run a DDL/DML script
//	                 {"op":"flush"}                       force a set-at-a-time round
//	                 {"op":"checkpoint"}                  durably checkpoint (durable engines)
//	                 {"op":"stats"}                       engine counters
//	server → client: {"type":"ack","id":7}                submission accepted
//	                 {"type":"error","error":"…"}         submission failed
//	                 {"type":"error","error":"…","code":"overloaded"}
//	                                                      typed failure (code: "overloaded" | "wal_poisoned")
//	                 {"type":"batch","items":[{"id":7},{"error":"…"}]}
//	                                                      per-query batch outcome, in input order
//	                 {"type":"result","id":7,"status":"answered","tuples":["R(K, 122)"]}
//	                 {"type":"stats","stats":{…}}
//
// Request lines are capped at 1 MiB; a longer line ends the connection with
// a final error reply ("token too long").
//
// # Connection model
//
// Each connection has exactly two goroutines, however many of its queries
// are pending. The reader decodes requests, admits them, and queues their
// replies in request order. Results reach the connection through the
// engine's per-query delivery hook (Engine.SubmitNotify and friends), which
// only appends to the connection's queue. The writer encodes the queue with
// encoding/json into a buffered writer and flushes it, under one write
// deadline, whenever the queue drains. Replies therefore arrive in request
// order, and every result arrives after the ack or batch reply that carries
// its ID: a submission that closes a coordination round on arrival has its
// own result delivered before its ack exists, so results delivered while a
// submission is being admitted are held and queued right behind its reply.
//
// # Resilience
//
// Single submissions (sql / ir) may carry a client-generated
// "token", echoed back on the ack and remembered server-side: a reconnecting
// client that never saw its ack re-sends the same request with the same
// token, and the server suppresses the duplicate admission, re-acks the
// original engine-assigned id, and re-delivers the terminal result on the
// new connection. Error replies carry a machine-readable "code" for typed
// failures (engine overload, WAL poisoning). A flush that cannot complete
// within the server's write timeout — a reader that stopped draining, a dead
// peer — tears the connection down, and per-connection in-flight submissions
// are capped (shed with the "overloaded" code). Stats replies include
// fault-injector counters when a test injector is installed.
//
// A submit_batch reply carries one item per input query: an engine-assigned
// id for each accepted query (whose single result later arrives as a normal
// "result" message) or a per-query error (parse/validation failures do not
// fail the rest of the batch). Accepted queries are admitted through the
// engine's batched fast path: one routing pass and one lock acquisition per
// touched shard for the whole batch.
//
// subscribe admits a query set exactly like submit_batch (same reply shape,
// same engine fast path) but registers the set as a server-side
// subscription: every terminal result is collected engine-side as it is
// delivered and streamed back over the subscribing connection as ordinary
// "result" messages — one multiplexed push channel for the whole set,
// instead of the client tracking one pending reply per query. The
// subscription state outlives the connection. A client that reconnects
// re-sends the subscribe with the same token: the server does not re-admit
// — it replays the original batch reply and the full result stream (cached
// results immediately, the rest as they arrive) on the new connection, and
// the client dedupes by query id, preserving exactly one outcome per query
// end to end. Tokens age out of the same bounded window as single-
// submission tokens.
//
// load executes through the engine (Engine.Load), so on a durable engine
// the script is logged write-ahead and survives a crash; checkpoint forces
// a durable snapshot and fails on engines without a data directory.
//
// sql submissions differing only in their string literals share one cached
// translation (Engine.ParseSQL) and one plan-cache shape, so a repeated
// statement is parsed and compiled at most once server-side.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"entangle/internal/engine"
	"entangle/internal/fault"
	"entangle/internal/ir"
)

// Request is a client → server message.
type Request struct {
	Op      string       `json:"op"`
	SQL     string       `json:"sql,omitempty"`
	IR      string       `json:"ir,omitempty"`
	Queries []BatchQuery `json:"queries,omitempty"` // submit_batch / subscribe payload
	// Token is a client-generated idempotency key for single submissions
	// (sql / ir): re-sending a request with the same token after a
	// reconnect cannot admit the query twice (see the Resilience section of
	// the package docs).
	Token string `json:"token,omitempty"`
}

// BatchQuery is one query of a submit_batch request: entangled SQL or IR
// text (exactly one should be set; SQL wins if both are).
type BatchQuery struct {
	SQL string `json:"sql,omitempty"`
	IR  string `json:"ir,omitempty"`
}

// BatchItem is the per-query outcome of a submit_batch request.
type BatchItem struct {
	ID    ir.QueryID `json:"id,omitempty"`
	Error string     `json:"error,omitempty"`
}

// Response is a server → client message.
type Response struct {
	Type   string        `json:"type"`
	ID     ir.QueryID    `json:"id,omitempty"`
	Status string        `json:"status,omitempty"`
	Tuples []string      `json:"tuples,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Error  string        `json:"error,omitempty"`
	Stats  *engine.Stats `json:"stats,omitempty"`
	Items  []BatchItem   `json:"items,omitempty"` // batch reply, in input order
	// Code classifies typed failures machine-readably (see the Code*
	// constants); empty for untyped errors and all non-error replies.
	Code string `json:"code,omitempty"`
	// Token echoes the request's idempotency token on acks and error
	// replies, so a client can correlate a re-delivered reply after a
	// reconnect.
	Token string `json:"token,omitempty"`
	// Faults carries the server's fault-injector counters in stats replies,
	// when a test injector is installed (nil otherwise).
	Faults *fault.Stats `json:"faults,omitempty"`
}

// Typed error codes carried by Response.Code.
const (
	// CodeOverloaded — the engine's MaxPending cap or the connection's
	// in-flight cap shed the submission.
	CodeOverloaded = "overloaded"
	// CodeWALPoisoned — the WAL is in its fail-stop state; durable
	// submissions fail fast until a checkpoint clears it.
	CodeWALPoisoned = "wal_poisoned"
	// CodeConnLost — synthesized client-side for results that can no longer
	// arrive because the connection carrying them died.
	CodeConnLost = "conn_lost"
)

// Err maps an error reply (or an error-status result) to a typed error:
// overload and WAL-poison codes unwrap to engine.ErrOverloaded and
// engine.ErrWALPoisoned, conn-lost results to ErrConnLost — all errors.Is
// matchable end to end. Non-error responses return nil.
func (r Response) Err() error {
	if r.Type != "error" && !(r.Type == "result" && r.Status == "error") {
		return nil
	}
	msg := r.Error
	if msg == "" {
		msg = r.Detail
	}
	switch r.Code {
	case CodeOverloaded:
		return fmt.Errorf("server: %s: %w", msg, engine.ErrOverloaded)
	case CodeWALPoisoned:
		return fmt.Errorf("server: %s: %w", msg, engine.ErrWALPoisoned)
	case CodeConnLost:
		return fmt.Errorf("%w: %s", ErrConnLost, msg)
	default:
		return fmt.Errorf("server: %s", msg)
	}
}

// errCode classifies an engine submission error for Response.Code.
func errCode(err error) string {
	switch {
	case errors.Is(err, engine.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, engine.ErrWALPoisoned):
		return CodeWALPoisoned
	default:
		return ""
	}
}

// Server serves a D3C engine over a listener.
type Server struct {
	Engine *engine.Engine

	// WriteTimeout bounds each flush of a connection's queued replies. A
	// flush that cannot complete within it — a reader that stopped
	// draining, a dead peer — fails and tears the connection down, so one
	// stuck client cannot hold its replies, results and reader hostage. 0
	// picks the default (10s); negative disables the deadline. Set before
	// Serve.
	WriteTimeout time.Duration
	// MaxInFlight caps one connection's submissions whose results have not
	// yet been written; excess submissions are shed with an "overloaded"
	// error reply. 0 picks the default (1024); negative disables the cap.
	// Set before Serve.
	MaxInFlight int
	// Injector, when set (tests, chaos drills), reports fault-injection
	// counters in stats replies. The server does not install it anywhere —
	// wrap the listener or dialer with the fault package to actually inject.
	Injector *fault.Injector

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
	once  sync.Once
	// wg tracks every connection handler (each waits for its writer), so
	// Shutdown returns only when no connection goroutine is left.
	wg sync.WaitGroup

	// tokens dedupes single submissions by client token within a bounded
	// window (see Request.Token); tokOrder drives insertion-order eviction.
	// subs is the same window for subscriptions (token → subscription state).
	tokMu    sync.Mutex
	tokens   map[string]*tokenEntry
	tokOrder []string
	subs     map[string]*subEntry
	subOrder []string
}

// tokenEntry tracks one tokened submission from admission to terminal
// result, so a duplicate (a re-send after the client lost its connection)
// can re-ack the original id and re-deliver the result when it is ready.
type tokenEntry struct {
	acked   chan struct{} // closed once id / errResp are decided
	id      ir.QueryID
	errResp *Response // admission failure reply; nil if admitted

	mu      sync.Mutex
	res     engine.Result
	done    bool    // res holds the terminal result
	waiters []*conn // re-sends acked before the result existed
}

// resolve records the terminal result and returns the connections of the
// re-sends waiting for it.
func (te *tokenEntry) resolve(r engine.Result) []*conn {
	te.mu.Lock()
	defer te.mu.Unlock()
	te.res, te.done = r, true
	waiters := te.waiters
	te.waiters = nil
	return waiters
}

// subEntry is the server-side state of one subscription: the admission
// outcome plus every terminal result so far, accumulated engine-side by the
// batch's delivery hook, and the connections the stream is attached to. It
// outlives any single connection, so a reconnecting client re-sending its
// token gets the full stream replayed without re-admitting anything.
type subEntry struct {
	acked chan struct{} // closed once items / errResp / total are decided

	mu      sync.Mutex
	items   []BatchItem // per-query admission outcome, input order
	errResp *Response   // whole-batch admission failure; nil if admitted
	total   int         // admitted queries = results owed
	results []engine.Result
	conns   []*conn // attached streams still owed results
}

func newSubEntry() *subEntry {
	return &subEntry{acked: make(chan struct{})}
}

// collect is the engine-side delivery hook: it appends the result and queues
// it on every attached connection that is still open.
func (se *subEntry) collect(r engine.Result) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.results = append(se.results, r)
	live := se.conns[:0]
	for _, c := range se.conns {
		if c.deliver(r, true) {
			live = append(live, c)
		}
	}
	clear(se.conns[len(live):])
	se.conns = live
	if se.total > 0 && len(se.results) == se.total {
		se.conns = nil
	}
}

// maxTrackedTokens bounds the dedup window; beyond it the oldest entries
// age out (a client re-sending a request 8k submissions later is asking for
// a fresh admission, which is the pre-token behavior).
const maxTrackedTokens = 8192

// rememberTokenLocked registers te under token, evicting entries beyond the
// window. Caller holds tokMu.
func (s *Server) rememberTokenLocked(token string, te *tokenEntry) {
	if s.tokens == nil {
		s.tokens = make(map[string]*tokenEntry)
	}
	s.tokens[token] = te
	s.tokOrder = append(s.tokOrder, token)
	if len(s.tokOrder) > maxTrackedTokens {
		n := len(s.tokOrder) - maxTrackedTokens
		for _, old := range s.tokOrder[:n] {
			delete(s.tokens, old)
		}
		s.tokOrder = append(s.tokOrder[:0], s.tokOrder[n:]...)
	}
}

// rememberSubLocked registers se under token in the subscription window,
// with the same bounded insertion-order eviction as single-submission
// tokens. Caller holds tokMu.
func (s *Server) rememberSubLocked(token string, se *subEntry) {
	if s.subs == nil {
		s.subs = make(map[string]*subEntry)
	}
	s.subs[token] = se
	s.subOrder = append(s.subOrder, token)
	if len(s.subOrder) > maxTrackedTokens {
		n := len(s.subOrder) - maxTrackedTokens
		for _, old := range s.subOrder[:n] {
			delete(s.subs, old)
		}
		s.subOrder = append(s.subOrder[:0], s.subOrder[n:]...)
	}
}

// New returns a server for the given engine.
func New(e *engine.Engine) *Server {
	return &Server{Engine: e, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Serve accepts connections until the listener is closed or Shutdown is
// called. It returns the listener's accept error.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		select {
		case <-s.done:
			// Shutdown already swept the conns map; don't admit a straggler
			// it would never close.
			s.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown closes all client connections and waits for their goroutines to
// finish. Queries still pending keep no goroutine of their own; their
// results, if the engine ever delivers them, are dropped. The caller should
// also close the listener passed to Serve.
func (s *Server) Shutdown() {
	s.once.Do(func() { close(s.done) })
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// session is the reader side of one connection: request dispatch. Only the
// reader goroutine touches it.
type session struct {
	s           *Server
	c           *conn
	maxInFlight int64
}

func (s *Server) handle(nc net.Conn) {
	writeTimeout := s.WriteTimeout
	if writeTimeout == 0 {
		writeTimeout = 10 * time.Second
	} else if writeTimeout < 0 {
		writeTimeout = 0
	}
	maxInFlight := s.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = 1024
	} else if maxInFlight < 0 {
		maxInFlight = 0
	}
	ss := &session{s: s, c: newConn(nc), maxInFlight: int64(maxInFlight)}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ss.c.writeLoop(writeTimeout)
	}()
	defer func() {
		ss.c.close(false)
		<-writerDone
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()

	sc := bufio.NewScanner(nc)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			ss.c.reply(Response{Type: "error", Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		ss.serve(&req)
	}
	// A scan that stops on a read error — most notably a request line over
	// the 1 MiB limit — would otherwise drop the connection silently,
	// leaving the client's pending request/reply exchange hung. Tell the
	// client why before closing (best effort: the conn may already be gone).
	if err := sc.Err(); err != nil {
		ss.c.reply(Response{Type: "error", Error: fmt.Sprintf("read: %v", err)})
	}
}

// serve handles one request.
func (ss *session) serve(req *Request) {
	s, c := ss.s, ss.c
	switch req.Op {
	case "sql", "ir":
		ss.submitOne(req)
	case "submit_batch":
		if ss.overloaded(len(req.Queries)) {
			c.reply(Response{Type: "error", Code: CodeOverloaded,
				Error: "server: connection in-flight cap reached"})
			return
		}
		// Parse every query first so one bad query fails only its own item;
		// the good ones are admitted through the engine's batched fast path
		// in input order.
		items, qs, slots := s.parseQueries(req.Queries)
		c.begin()
		handles, err := s.Engine.SubmitBatchNotify(qs, c.hook)
		if err != nil {
			c.reply(Response{Type: "error", Error: err.Error(), Code: errCode(err)})
			return
		}
		for j, h := range handles {
			items[slots[j]] = BatchItem{ID: h.ID}
		}
		c.inFlight.Add(int64(len(handles)))
		c.reply(Response{Type: "batch", Items: items})
	case "subscribe":
		ss.subscribe(req)
	case "load":
		if err := s.Engine.Load(req.SQL); err != nil {
			c.reply(Response{Type: "error", Error: err.Error()})
			return
		}
		c.reply(Response{Type: "ack"})
	case "flush":
		s.Engine.Flush()
		c.reply(Response{Type: "ack"})
	case "checkpoint":
		if err := s.Engine.Checkpoint(); err != nil {
			c.reply(Response{Type: "error", Error: err.Error()})
			return
		}
		c.reply(Response{Type: "ack"})
	case "stats":
		st := s.Engine.Stats()
		resp := Response{Type: "stats", Stats: &st}
		if s.Injector != nil {
			fs := s.Injector.Stats()
			resp.Faults = &fs
		}
		c.reply(resp)
	default:
		c.reply(Response{Type: "error", Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

// overloaded reports whether n more results would exceed the connection's
// in-flight cap.
func (ss *session) overloaded(n int) bool {
	return ss.maxInFlight > 0 && ss.c.inFlight.Load()+int64(n) > ss.maxInFlight
}

// submitOne runs a single submission (sql / ir) end to end: in-flight cap,
// duplicate suppression, admission, ack. A duplicate token (a client
// re-sending after a lost connection) never re-admits: it re-acks the
// original engine-assigned id and re-delivers the terminal result to THIS
// connection once it exists.
func (ss *session) submitOne(req *Request) {
	s, c := ss.s, ss.c
	if ss.overloaded(1) {
		c.reply(Response{Type: "error", Code: CodeOverloaded, Token: req.Token,
			Error: "server: connection in-flight cap reached"})
		return
	}
	hook := c.hook
	var te *tokenEntry
	if req.Token != "" {
		s.tokMu.Lock()
		dup := s.tokens[req.Token]
		if dup == nil {
			te = &tokenEntry{acked: make(chan struct{})}
			s.rememberTokenLocked(req.Token, te)
		}
		s.tokMu.Unlock()
		if dup != nil {
			ss.resend(dup, req.Token)
			return
		}
		// The result is cached on the entry before it is queued here, so a
		// re-send on a fresh connection can re-deliver what this one may be
		// about to lose.
		hook = func(r engine.Result) {
			for _, w := range te.resolve(r) {
				w.deliver(r, false)
			}
			c.deliver(r, true)
		}
	}
	c.begin()
	var h *engine.Handle
	var err error
	var q *ir.Query
	if req.Op == "sql" {
		q, err = s.Engine.ParseSQL(req.SQL)
	} else {
		q, err = ir.Parse(0, req.IR)
	}
	if err == nil {
		h, err = s.Engine.SubmitNotify(q, hook)
	}
	if err != nil {
		resp := Response{Type: "error", Error: err.Error(), Code: errCode(err), Token: req.Token}
		if te != nil {
			te.errResp = &resp
			close(te.acked)
		}
		c.reply(resp)
		return
	}
	if te != nil {
		te.id = h.ID
		close(te.acked)
	}
	c.inFlight.Add(1)
	c.reply(Response{Type: "ack", ID: h.ID, Token: req.Token})
}

// resend answers a re-sent token: the original admission's ack (or error)
// and, now or once it exists, its result.
func (ss *session) resend(te *tokenEntry, token string) {
	select {
	case <-te.acked:
	case <-ss.s.done:
		return
	}
	if te.errResp != nil {
		ss.c.reply(*te.errResp)
		return
	}
	ss.c.begin()
	te.mu.Lock()
	if te.done {
		ss.c.deliver(te.res, false)
	} else {
		te.waiters = append(te.waiters, ss.c)
	}
	te.mu.Unlock()
	ss.c.reply(Response{Type: "ack", ID: te.id, Token: token})
}

// subscribe admits a query set as a subscription, or — for a token already
// known — attaches this connection to the original one.
func (ss *session) subscribe(req *Request) {
	s := ss.s
	var se *subEntry
	if req.Token != "" {
		s.tokMu.Lock()
		se = s.subs[req.Token]
		s.tokMu.Unlock()
	}
	if se == nil {
		// Shed before registering the token, so a shed subscribe can be
		// retried under the same token as a fresh admission.
		if ss.overloaded(len(req.Queries)) {
			ss.c.reply(Response{Type: "error", Code: CodeOverloaded, Token: req.Token,
				Error: "server: connection in-flight cap reached"})
			return
		}
		fresh := newSubEntry()
		se = fresh
		if req.Token != "" {
			s.tokMu.Lock()
			if prev, ok := s.subs[req.Token]; ok {
				se = prev // a concurrent re-send won the race; attach to it
			} else {
				s.rememberSubLocked(req.Token, fresh)
			}
			s.tokMu.Unlock()
		}
		if se == fresh {
			items, qs, slots := s.parseQueries(req.Queries)
			handles, err := s.Engine.SubmitBatchNotify(qs, se.collect)
			se.mu.Lock()
			if err != nil {
				se.errResp = &Response{Type: "error", Error: err.Error(), Code: errCode(err)}
			} else {
				for j, h := range handles {
					items[slots[j]] = BatchItem{ID: h.ID}
				}
				se.items, se.total = items, len(handles)
			}
			se.mu.Unlock()
			close(se.acked)
		}
	}
	ss.attach(se, req.Token)
}

// attach streams a subscription over this connection: the batch reply and
// every result collected so far, then each later result as it is delivered.
// Every subscribe request — original or a token re-send after a reconnect —
// attaches its connection and replays from the start; the client dedupes by
// query id.
func (ss *session) attach(se *subEntry, token string) {
	select {
	case <-se.acked:
	case <-ss.s.done:
		return
	}
	c := ss.c
	c.begin()
	se.mu.Lock()
	resp := Response{Type: "batch", Items: se.items, Token: token}
	if se.errResp != nil {
		resp = *se.errResp
		resp.Token = token
	} else {
		c.inFlight.Add(int64(se.total))
		for _, r := range se.results {
			c.deliver(r, true)
		}
		if len(se.results) < se.total {
			se.conns = append(se.conns, c)
		}
	}
	se.mu.Unlock()
	c.reply(resp)
}

// parseQueries validates a batch-shaped payload: one BatchItem per input
// (errors filled in for refused queries), plus the parsed queries and their
// item slots.
func (s *Server) parseQueries(queries []BatchQuery) ([]BatchItem, []*ir.Query, []int) {
	items := make([]BatchItem, len(queries))
	var qs []*ir.Query
	var slots []int
	for i, bq := range queries {
		var q *ir.Query
		var err error
		switch {
		case bq.SQL != "":
			q, err = s.Engine.ParseSQL(bq.SQL)
		case bq.IR != "":
			q, err = ir.Parse(0, bq.IR)
		default:
			err = fmt.Errorf("batch query %d: neither sql nor ir set", i)
		}
		if err == nil {
			err = q.Validate()
		}
		if err != nil {
			items[i] = BatchItem{Error: err.Error()}
			continue
		}
		qs = append(qs, q)
		slots = append(slots, i)
	}
	return items, qs, slots
}
