package server

import (
	"bufio"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/engine"
)

// maxQueuedReplies bounds how far a connection's reader may run ahead of its
// writer. Past it the reader stops taking requests until the writer catches
// up, so a client that sends without reading is held back by its own socket
// and then by WriteTimeout. Results are bounded separately, by MaxInFlight.
const maxQueuedReplies = 1024

// conn is the reply path of one client connection. The connection's reader
// (Server.handle) queues replies in request order; engine delivery hooks
// queue results, possibly under a shard lock, so they only append; and one
// writer goroutine (writeLoop) encodes whatever is queued into a buffered
// writer and flushes, under one write deadline, when the queue is empty.
type conn struct {
	nc       net.Conn
	wake     chan struct{}       // capacity 1: the writer has work
	room     sync.Cond           // on mu: the reader waits here while the queue is full
	hook     func(engine.Result) // result hook of untokened submissions
	inFlight atomic.Int64        // results owed and not yet written (MaxInFlight)

	mu    sync.Mutex
	queue []outMsg
	// holding is set between begin and the next reply: results delivered
	// meanwhile wait in held and are queued right behind that reply. The
	// reader brackets every reply that carries ids whose results may
	// already be on their way — an admission that closes a component
	// delivers inside Submit, before its ack exists — so a client never sees
	// a result before the reply that carries its id.
	holding bool
	held    []outMsg
	closed  bool // nothing more is queued: the reader is done or a write failed
}

// outMsg is one queued message: a reply, or an engine result the writer
// renders. counts marks a result owed against the in-flight cap.
type outMsg struct {
	resp     Response
	res      engine.Result
	isResult bool
	counts   bool
}

func newConn(nc net.Conn) *conn {
	c := &conn{nc: nc, wake: make(chan struct{}, 1)}
	c.room.L = &c.mu
	c.hook = func(r engine.Result) { c.deliver(r, true) }
	return c
}

func (c *conn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// begin starts holding results until the next reply.
func (c *conn) begin() {
	c.mu.Lock()
	c.holding = true
	c.mu.Unlock()
}

// reply queues a reply from the reader, waiting while the queue is full,
// followed by the results held since begin.
func (c *conn) reply(r Response) {
	c.mu.Lock()
	for len(c.queue) >= maxQueuedReplies && !c.closed {
		c.room.Wait()
	}
	if !c.closed {
		c.queue = append(c.queue, outMsg{resp: r})
		c.queue = append(c.queue, c.held...)
	}
	clear(c.held)
	c.held = c.held[:0]
	c.holding = false
	c.mu.Unlock()
	c.signal()
}

// deliver queues a result. Engine delivery hooks call it, so it never
// blocks; it reports false once the connection is closed.
func (c *conn) deliver(r engine.Result, counts bool) bool {
	m := outMsg{res: r, isResult: true, counts: counts}
	c.mu.Lock()
	open := !c.closed
	switch {
	case !open:
	case c.holding:
		c.held = append(c.held, m)
	default:
		c.queue = append(c.queue, m)
	}
	c.mu.Unlock()
	if open {
		c.signal()
	}
	return open
}

// close stops queueing and wakes the reader and the writer. With drop the
// queue is discarded: the writer has failed.
func (c *conn) close(drop bool) {
	c.mu.Lock()
	c.closed = true
	if drop {
		c.queue, c.held = nil, nil
	}
	c.room.Broadcast()
	c.mu.Unlock()
	c.signal()
}

// writeLoop is the connection's writer; it exits once the connection is
// closed and its queue drained. A write that fails or misses its deadline —
// a stuck reader, a dead peer — drops the queue and closes the socket,
// which also ends the reader.
func (c *conn) writeLoop(timeout time.Duration) {
	bw := bufio.NewWriterSize(c.nc, 16<<10)
	enc := json.NewEncoder(bw)
	var batch []outMsg
	var result Response
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.mu.Unlock()
			<-c.wake
			c.mu.Lock()
		}
		batch, c.queue = c.queue, batch[:0]
		c.room.Broadcast()
		c.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		if timeout > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(timeout))
		}
		var err error
		for i := range batch {
			m := &batch[i]
			if m.isResult {
				result = resultResponse(m.res)
				err = enc.Encode(&result)
			} else {
				err = enc.Encode(&m.resp)
			}
			if err != nil {
				break
			}
			if m.counts {
				c.inFlight.Add(-1)
			}
		}
		clear(batch)
		if err == nil {
			c.mu.Lock()
			drained := len(c.queue) == 0
			c.mu.Unlock()
			if drained {
				err = bw.Flush()
			}
		}
		if err != nil {
			c.close(true)
			c.nc.Close()
			return
		}
	}
}

// resultResponse renders an engine result as a "result" message.
func resultResponse(r engine.Result) Response {
	resp := Response{Type: "result", ID: r.QueryID, Status: r.Status.String(), Detail: r.Detail}
	if r.Answer != nil {
		resp.Tuples = make([]string, len(r.Answer.Tuples))
		for i, tpl := range r.Answer.Tuples {
			resp.Tuples[i] = tpl.String()
		}
	}
	return resp
}
