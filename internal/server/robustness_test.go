package server

import (
	"bufio"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"entangle/internal/engine"
)

// TestServerOversizedRequest pins the read-loop error path: a request line
// over the scanner's 1 MB buffer stops the read loop, and the server must
// tell the client why (a final error message) instead of dropping the
// connection silently.
func TestServerOversizedRequest(t *testing.T) {
	_, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	huge := `{"op":"load","sql":"` + strings.Repeat("x", 2<<20) + `"}` + "\n"
	if _, err := conn.Write([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to oversized request: %v", err)
	}
	var resp Response
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("bad reply %q: %v", line, err)
	}
	if resp.Type != "error" || !strings.Contains(resp.Error, "too long") {
		t.Fatalf("reply = %+v, want a read error mentioning the oversized line", resp)
	}
}

// partnerlessIR pends forever (no partner, no staleness configured).
const partnerlessIR = "{Rp(Other, x)} Rp(Me, x) :- F(x, Paris)"

// awaitGoroutines waits until at most n goroutines run, dumping every stack
// on timeout.
func awaitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, want ≤ %d:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerShutdownWithPendingQueries: Shutdown returns promptly with
// queries still pending, and no goroutine it started outlives it — pending
// queries hold none of their own.
func TestServerShutdownWithPendingQueries(t *testing.T) {
	s, addr := startServer(t, engine.Config{Mode: engine.Incremental})
	before := runtime.NumGoroutine()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := c.SubmitIR(partnerlessIR); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung with pending queries")
	}
	// The client's read loop ends with its connection, and the server's
	// goroutines with Shutdown.
	awaitGoroutines(t, before)
}

// TestServerGoroutinesPerConnection: a connection costs a fixed number of
// goroutines however many of its queries are pending — results reach the
// connection through the engine's delivery hook, not a goroutine parked per
// query.
func TestServerGoroutinesPerConnection(t *testing.T) {
	_, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1},
		func(s *Server) { s.MaxInFlight = -1 })
	rc := rawDial(t, addr)
	rc.send(Request{Op: "ir", IR: partnerlessIR})
	if ack := rc.recv(); ack.Type != "ack" {
		t.Fatalf("reply %+v", ack)
	}
	before := runtime.NumGoroutine()
	const pending = 2000
	go func() {
		for i := 0; i < pending; i++ {
			rc.enc.Encode(Request{Op: "ir", IR: partnerlessIR})
		}
	}()
	for i := 0; i < pending; i++ {
		if ack := rc.recv(); ack.Type != "ack" {
			t.Fatalf("reply %d: %+v", i, ack)
		}
	}
	// Slack for runtime and test goroutines that come and go, far below one
	// per pending query.
	if n := runtime.NumGoroutine(); n > before+16 {
		t.Fatalf("%d pending queries on one connection: %d goroutines, %d before them", pending+1, n, before)
	}
}

// TestSlowClientDoesNotWedgeServer pins the write-deadline fix: a client
// that stops draining its replies fills the kernel buffers, trips the
// server's write deadline, and gets its connection torn down — while a
// healthy client on another connection keeps coordinating and Shutdown
// still returns promptly.
func TestSlowClientDoesNotWedgeServer(t *testing.T) {
	s, addr := startServerWith(t, engine.Config{Mode: engine.Incremental, Shards: 1},
		func(s *Server) { s.WriteTimeout = 150 * time.Millisecond })

	// The slow client floods stats requests and never reads a reply.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	flooding := make(chan struct{})
	go func() {
		defer close(flooding)
		req := []byte(`{"op":"stats"}` + "\n")
		for i := 0; i < 5000; i++ {
			slow.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if _, err := slow.Write(req); err != nil {
				return // server tore the connection down — expected
			}
		}
	}()

	// A healthy client on its own connection is unaffected.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, ch1, err := c.SubmitIR("{H(J, x)} H(K, x) :- F(x, Rome)")
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := c.SubmitIR("{H(K, y)} H(J, y) :- F(y, Rome)")
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, ch1); r.Status != "answered" {
		t.Fatalf("healthy client pair: %+v", r)
	}
	if r := waitResult(t, ch2); r.Status != "answered" {
		t.Fatalf("healthy client pair: %+v", r)
	}
	select {
	case <-flooding:
	case <-time.After(10 * time.Second):
		t.Fatal("flood writer still running: server never tore down the stuck connection")
	}

	// Shutdown must not wait on the wedged connection's writes.
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung behind the slow client")
	}
}
