package server

import (
	"net"
	"strings"
	"testing"

	"entangle/internal/engine"
	"entangle/internal/memdb"
)

// startDurableServer spins up a durable engine (data directory + WAL) and
// serves it, loading the flight schema through the logged DDL path.
func startDurableServer(t *testing.T, dir string) (*Server, string) {
	t.Helper()
	e, err := engine.Open(memdb.New(), engine.Config{
		Mode: engine.Incremental, Shards: 1, Seed: 0,
		DataDir: dir, Durability: engine.DurabilityBatch, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		s.Shutdown()
		l.Close()
		e.Close()
	})
	return s, l.Addr().String()
}

// TestServerCheckpointOp drives the checkpoint op against a durable and a
// non-durable engine.
func TestServerCheckpointOp(t *testing.T) {
	_, addr := startDurableServer(t, t.TempDir())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("CREATE TABLE G (a, b);"); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on durable server: %v", err)
	}

	_, addr2 := startServer(t, engine.Config{Mode: engine.Incremental})
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Checkpoint(); err == nil || !strings.Contains(err.Error(), "data directory") {
		t.Fatalf("checkpoint on non-durable server: %v", err)
	}
}

// TestServerDurableLoadSurvivesRestart: load goes through the engine's
// logged path, so a server restart over the same data directory sees the
// loaded tables.
func TestServerDurableLoadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurableServer(t, dir)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load("CREATE TABLE T (x, y);\nINSERT INTO T VALUES ('1', '2');"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Shutdown()
	srv.Engine.Close()

	e2, err := engine.Open(memdb.New(), engine.Config{
		Mode: engine.Incremental, Shards: 1,
		DataDir: dir, Durability: engine.DurabilityBatch, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	names := e2.DB().TableNames()
	found := false
	for _, n := range names {
		if n == "T" {
			found = true
		}
	}
	if !found {
		t.Fatalf("restarted engine lost loaded table: %v", names)
	}
}
