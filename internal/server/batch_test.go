package server

import (
	"testing"

	"entangle/internal/engine"
)

// TestServerSubmitBatch drives the submit_batch op end to end: mixed SQL/IR
// queries, per-query errors that do not fail the batch, engine-batched
// admission, and one streamed result per accepted query.
func TestServerSubmitBatch(t *testing.T) {
	srv, addr := startServer(t, engine.Config{Mode: engine.Incremental, Shards: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	handles, err := c.SubmitBatch([]BatchQuery{
		{SQL: `SELECT 'Kramer', fno INTO ANSWER R
WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')
AND ('Jerry', fno) IN ANSWER R CHOOSE 1`},
		{IR: "{R(Kramer, y)} R(Jerry, y) :- Flights(y, Paris)"},
		{IR: "this is not a query"},
		{}, // neither sql nor ir
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 4 {
		t.Fatalf("%d handles", len(handles))
	}
	if handles[2].Err == nil || handles[3].Err == nil {
		t.Fatalf("bad queries must carry per-item errors: %v / %v", handles[2].Err, handles[3].Err)
	}
	var flights []string
	for i, h := range handles[:2] {
		if h.Err != nil {
			t.Fatalf("batch member %d refused: %v", i, h.Err)
		}
		r := waitResult(t, h.Ch)
		if r.Status != "answered" {
			t.Fatalf("batch member %d: %s (%s)", i, r.Status, r.Detail)
		}
		flights = append(flights, r.Tuples[0][len(r.Tuples[0])-4:])
	}
	if flights[0] != flights[1] {
		t.Fatalf("batch pair split across flights: %v", flights)
	}
	// The good pair went through the engine's batched fast path: one router
	// pass for the whole submit_batch request.
	if st := srv.Engine.Stats(); st.RouterPasses != 1 {
		t.Fatalf("server batch took %d router passes", st.RouterPasses)
	}
}

// TestServerSubmitBatchAllInvalid: a batch with nothing admissible still
// gets a per-item reply, not a connection error.
func TestServerSubmitBatchAllInvalid(t *testing.T) {
	_, addr := startServer(t, engine.Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	handles, err := c.SubmitBatch([]BatchQuery{{IR: "nope"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 1 || handles[0].Err == nil {
		t.Fatalf("handles = %+v", handles)
	}
}
