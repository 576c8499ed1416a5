package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"entangle/internal/engine"
	"entangle/internal/graph"
	"entangle/internal/ir"
	"entangle/internal/match"
	"entangle/internal/memdb"
	"entangle/internal/server"
	"entangle/internal/wal"
	"entangle/internal/workload"
)

// The traced run replays the generated stream in this process, one goroutine,
// closed loop, and records a span around every call into a layer's public
// functions. The spans are taken here, in the benchmark's own files: what
// happens inside a call is invisible (trace.engine_unattributed_frac says how
// much), and stamping stages inside the program is a later change. End-to-end
// metrics never come from this run.

// span is one timed call: its layer-qualified name, start and end on the
// replay's clock, the span that caused it (-1 for a root) and the stream index
// of the query it served (-1 when it served none in particular).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	clk   clock
	on    bool
	spans []span
}

func (t *tracer) begin(name string, parent, query int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Query: query, Start: t.clk.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = t.clk.now()
	}
}

// rename changes the name a span was begun under, for calls whose kind is
// only known once they return (a submission that turned out to close a group).
func (t *tracer) rename(i int32, name string) {
	if i >= 0 {
		t.spans[i].Name = name
	}
}

// spanStats sums spans by name.
type spanStats struct {
	total map[string]float64 // nanoseconds
	calls map[string]int
	h     map[string]*hist
}

func (t *tracer) stats() spanStats {
	s := spanStats{total: map[string]float64{}, calls: map[string]int{}, h: map[string]*hist{}}
	for _, sp := range t.spans {
		d := sp.End - sp.Start
		s.total[sp.Name] += float64(d)
		s.calls[sp.Name]++
		if s.h[sp.Name] == nil {
			s.h[sp.Name] = &hist{}
		}
		s.h[sp.Name].record(d)
	}
	return s
}

// perQuery is a layer's time per replayed query, in microseconds.
func (s spanStats) perQuery(name string, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return s.total[name] / float64(queries) / 1e3
}

// perCall is a layer's time per call, in microseconds.
func (s spanStats) perCall(name string) float64 {
	if s.calls[name] == 0 {
		return 0
	}
	return s.total[name] / float64(s.calls[name]) / 1e3
}

// traced is the part of the stream the replay covers, parsed once.
type traced struct {
	st      *stream
	sends   []send
	lines   [][]byte // request line of each send
	queries int
	expired int // queries the traced pass A's sweeps expired
	// speedup is how many times faster than the open loop the replay
	// submits; measured by the first, discarded pass.
	speedup float64
}

// newTraced covers the stream's first requests, up to limit queries.
func newTraced(st *stream, limit int) *traced {
	tr := &traced{st: st, speedup: 50}
	for i := range st.sends {
		s := &st.sends[i]
		if tr.queries+int(s.n) > limit {
			break
		}
		tr.sends = append(tr.sends, *s)
		tr.lines = append(tr.lines, st.appendRequest(nil, s))
		tr.queries += int(s.n)
	}
	return tr
}

func (tr *traced) parse(eng *engine.Engine, req *server.Request, i int) (*ir.Query, error) {
	sqlText, irText := req.SQL, req.IR
	if len(req.Queries) > 0 {
		sqlText, irText = req.Queries[i].SQL, req.Queries[i].IR
	}
	if sqlText != "" {
		return eng.ParseSQL(sqlText)
	}
	return ir.Parse(0, irText)
}

func resultResponse(r engine.Result) server.Response {
	resp := server.Response{Type: "result", ID: r.QueryID, Status: r.Status.String(), Detail: r.Detail}
	if r.Answer != nil {
		for _, tpl := range r.Answer.Tuples {
			resp.Tuples = append(resp.Tuples, tpl.String())
		}
	}
	return resp
}

// replayEngine mirrors the d3cd flags of the workload for an in-process
// engine. The replay runs many times faster than the open loop, so the
// staleness bound is scaled by tr.speedup to keep a comparable pending set.
func (tr *traced) replayEngine(db *memdb.DB) *engine.Engine {
	cfg := engine.Config{Seed: dataSeed, StaleAfter: 30 * time.Second}
	if stale := tr.st.spec.stale; stale > 0 {
		cfg.StaleAfter = time.Duration(float64(stale) / tr.speedup)
	}
	return engine.New(db, cfg)
}

// passA times the engine-and-above boundary per request: decode the request
// line, parse each query, submit it, encode the ack and every result that
// became available. It returns how long the whole pass took.
func (tr *traced) passA(t *tracer, db *memdb.DB) (time.Duration, error) {
	sp := tr.st.spec
	eng := tr.replayEngine(db)
	defer eng.Close()
	handles := make(map[int32]*engine.Handle) // pending queries by stream index
	begin := time.Now()
	for si := range tr.sends {
		s := &tr.sends[si]
		root := t.begin("server.request", -1, s.first)
		var req server.Request
		d := t.begin("server.decode", root, s.first)
		err := json.Unmarshal(tr.lines[si], &req)
		t.end(d)
		if err != nil {
			return 0, err
		}
		var ack server.Response
		for i := 0; i < int(s.n); i++ {
			q := s.query(i)
			name := "eqsql.parse"
			if sp.op == "ir" {
				name = "ir.parse"
			}
			p := t.begin(name, root, q)
			parsed, err := tr.parse(eng, &req, i)
			t.end(p)
			if err != nil {
				return 0, fmt.Errorf("replay: query %d: %w", q, err)
			}
			sub := t.begin("engine.submit_nonclosing", root, q)
			h, err := eng.Submit(parsed)
			t.end(sub)
			if err != nil {
				return 0, fmt.Errorf("replay: query %d: %w", q, err)
			}
			handles[q] = h
			if s.n == 1 {
				ack = server.Response{Type: "ack", ID: h.ID}
			} else {
				ack.Type = "batch"
				ack.Items = append(ack.Items, server.BatchItem{ID: h.ID})
			}
			// A submission that closed its group has the whole group's
			// results waiting.
			qi := &tr.st.queries[q]
			if qi.closer != q {
				continue
			}
			t.rename(sub, "engine.submit_closing")
			for m := qi.first; m <= q; m++ {
				mh := handles[m]
				if mh == nil || tr.st.queries[m].first != qi.first {
					continue
				}
				select {
				case r := <-mh.Done():
					delete(handles, m)
					e := t.begin("server.encode", root, m)
					_, err := json.Marshal(resultResponse(r))
					t.end(e)
					if err != nil {
						return 0, err
					}
				default:
				}
			}
		}
		e := t.begin("server.encode", root, s.first)
		_, err = json.Marshal(ack)
		t.end(e)
		if err != nil {
			return 0, err
		}
		t.end(root)
		// One sweep per hundred milliseconds' worth of the open loop.
		if sp.stale > 0 && si%int(sp.rate*flushInterval.Seconds()) == 0 {
			x := t.begin("engine.expire", -1, -1)
			n := eng.ExpireStale()
			t.end(x)
			if t.on {
				tr.expired += n
			}
		}
	}
	return time.Since(begin), nil
}

// passBatch times the batch ingest path a batched workload really takes:
// Engine.SubmitBatch per request line, parsing excluded.
func (tr *traced) passBatch(t *tracer, db *memdb.DB) error {
	eng := tr.replayEngine(db)
	defer eng.Close()
	for si := range tr.sends {
		s := &tr.sends[si]
		var req server.Request
		if err := json.Unmarshal(tr.lines[si], &req); err != nil {
			return err
		}
		qs := make([]*ir.Query, s.n)
		for i := range qs {
			var err error
			if qs[i], err = tr.parse(eng, &req, i); err != nil {
				return err
			}
		}
		b := t.begin("engine.submit_batch", -1, s.first)
		_, err := eng.SubmitBatch(qs)
		t.end(b)
		if err != nil {
			return err
		}
	}
	return nil
}

// roundTrips sends the first requests of the stream one at a time through an
// in-process server on loopback and times each from the write to its reply —
// the ack, or for a request that closes a group, that query's own result.
func (tr *traced) roundTrips(t *tracer, db *memdb.DB, n int) error {
	eng := tr.replayEngine(db)
	defer eng.Close()
	srv := server.New(eng)
	srv.MaxInFlight = -1
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l) // returns nil after Shutdown
	}()
	defer func() {
		srv.Shutdown()
		l.Close()
		<-served
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 1<<20)
	for si := 0; si < min(n, len(tr.sends)); si++ {
		s := &tr.sends[si]
		last := s.query(int(s.n) - 1)
		closes := tr.st.queries[last].closer == last
		if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return err
		}
		rt := t.begin("server.roundtrip", -1, s.first)
		if _, err := nc.Write(tr.lines[si]); err != nil {
			return err
		}
		var want int64 = -1 // engine id of the query whose result ends the round trip
		for acked := false; !acked || want >= 0; {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return fmt.Errorf("replay round trip %d: %w", si, err)
			}
			var r reply
			if err := json.Unmarshal(line, &r); err != nil {
				return err
			}
			switch r.Type {
			case "ack":
				acked = true
				if closes {
					want = r.ID
				}
			case "batch":
				acked = true
				if closes && len(r.Items) > 0 {
					want = r.Items[len(r.Items)-1].ID
				}
			case "result":
				if r.ID == want {
					want = -1
				}
			default:
				return fmt.Errorf("replay round trip %d: unexpected %s reply %s", si, r.Type, r.Error)
			}
		}
		t.end(rt)
	}
	return nil
}

// passB replays the stream through the public functions the engine composes
// for one shard: safety check and admission, graph insertion, and — when the
// arrival closes its component — capture, evaluation and the members'
// removal. The evaluation is then repeated through the literal pipeline
// (match, combine, compile, execute) to split it by layer; those spans
// describe the same round a second way and are not added to the first.
func (tr *traced) passB(t *tracer, db *memdb.DB, rep *report) error {
	sp := tr.st.spec
	parser := tr.replayEngine(db)
	defer parser.Close()
	g := graph.New()
	checker := match.NewSharedSafetyChecker(g)
	plans := memdb.NewPlanCache(512)
	opts := match.Options{Plans: plans}
	sc := match.NewScratch()
	var snap graph.CompSnap
	var st memdb.ExecState
	var backlog []ir.QueryID // never-closing queries, oldest first
	steady := 0
	if sp.stale > 0 {
		steady = int(0.7 * sp.rate * sp.stale.Seconds())
	}
	keysPeak, rounds, members := 0, 0, 0
	remove := func(id ir.QueryID, q int32) {
		r := t.begin("graph.remove", -1, q)
		g.RemoveQuery(id)
		t.end(r)
		r = t.begin("match.safety_remove", -1, q)
		checker.Remove(id)
		t.end(r)
	}
	for si := range tr.sends {
		s := &tr.sends[si]
		var req server.Request
		if err := json.Unmarshal(tr.lines[si], &req); err != nil {
			return err
		}
		for i := 0; i < int(s.n); i++ {
			q := s.query(i)
			parsed, err := tr.parse(parser, &req, i)
			if err != nil {
				return err
			}
			id := ir.QueryID(q + 1)
			renamed := parsed.RenamedCopy(id)

			c := t.begin("match.safety", -1, q)
			err = checker.Check(renamed)
			if err == nil {
				checker.AdmitUnchecked(renamed)
			}
			t.end(c)
			if err != nil {
				return fmt.Errorf("replay: query %d is unsafe: %w", q, err)
			}
			a := t.begin("graph.add", -1, q)
			err = g.AddQuery(renamed)
			closed := err == nil && g.ComponentClosed(id)
			t.end(a)
			if err != nil {
				return err
			}
			if tr.st.queries[q].closer < 0 {
				backlog = append(backlog, id)
				if len(backlog) > steady {
					remove(backlog[0], int32(backlog[0])-1)
					backlog = backlog[1:]
				}
			}
			if q%256 == 0 {
				keysPeak = max(keysPeak, g.IndexKeyCount())
			}
			if !closed {
				continue
			}
			cp := t.begin("graph.capture", -1, q)
			ok := snap.CaptureComponent(g, id)
			t.end(cp)
			if !ok {
				continue
			}
			ms := append([]ir.QueryID(nil), snap.Members()...)
			rounds++
			members += len(ms)
			ev := t.begin("match.evaluate", -1, q)
			_, _, err = match.EvaluateComponentFastWith(sc, db, &snap, ms, snap.ByID(), 0, opts)
			t.end(ev)
			if err != nil {
				return err
			}

			mc := t.begin("match.component", ev, q)
			res := match.MatchComponent(&snap, ms, opts)
			t.end(mc)
			if len(res.Survivors) > 0 {
				cb := t.begin("match.combine", ev, q)
				cq, global, err := match.BuildCombined(snap.ByID(), res)
				var simplified *ir.CombinedQuery
				if err == nil {
					simplified = match.Simplify(cq, global)
				}
				t.end(cb)
				if err == nil {
					cm := t.begin("memdb.compile", ev, q)
					plan := db.CompilePlan(simplified.Body, nil)
					t.end(cm)
					ex := t.begin("memdb.exec", ev, q)
					_, err = db.ExecPlan(plan, &st, memdb.EvalOptions{Limit: 1})
					t.end(ex)
					if err != nil {
						return err
					}
				}
			}
			for _, m := range ms {
				remove(m, int32(m)-1)
			}
		}
	}
	rep.layer["graph.index_keys_peak"] = metric{float64(keysPeak), "count"}
	mpr := 0.0
	if rounds > 0 {
		mpr = float64(members) / float64(rounds)
	}
	rep.layer["match.members_per_round"] = metric{mpr, "count"}
	return nil
}

// countWriter counts what is written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// passWAL replays the stream's log traffic against a real WAL directory:
// one admit record per query, one results record per closed group, a forced
// sync every few queries (the batch policy's group commit), then snapshot,
// checkpoint and recovery of the whole database.
func (tr *traced) passWAL(t *tracer, db *memdb.DB, dir string, rep *report) error {
	d, err := wal.OpenDir(dir, wal.Batch, 0)
	if err != nil {
		return err
	}
	if _, err := d.Recover(memdb.New()); err != nil {
		return err
	}
	checkpoint := func(nextID int64) error {
		c := t.begin("wal.checkpoint", -1, -1)
		err := d.Checkpoint(wal.CheckpointState{NextID: nextID}, db)
		t.end(c)
		return err
	}
	if err := checkpoint(0); err != nil {
		return err
	}
	// The batch policy commits every 2 ms; at the open loop's rate that is
	// this many queries.
	every := max(1, int(tr.st.spec.rate*float64(tr.st.spec.batch)*0.002))
	n := 0
	for si := range tr.sends {
		s := &tr.sends[si]
		for i := 0; i < int(s.n); i++ {
			q := s.query(i)
			qi := &tr.st.queries[q]
			a := t.begin("wal.append", -1, q)
			err := d.Append(wal.AdmitRecord(int64(q+1), 1, "", string(qi.frag), time.Now().UnixNano()))
			t.end(a)
			if err != nil {
				return err
			}
			if qi.closer == q {
				var rs []wal.QueryResult
				for m := qi.first; m <= q; m++ {
					if tr.st.queries[m].first == qi.first {
						rs = append(rs, wal.QueryResult{ID: int64(m + 1), Status: wal.StatusAnswered, Tuples: []string{tr.st.queries[m].tuple}})
					}
				}
				a := t.begin("wal.append", -1, q)
				err := d.Append(wal.ResultsRecord(rs))
				t.end(a)
				if err != nil {
					return err
				}
			}
			if n++; n%every == 0 {
				y := t.begin("wal.sync", -1, q)
				err := d.Sync()
				t.end(y)
				if err != nil {
					return err
				}
			}
		}
	}
	var cw countWriter
	sn := t.begin("memdb.snapshot", -1, -1)
	err = db.WriteSnapshot(&cw)
	t.end(sn)
	if err != nil {
		return err
	}
	rep.layer["memdb.snapshot_bytes"] = metric{float64(cw.n), "B"}
	if err := checkpoint(int64(tr.queries)); err != nil {
		return err
	}
	if err := d.Close(); err != nil {
		return err
	}
	d2, err := wal.OpenDir(dir, wal.Batch, 0)
	if err != nil {
		return err
	}
	r := t.begin("wal.recover", -1, -1)
	_, err = d2.Recover(memdb.New())
	t.end(r)
	return err
}

// traceRun performs the traced replay of st and fills in the per-layer
// metrics that come from it.
func traceRun(st *stream, cfg runConfig, rep *report) error {
	db := memdb.New()
	if err := workload.PopulateDB(db, workload.NewGraph(workload.Config{N: cfg.users, Seed: dataSeed})); err != nil {
		return err
	}
	tr := newTraced(st, cfg.traced)
	if tr.queries == 0 {
		return fmt.Errorf("replay: the stream has no requests to trace")
	}
	sp := st.spec

	// Pass A three times: once to warm the database's lazy indexes and the
	// process, once untraced and once traced. The difference between the last
	// two is what recording spans costs.
	quiet := &tracer{clk: newClock()}
	first, err := tr.passA(quiet, db)
	if err != nil {
		return err
	}
	tr.speedup = float64(tr.queries) / (sp.rate * float64(sp.batch)) / first.Seconds()
	plain, err := tr.passA(quiet, db)
	if err != nil {
		return err
	}
	t := &tracer{clk: newClock(), on: true, spans: make([]span, 0, 16*tr.queries)}
	withSpans, err := tr.passA(t, db)
	if err != nil {
		return err
	}
	if sp.batch > 1 {
		if err := tr.passBatch(t, db); err != nil {
			return err
		}
	}
	trips := max(1, cfg.roundTrips/sp.batch)
	if err := tr.roundTrips(t, db, trips); err != nil {
		return err
	}
	if err := tr.passB(t, db, rep); err != nil {
		return err
	}
	if sp.durable {
		dir, err := os.MkdirTemp(cfg.workdir, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if err := tr.passWAL(t, db, dir, rep); err != nil {
			return err
		}
	}

	s := t.stats()
	n := tr.queries
	L := rep.layer
	us := func(name, span string) float64 {
		v := s.perQuery(span, n)
		L[name] = metric{v, "us"}
		return v
	}
	decode := us("server.decode_us", "server.decode")
	encode := us("server.encode_us", "server.encode")
	parse := us("eqsql.parse_us", "eqsql.parse") + us("ir.parse_us", "ir.parse")
	submit := (s.total["engine.submit_closing"] + s.total["engine.submit_nonclosing"]) / float64(n) / 1e3
	L["engine.submit_closing_us"] = metric{s.perCall("engine.submit_closing"), "us"}
	L["engine.submit_nonclosing_us"] = metric{s.perCall("engine.submit_nonclosing"), "us"}
	L["engine.submit_batch_us"] = metric{s.perQuery("engine.submit_batch", n), "us"}
	L["engine.expire_us"] = metric{s.perQuery("engine.expire", tr.expired), "us"}
	rtQueries := 0
	for si := 0; si < min(trips, len(tr.sends)); si++ {
		rtQueries += int(tr.sends[si].n)
	}
	roundtrip := s.perQuery("server.roundtrip", rtQueries)
	L["server.roundtrip_us"] = metric{roundtrip, "us"}
	// The round trips of a batched workload go through the batch ingest path.
	viaServer := submit
	if sp.batch > 1 {
		viaServer = s.perQuery("engine.submit_batch", n)
	}
	L["server.self_us"] = metric{roundtrip - decode - parse - viaServer - encode, "us"}

	children := us("match.safety_us", "match.safety") + us("graph.add_us", "graph.add") +
		us("graph.capture_us", "graph.capture") + us("graph.remove_us", "graph.remove") +
		us("match.safety_remove_us", "match.safety_remove")
	L["match.evaluate_us"] = metric{s.perCall("match.evaluate"), "us"}
	L["match.component_us"] = metric{s.perCall("match.component"), "us"}
	L["match.combine_us"] = metric{s.perCall("match.combine"), "us"}
	L["memdb.compile_us"] = metric{s.perCall("memdb.compile"), "us"}
	L["memdb.exec_us"] = metric{s.perCall("memdb.exec"), "us"}
	children += s.perQuery("match.evaluate", n)
	L["engine.self_us"] = metric{submit - children, "us"}
	unattributed := 0.0
	if submit > 0 {
		unattributed = 1 - children/submit
	}
	L["trace.engine_unattributed_frac"] = metric{unattributed, "ratio"}
	L["trace.overhead_frac"] = metric{float64(withSpans-plain) / float64(plain), "ratio"}
	if unattributed > 0.25 {
		rep.note("warning: %.0f%% of Engine.Submit is not covered by the layer calls timed from outside", 100*unattributed)
	}

	L["wal.append_us"] = metric{s.perCall("wal.append"), "us"}
	L["wal.sync_us"] = metric{s.perCall("wal.sync"), "us"}
	L["wal.checkpoint_ms"] = metric{s.perCall("wal.checkpoint") / 1e3, "ms"}
	L["wal.recover_ms"] = metric{s.perCall("wal.recover") / 1e3, "ms"}
	L["memdb.snapshot_ms"] = metric{s.perCall("memdb.snapshot") / 1e3, "ms"}
	if _, ok := L["memdb.snapshot_bytes"]; !ok {
		L["memdb.snapshot_bytes"] = metric{0, "B"}
	}

	rep.note("traced replay: %d queries in %d requests; per call, median / p99 in us:", n, len(tr.sends))
	for _, name := range sortedKeys(s.h) {
		h := s.h[name]
		rep.note("  %-26s %9d calls %10.1f / %10.1f", name, h.n, float64(h.quantile(0.5))/1e3, float64(h.quantile(0.99))/1e3)
	}
	return writeSpans(cfg.spans, t.spans)
}

func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
