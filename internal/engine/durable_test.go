package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"entangle/internal/ir"
	"entangle/internal/memdb"
	"entangle/internal/wal"
)

// durCfg is the crash-harness engine configuration: one shard and seed 0
// so coordination is fully deterministic, no staleness, no periodic
// checkpoints (the tests checkpoint explicitly), and no background flush
// tick — the log commits at SyncWAL and Close only, so which admits it
// holds back and drops, and therefore every byte it writes, is
// deterministic too.
func durCfg(dir string, pol wal.Policy) Config {
	return Config{Mode: Incremental, Shards: 1, Seed: 0, DataDir: dir, Durability: pol,
		CheckpointEvery: -1, WALFlushInterval: time.Hour}
}

// crashSchema loads the flight data through the logged DDL path. Rome has
// exactly one flight, so every coordinated answer has a unique valuation
// and CHOOSE randomness cannot make outcomes diverge across incarnations.
const crashSchema = `CREATE TABLE F (fno, dest);
INSERT INTO F VALUES ('136', 'Rome');
INSERT INTO F VALUES ('122', 'Paris');`

// crashUsers adds the users the kill-point harness's eqsql-style queries
// join against, spelled like the benchmark's: lowercase, with digits.
const crashUsers = `CREATE TABLE U (uid, city);
INSERT INTO U VALUES ('u81', 'paris');
INSERT INTO U VALUES ('u82', 'paris');
INSERT INTO U VALUES ('u83', 'oslo');`

// crashWorkload returns the harness queries in submission (= ID) order:
//   - three coordinating pairs over the unique Rome flight (answered);
//   - two never-matching singles (stay pending);
//   - a pair and a single spelled the way eqsql and the benchmark spell
//     them — constants that start lowercase or carry digits (u81,
//     'paris'), variables that start with an underscore (_c4), none of
//     which the IR text form reads back — (the pair answered, the single
//     pending), then the same again translated from SQL by the engine;
//   - a pair over a destination with no data (both rejected); and
//   - a trio whose third member double-feeds a postcondition (unsafe at
//     admission; the first two stay pending, their component never closes).
func crashWorkload(t *testing.T, e *Engine) []*ir.Query {
	t.Helper()
	var qs []*ir.Query
	for i := 1; i <= 3; i++ {
		qs = append(qs,
			ir.MustParse(0, fmt.Sprintf("{R%d(J, x)} R%d(K, x) :- F(x, Rome)", i, i)),
			ir.MustParse(0, fmt.Sprintf("{R%d(K, y)} R%d(J, y) :- F(y, Rome)", i, i)),
		)
	}
	c := ir.Const
	friends := func(rel, me, them string) *ir.Query {
		f, city := ir.Var("_fno1"), ir.Var("_c4")
		return &ir.Query{Choose: 1,
			Heads: []ir.Atom{ir.NewAtom(rel, c(me), f)},
			Posts: []ir.Atom{ir.NewAtom(rel, c(them), f)},
			Body: []ir.Atom{
				ir.NewAtom("F", f, c("Rome")),
				ir.NewAtom("U", c(me), city),
				ir.NewAtom("U", c(them), city),
			}}
	}
	qs = append(qs,
		ir.MustParse(0, "{S1(A, x)} S1(B, x) :- F(x, Rome)"),
		ir.MustParse(0, "{S2(A, x)} S2(B, x) :- F(x, Rome)"),
		friends("T_t38", "u81", "u82"),
		friends("T_t38", "u82", "u81"),
		&ir.Query{Choose: 1, Owner: "u83",
			Heads: []ir.Atom{ir.NewAtom("P", c("u83"), ir.Var("_fno1"))},
			Posts: []ir.Atom{ir.NewAtom("P", c("u81"), ir.Var("_fno1"))},
			Body: []ir.Atom{
				ir.NewAtom("F", ir.Var("_fno1"), c("Rome")),
				ir.NewAtom("U", c("u81"), c("paris")),
			}},
	)
	for _, sql := range []string{
		"SELECT 'u81', fno INTO ANSWER V WHERE fno IN (SELECT fno FROM F WHERE dest = 'Rome') AND ('u82', fno) IN ANSWER V CHOOSE 1",
		"SELECT 'u82', fno INTO ANSWER V WHERE fno IN (SELECT fno FROM F WHERE dest = 'Rome') AND ('u81', fno) IN ANSWER V CHOOSE 1",
		"SELECT 'u83', fno INTO ANSWER Q WHERE ('u81', fno) IN ANSWER Q AND fno IN (SELECT T0.fno FROM F T0, U T1, U T2 " +
			"WHERE T0.dest = 'Rome' AND T1.uid = 'u83' AND T2.uid = 'u81' AND T2.city = T1.city) CHOOSE 1",
	} {
		q, err := e.ParseSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	qs = append(qs,
		ir.MustParse(0, "{N(P, x)} N(Q, x) :- F(x, Nowhere)"),
		ir.MustParse(0, "{N(Q, y)} N(P, y) :- F(y, Nowhere)"),
		ir.MustParse(0, "{W(J, x)} W(K, x) :- F(x, Rome)"),
		ir.MustParse(0, "{W(Z, y)} W(J, y) :- F(y, Rome)"),
		ir.MustParse(0, "{W(V, z)} W(J, z) :- F(z, Rome)"), // second feeder of W(J, ·) → unsafe
	)
	return qs
}

// outcome is one query's observable end state, comparable across engine
// incarnations. pendingMark means "no result delivered".
type outcome struct {
	status uint8
	tuples string
}

const pendingMark uint8 = 255

func walStatusOf(s Status) uint8 {
	switch s {
	case StatusAnswered:
		return wal.StatusAnswered
	case StatusUnsafe:
		return wal.StatusUnsafe
	case StatusRejected:
		return wal.StatusRejected
	default:
		return wal.StatusStale
	}
}

func outcomeOfTuples(status uint8, tuples []string) outcome {
	s := append([]string(nil), tuples...)
	sort.Strings(s)
	return outcome{status: status, tuples: strings.Join(s, "|")}
}

// pollHandle returns the handle's outcome without blocking: in a
// single-shard Incremental engine every delivery is synchronous with the
// Submit/Flush that caused it, so an empty channel means pending.
func pollHandle(h *Handle) outcome {
	select {
	case r := <-h.Done():
		var tuples []string
		if r.Answer != nil {
			for _, t := range r.Answer.Tuples {
				tuples = append(tuples, t.String())
			}
		}
		return outcomeOfTuples(walStatusOf(r.Status), tuples)
	default:
		return outcome{status: pendingMark}
	}
}

// replayPrefix decodes the durable prefix of a WAL byte stream: the IDs
// it admits in ascending order — logged admits plus the queries whose admit
// was dropped because they resolved inside its commit window, known by
// their Unlogged result entries — per-ID terminal outcomes, replayed DDL
// scripts, and the byte offset after each fully framed record (the valid
// crash points). Every logged admit must decode to exactly the query sent
// under its ID.
func replayPrefix(tb testing.TB, b []byte, sent map[int64]*ir.Query) (admitted []int64, resulted map[int64]outcome, ddls []string, bounds []int64) {
	tb.Helper()
	resulted = make(map[int64]outcome)
	rd := wal.NewReader(bytes.NewReader(b))
	for {
		r, err := rd.Next()
		if err == io.EOF || errors.Is(err, wal.ErrTorn) {
			sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
			return
		}
		if err != nil {
			tb.Fatal(err)
		}
		bounds = append(bounds, rd.Offset())
		switch r.Kind {
		case wal.KindAdmit:
			a := r.Admit
			q, err := ir.DecodeBinary(a.IR)
			if err != nil {
				tb.Fatalf("admit %d: %v", a.ID, err)
			}
			if want := sent[a.ID]; want == nil || !q.Equal(want) || a.Owner != want.Owner || a.Choose != want.Choose {
				tb.Fatalf("admit %d logs %s (owner %q, choose %d), sent %v", a.ID, q, a.Owner, a.Choose, want)
			}
			admitted = append(admitted, a.ID)
		case wal.KindResults:
			for _, qr := range r.Results {
				resulted[qr.ID] = outcomeOfTuples(qr.Status, qr.Tuples)
				if qr.Unlogged {
					admitted = append(admitted, qr.ID)
				}
			}
		case wal.KindDDL:
			ddls = append(ddls, r.Script)
		}
	}
}

// comparatorOutcomes runs an engine that never crashed: a fresh
// non-durable engine with the same configuration, fed the prefix's DDL and
// then the admitted queries one at a time in ID order. Returns each
// original ID's outcome.
func comparatorOutcomes(t *testing.T, admitted []int64, sent map[int64]*ir.Query, ddls []string) map[int64]outcome {
	t.Helper()
	db := memdb.New()
	for _, s := range ddls {
		if err := db.ExecScript(s); err != nil {
			t.Fatal(err)
		}
	}
	e := New(db, Config{Mode: Incremental, Shards: 1, Seed: 0})
	defer e.Close()
	handles := make(map[int64]*Handle, len(admitted))
	for _, id := range admitted {
		h, err := e.Submit(sent[id])
		if err != nil {
			t.Fatal(err)
		}
		handles[id] = h
	}
	e.Flush()
	out := make(map[int64]outcome, len(handles))
	for id, h := range handles {
		out[id] = pollHandle(h)
	}
	return out
}

// dirImage is a byte copy of a data directory (checkpoint + single WAL).
type dirImage struct {
	ckpt    []byte
	walName string
	wal     []byte
}

func captureDir(t *testing.T, dir string) dirImage {
	t.Helper()
	img := dirImage{}
	var err error
	if img.ckpt, err = os.ReadFile(filepath.Join(dir, "checkpoint.d3c")); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("want exactly one wal log, got %v (%v)", logs, err)
	}
	img.walName = filepath.Base(logs[0])
	if img.wal, err = os.ReadFile(logs[0]); err != nil {
		t.Fatal(err)
	}
	return img
}

// materialize writes the image with the WAL cut to `cut` bytes into a
// fresh directory — the crashed process's surviving disk state.
func (img dirImage) materialize(t *testing.T, cut int64, mutate func([]byte)) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.d3c"), img.ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), img.wal[:cut]...)
	if mutate != nil {
		mutate(b)
	}
	if err := os.WriteFile(filepath.Join(dir, img.walName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkRecovery opens an engine over the crash image and asserts
// observational equivalence with the uncrashed comparator: the recovered
// pending set is exactly admitted-minus-resulted, and every admitted ID's
// combined outcome (durable result, post-recovery delivery, or still
// pending) matches the comparator's.
func checkRecovery(t *testing.T, dir string, pol wal.Policy, admitted []int64, sent map[int64]*ir.Query, resulted map[int64]outcome, ddls []string) {
	t.Helper()
	e, err := Open(memdb.New(), durCfg(dir, pol))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer e.Close()

	wantPending := make(map[int64]bool)
	for _, id := range admitted {
		if _, done := resulted[id]; !done {
			wantPending[id] = true
		}
	}
	combined := make(map[int64]outcome, len(admitted))
	for id, o := range resulted {
		combined[id] = o
	}
	rec := e.Recovered()
	if len(rec) != len(wantPending) {
		t.Fatalf("recovered %d pending, want %d", len(rec), len(wantPending))
	}
	for _, h := range rec {
		if !wantPending[int64(h.ID)] {
			t.Fatalf("recovered unexpected query %d", h.ID)
		}
		combined[int64(h.ID)] = pollHandle(h)
	}

	want := comparatorOutcomes(t, admitted, sent, ddls)
	for _, id := range admitted {
		if combined[id] != want[id] {
			t.Errorf("query %d: recovered outcome %+v, comparator %+v", id, combined[id], want[id])
		}
	}
	if st := e.Stats(); st.Submitted != len(admitted) {
		t.Errorf("recovered Stats.Submitted = %d, want %d", st.Submitted, len(admitted))
	}
}

// TestCrashRecoveryKillPoints is the durability acceptance harness: it
// runs a deterministic workload on a durable engine, captures the disk
// state, then "crashes" at every byte offset of the WAL — record
// boundaries, and torn frames that must be rejected — and checks each
// recovered engine is observationally equivalent to one that received
// exactly the durable-prefix admissions and never crashed.
func TestCrashRecoveryKillPoints(t *testing.T) {
	for _, pol := range []wal.Policy{wal.Batch, wal.Sync} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(memdb.New(), durCfg(dir, pol))
			if err != nil {
				t.Fatal(err)
			}
			for _, script := range []string{crashSchema, crashUsers} {
				if err := e.Load(script); err != nil {
					t.Fatal(err)
				}
			}
			qs := crashWorkload(t, e)
			// Exercise both admission paths: singles and two batches (each
			// appends its admit records ahead of admission).
			var handles []*Handle
			for _, q := range qs[:len(qs)-4] {
				h, err := e.Submit(q)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			bh, err := e.SubmitBatch(qs[len(qs)-4 : len(qs)-2])
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, bh...)
			bk, err := e.SubmitBatch(qs[len(qs)-2:])
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, bk...)
			sent := make(map[int64]*ir.Query, len(qs))
			for i, h := range handles {
				sent[int64(h.ID)] = qs[i]
			}
			e.Flush()
			if err := e.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			img := captureDir(t, dir)
			e.Close()

			admittedAll, _, _, bounds := replayPrefix(t, img.wal, sent)
			if len(admittedAll) != len(qs) {
				t.Fatalf("logged %d admissions, want %d", len(admittedAll), len(qs))
			}

			// Crash at every byte offset: on a record boundary the durable
			// prefix ends cleanly; anywhere else the torn frame (or log
			// header) fails validation and must be discarded.
			for cut := int64(0); cut <= int64(len(img.wal)); cut++ {
				cut := cut
				t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
					t.Parallel()
					crashDir := img.materialize(t, cut, nil)
					admitted, resulted, ddls, _ := replayPrefix(t, img.wal[:cut], sent)
					checkRecovery(t, crashDir, pol, admitted, sent, resulted, ddls)
				})
			}

			// Bit-flip corruption inside a mid-log record: everything from
			// the corrupt frame on is rejected, the prefix before it recovers.
			if len(bounds) > 4 {
				i := len(bounds) / 2
				t.Run("corrupt", func(t *testing.T) {
					t.Parallel()
					crashDir := img.materialize(t, int64(len(img.wal)), func(b []byte) {
						b[bounds[i]+9] ^= 0x40 // a payload byte of record i+1
					})
					admitted, resulted, ddls, _ := replayPrefix(t, img.wal[:bounds[i]], sent)
					checkRecovery(t, crashDir, pol, admitted, sent, resulted, ddls)
				})
			}
		})
	}
}

// TestCrashRecoveryMidStreamCheckpoint crashes after a checkpoint taken
// mid-workload: recovery must combine the checkpoint's pending set with
// the post-checkpoint log prefix.
func TestCrashRecoveryMidStreamCheckpoint(t *testing.T) {
	dir := t.TempDir()
	pol := wal.Batch
	e, err := Open(memdb.New(), durCfg(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(crashSchema); err != nil {
		t.Fatal(err)
	}
	// Phase 1: one resolved pair, one pending single. The pair's queries
	// and results are older than the checkpoint — only counters survive.
	phase1 := []string{
		"{P1(J, x)} P1(K, x) :- F(x, Rome)",
		"{P1(K, y)} P1(J, y) :- F(y, Rome)",
		"{P2(A, x)} P2(B, x) :- F(x, Rome)",
	}
	sent := make(map[int64]*ir.Query)
	var p1IDs []int64
	var p1Handles []*Handle
	for _, text := range phase1 {
		q := ir.MustParse(0, text)
		h, err := e.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		sent[int64(h.ID)] = q
		p1IDs = append(p1IDs, int64(h.ID))
		p1Handles = append(p1Handles, h)
	}
	e.Flush()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The pair resolved before the checkpoint; record its delivered
	// outcomes (the single stays pending).
	p1Resolved := map[int64]outcome{}
	for i, h := range p1Handles[:2] {
		o := pollHandle(h)
		if o.status != wal.StatusAnswered {
			t.Fatalf("phase-1 pair member %d not answered: %+v", i, o)
		}
		p1Resolved[p1IDs[i]] = o
	}

	// Phase 2: a second single and the partner that closes phase 1's P2.
	phase2 := []string{
		"{S9(A, x)} S9(B, x) :- F(x, Rome)",
		"{P2(B, y)} P2(A, y) :- F(y, Rome)",
	}
	for _, text := range phase2 {
		q := ir.MustParse(0, text)
		h, err := e.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		sent[int64(h.ID)] = q
	}
	e.Flush()
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	img := captureDir(t, dir)
	e.Close()

	p2Admitted, _, _, _ := replayPrefix(t, img.wal, sent)
	if len(p2Admitted) != len(phase2) {
		t.Fatalf("phase-2 log has %d admissions, want %d", len(p2Admitted), len(phase2))
	}
	for cut := int64(0); cut <= int64(len(img.wal)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			t.Parallel()
			crashDir := img.materialize(t, cut, nil)
			admitted, resulted, _, _ := replayPrefix(t, img.wal[:cut], sent)
			// Combined history: phase-1 admits (with their pre-checkpoint
			// outcomes) followed by the prefix's phase-2 admits.
			all := append(append([]int64(nil), p1IDs...), admitted...)
			combined := make(map[int64]outcome, len(all))
			for id, o := range p1Resolved {
				combined[id] = o
			}
			for id, o := range resulted {
				combined[id] = o
			}
			checkRecovery(t, crashDir, pol, all, sent, combined, []string{crashSchema})
		})
	}
}

// TestDurableCleanShutdownReopen checks the non-crash path: Close
// checkpoints, so a reopen recovers the database and every still-pending
// query — which then coordinates normally with a newly submitted partner.
func TestDurableCleanShutdownReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(memdb.New(), durCfg(dir, wal.Batch))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(crashSchema); err != nil {
		t.Fatal(err)
	}
	h, err := e.Submit(ir.MustParse(0, "{R(J, x)} R(K, x) :- F(x, Rome)"))
	if err != nil {
		t.Fatal(err)
	}
	origID := h.ID
	st1 := e.Stats()
	e.Close()

	e2, err := Open(memdb.New(), durCfg(dir, wal.Batch))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.DB().TableNames(); len(got) != 1 || got[0] != "F" {
		t.Fatalf("recovered tables %v", got)
	}
	rec := e2.Recovered()
	if len(rec) != 1 || rec[0].ID != origID {
		t.Fatalf("recovered %v, want original query %d", rec, origID)
	}
	if st := e2.Stats(); st.Submitted != st1.Submitted || st.Pending != 1 {
		t.Fatalf("stats after reopen = %+v (before close %+v)", st, st1)
	}
	partner, err := e2.Submit(ir.MustParse(0, "{R(K, y)} R(J, y) :- F(y, Rome)"))
	if err != nil {
		t.Fatal(err)
	}
	e2.Flush()
	r1, err := rec[0].Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := partner.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != StatusAnswered || r2.Status != StatusAnswered {
		t.Fatalf("post-recovery coordination: %v / %v", r1, r2)
	}
	if r1.Answer.Tuples[0].Args[1].Value != "136" {
		t.Fatalf("answer %v", r1.Answer)
	}
}

// TestDurableExpiryLogged checks staleness expiry is a logged transition:
// an expired query must not come back as pending after recovery, and the
// stale counter must survive.
func TestDurableExpiryLogged(t *testing.T) {
	dir := t.TempDir()
	cfg := durCfg(dir, wal.Batch)
	cfg.StaleAfter = time.Nanosecond
	e, err := Open(memdb.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(crashSchema); err != nil {
		t.Fatal(err)
	}
	h, err := e.Submit(ir.MustParse(0, "{R(J, x)} R(K, x) :- F(x, Rome)"))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if n := e.ExpireStale(); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if r := pollHandle(h); r.status != wal.StatusStale {
		t.Fatalf("outcome %+v, want stale", r)
	}
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	img := captureDir(t, dir)
	e.Close()

	crashDir := img.materialize(t, int64(len(img.wal)), nil)
	cfg2 := durCfg(crashDir, wal.Batch)
	e2, err := Open(memdb.New(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rec := e2.Recovered(); len(rec) != 0 {
		t.Fatalf("expired query recovered as pending: %v", rec)
	}
	if st := e2.Stats(); st.ExpiredStale != 1 || st.Submitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDurableConcurrentCheckpoint races submissions, coordination and
// checkpoints; afterwards a recovery must still see a consistent history.
func TestDurableConcurrentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := durCfg(dir, wal.Off)
	cfg.Shards = 4
	e, err := Open(memdb.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(crashSchema); err != nil {
		t.Fatal(err)
	}
	const pairs = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	var handles []*Handle
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pairs/4; i++ {
				rel := fmt.Sprintf("C%d_%d", w, i)
				h1, err1 := e.Submit(ir.MustParse(0, fmt.Sprintf("{%s(J, x)} %s(K, x) :- F(x, Rome)", rel, rel)))
				h2, err2 := e.Submit(ir.MustParse(0, fmt.Sprintf("{%s(K, y)} %s(J, y) :- F(y, Rome)", rel, rel)))
				if err1 != nil || err2 != nil {
					t.Errorf("submit: %v / %v", err1, err2)
					return
				}
				mu.Lock()
				handles = append(handles, h1, h2)
				mu.Unlock()
			}
		}(w)
	}
	// Wait for the submitters before stopping the checkpoint loop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		mu.Lock()
		n := len(handles)
		mu.Unlock()
		if n == 2*pairs {
			break
		}
		select {
		case <-done:
			t.Fatal("workers exited early")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done
	e.Flush()
	for _, h := range handles {
		if r, err := h.Wait(5 * time.Second); err != nil || r.Status != StatusAnswered {
			t.Fatalf("pair outcome %v (%v)", r, err)
		}
	}
	e.Close()

	e2, err := Open(memdb.New(), durCfg(dir, wal.Off))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rec := e2.Recovered(); len(rec) != 0 {
		t.Fatalf("all pairs answered, but %d recovered as pending", len(rec))
	}
	st := e2.Stats()
	if st.Submitted != 2*pairs || st.Answered != 2*pairs || st.Pending != 0 {
		t.Fatalf("stats after recovery = %+v", st)
	}
	if st.WAL == nil {
		t.Fatal("durable engine Stats missing WAL section")
	}
}

// TestOpenNonDurable checks Open without a data directory degrades to New.
func TestOpenNonDurable(t *testing.T) {
	e, err := Open(memdb.New(), Config{Mode: Incremental, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on non-durable engine: %v", err)
	}
	if e.Stats().WAL != nil {
		t.Fatal("non-durable engine reports WAL stats")
	}
}
