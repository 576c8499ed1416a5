package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"entangle/internal/fault"
)

// keepLogsFS keeps superseded epoch logs on disk so a test can read what
// each epoch finally held.
type keepLogsFS struct{ fault.OS }

func (keepLogsFS) Remove(name string) error {
	if strings.HasPrefix(filepath.Base(name), "wal-") {
		return nil
	}
	return os.Remove(name)
}

// refRecord is one record as a log without deferral frames it, keyed so
// the same transition can be found in a deferred log: "a<id>" for an
// admit, "r<op>", "d<op>" and "e<op>" for the other kinds.
type refRecord struct {
	key string
	rec Record
}

func keyOf(r *Record) string {
	switch r.Kind {
	case KindAdmit:
		return fmt.Sprintf("a%d", r.Admit.ID)
	case KindResults:
		return "r" + r.Results[0].Detail
	case KindDDL:
		return "d" + r.Script
	default:
		return fmt.Sprintf("e%d", r.Epoch)
	}
}

// epochTrace is one log epoch of a run: the checkpoint that opened it,
// every record appended to it in append order, and the commits it saw.
type epochTrace struct {
	epoch   uint64
	ckpt    CheckpointState
	refs    []refRecord
	commits []commitPoint
}

// commitPoint: after a commit the log file was size bytes long and held
// the first nrefs appended records.
type commitPoint struct {
	size  int64
	nrefs int
}

// frameRefs frames the records whose keys keep accepts, with no deferral,
// as a log file.
func frameRefs(refs []refRecord, keep func(string) bool) []byte {
	b := []byte(logHeader)
	for i := range refs {
		if keep == nil || keep(refs[i].key) {
			b = appendFrame(b, &refs[i].rec, nil)
		}
	}
	return b
}

// deferralRun drives a Dir through a seeded interleaving of admits (single
// and batched), results (including duplicates and an admit resolved in
// its own append), DDL, epoch marks, syncs, checkpoint rotations and
// close-and-reopen, and returns the directory plus each epoch's trace. A
// clean reopen must recover exactly the model's state.
func deferralRun(t *testing.T, pol Policy, seed int64) (string, []*epochTrace) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	open := func() *Dir {
		// The background cadence never fires: commits happen exactly at
		// the run's sync, checkpoint and close steps (and every append
		// under Sync).
		d, err := OpenDirFS(dir, pol, time.Hour, keepLogsFS{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var (
		next     int64
		counters Counters
		pending  = map[int64]PendingQuery{}
		resolved []int64
		traces   []*epochTrace
		cur      *epochTrace
	)
	state := func() CheckpointState {
		st := CheckpointState{NextID: next, Counters: counters}
		for id := int64(1); id <= next; id++ {
			if p, ok := pending[id]; ok {
				st.Pending = append(st.Pending, p)
			}
		}
		return st
	}
	d := open()
	checkpoint := func() {
		st := state()
		if err := d.Checkpoint(st, &fakeDB{}); err != nil {
			t.Fatal(err)
		}
		cur = &epochTrace{epoch: d.epoch, ckpt: st}
		traces = append(traces, cur)
	}
	commitDone := func() {
		fi, err := os.Stat(d.walPath(cur.epoch))
		if err != nil {
			t.Fatal(err)
		}
		cur.commits = append(cur.commits, commitPoint{size: fi.Size(), nrefs: len(cur.refs)})
	}
	appendRecs := func(recs ...Record) {
		if err := d.Append(recs...); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			cur.refs = append(cur.refs, refRecord{keyOf(&r), r})
		}
		if pol == Sync {
			commitDone()
		}
	}
	admit := func() Record {
		next++
		r := AdmitRecord(next, 1+rng.Intn(3), fmt.Sprintf("o%d", rng.Intn(4)), fmt.Sprintf("query %d", next), rng.Int63())
		a := r.Admit
		pending[next] = PendingQuery{ID: a.ID, Choose: a.Choose, Owner: a.Owner, IR: a.IR, SubmittedUnixNano: a.SubmittedUnixNano}
		return r
	}
	resolve := func(op int, ids []int64) Record {
		rs := make([]QueryResult, len(ids))
		for i, id := range ids {
			rs[i] = QueryResult{ID: id, Status: uint8(rng.Intn(4)), Detail: fmt.Sprint(op)}
			if rs[i].Status == StatusAnswered {
				rs[i].Tuples = []string{fmt.Sprintf("R(%d)", id)}
			}
			if _, ok := pending[id]; !ok {
				continue // a duplicate delivery: replay skips it
			}
			delete(pending, id)
			resolved = append(resolved, id)
			switch rs[i].Status {
			case StatusAnswered:
				counters.Answered++
			case StatusUnsafe:
				counters.Unsafe++
			case StatusRejected:
				counters.Rejected++
			default:
				counters.Stale++
			}
		}
		return ResultsRecord(rs)
	}
	pickPending := func() []int64 {
		var ids []int64
		for id := range pending {
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return nil
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		ids = ids[:1+rng.Intn(min(3, len(ids)))]
		if len(resolved) > 0 && rng.Intn(8) == 0 {
			ids = append(ids, resolved[rng.Intn(len(resolved))])
		}
		return ids
	}

	if _, err := d.Recover(&fakeDB{}); err != nil {
		t.Fatal(err)
	}
	checkpoint()
	for op := 0; op < 160; op++ {
		switch x := rng.Intn(100); {
		case x < 30:
			appendRecs(admit())
		case x < 38:
			batch := []Record{admit(), admit()}
			if rng.Intn(2) == 0 {
				batch = append(batch, admit())
			}
			appendRecs(batch...)
		case x < 42: // admitted and resolved in one window
			a := admit()
			r := resolve(op, []int64{a.Admit.ID})
			if pol == Sync {
				// One append is one commit under Sync: the engine's
				// admit and result appends are always separate calls.
				appendRecs(a)
				appendRecs(r)
			} else {
				appendRecs(a, r)
			}
		case x < 68:
			if ids := pickPending(); ids != nil {
				appendRecs(resolve(op, ids))
			}
		case x < 74:
			appendRecs(DDLRecord(fmt.Sprint(op)))
		case x < 78:
			appendRecs(EpochRecord(uint64(op)))
		case x < 90:
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			commitDone()
		case x < 96:
			checkpoint()
		default:
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d = open()
			rec, err := d.Recover(&fakeDB{})
			if err != nil {
				t.Fatal(err)
			}
			want := state()
			if rec.NextID != want.NextID || rec.Counters != want.Counters || !samePending(rec.Pending, want.Pending) {
				t.Fatalf("op %d: reopen recovered next=%d %+v %d pending, want next=%d %+v %d pending",
					op, rec.NextID, rec.Counters, len(rec.Pending), want.NextID, want.Counters, len(want.Pending))
			}
			checkpoint()
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, traces
}

func samePending(a, b []PendingQuery) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestDeferralEquivalence is the deferral property: for seeded interleavings
// under every policy, recovering any frame-boundary prefix of an epoch's
// log gives the same pending set, NextID and Counters as a log written
// without deferral that holds the same transitions — a dropped admit
// standing in as its Unlogged result entry. No outcome is framed ahead of
// an earlier admission, at every commit the prefix holds every transition
// appended so far, and under Sync the log is byte-identical to the
// undeferred one.
func TestDeferralEquivalence(t *testing.T) {
	for _, pol := range []Policy{Off, Batch, Sync} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", pol, seed), func(t *testing.T) {
				dir, traces := deferralRun(t, pol, seed)
				dropped := 0
				for _, tr := range traces {
					dropped += checkEpoch(t, dir, pol, tr)
				}
				if (pol == Sync) != (dropped == 0) {
					t.Fatalf("%s policy dropped %d admits", pol, dropped)
				}
			})
		}
	}
}

// checkEpoch checks one epoch's log against its undeferred twin and
// returns how many admits deferral dropped.
func checkEpoch(t *testing.T, dir string, pol Policy, tr *epochTrace) int {
	t.Helper()
	log, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%d.log", tr.epoch)))
	if err != nil {
		t.Fatal(err)
	}
	if pol == Sync && !bytes.Equal(log, frameRefs(tr.refs, nil)) {
		t.Fatalf("epoch %d: sync-policy log differs from the undeferred one", tr.epoch)
	}
	recoverBytes := func(b []byte) *Recovered {
		rec, err := replay(tr.ckpt, bytes.NewReader(b), &fakeDB{})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	rd := NewReader(bytes.NewReader(log))
	present := map[string]bool{}
	dropped := 0
	check := func(cut int64) {
		got := recoverBytes(log[:cut])
		want := recoverBytes(frameRefs(tr.refs, func(k string) bool { return present[k] }))
		if got.NextID != want.NextID || got.Counters != want.Counters || !samePending(got.Pending, want.Pending) {
			t.Fatalf("epoch %d, cut %d: recovered next=%d %+v %v, undeferred twin next=%d %+v %v",
				tr.epoch, cut, got.NextID, got.Counters, got.Pending, want.NextID, want.Counters, want.Pending)
		}
		for _, c := range tr.commits {
			if c.size != cut {
				continue
			}
			for _, r := range tr.refs[:c.nrefs] {
				if !present[r.key] {
					t.Fatalf("epoch %d: commit at %d bytes lacks %s", tr.epoch, cut, r.key)
				}
			}
		}
	}
	check(0)
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("epoch %d: %v", tr.epoch, err)
		}
		key := keyOf(&r)
		present[key] = true
		if r.Kind == KindResults {
			// Everything admitted before an outcome precedes it.
			for _, ref := range tr.refs {
				if ref.key == key {
					break
				}
				if ref.rec.Kind == KindAdmit && !present[ref.key] && !unloggedIn(r, ref.rec.Admit.ID) {
					t.Fatalf("epoch %d: %s is framed ahead of earlier %s", tr.epoch, key, ref.key)
				}
			}
		}
		for _, qr := range r.Results {
			if qr.Unlogged {
				present[fmt.Sprintf("a%d", qr.ID)] = true
				dropped++
			}
		}
		check(rd.Offset())
	}
	if len(present) != len(tr.refs) {
		t.Fatalf("epoch %d: the log holds %d transitions, %d were appended", tr.epoch, len(present), len(tr.refs))
	}
	return dropped
}

func unloggedIn(r Record, id int64) bool {
	for _, qr := range r.Results {
		if qr.ID == id && qr.Unlogged {
			return true
		}
	}
	return false
}

// TestLogVersionRefused: a log without this version's header — a version
// 1 log opens directly with a frame — is refused with ErrLogVersion, as is
// a version 1 checkpoint with ErrCheckpointVersion; neither is mistaken
// for a torn tail.
func TestLogVersionRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Sync, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(CheckpointState{}, &fakeDB{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	v1 := AdmitRecord(1, 1, "jerry", "{R(J, x)} R(K, x) :- F(x, Rome)", 1)
	if err := os.WriteFile(d.walPath(1), appendFrame(nil, &v1, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, _ := OpenDir(dir, Sync, 0)
	if _, err := d2.Recover(&fakeDB{}); !errors.Is(err, ErrLogVersion) || errors.Is(err, ErrTorn) {
		t.Fatalf("headerless log: err = %v, want ErrLogVersion", err)
	}

	path := filepath.Join(dir, checkpointName)
	if err := writeCheckpoint(fault.OS{}, path, CheckpointState{Version: 1, WALEpoch: 1}, &fakeDB{}); err != nil {
		t.Fatal(err)
	}
	d3, _ := OpenDir(dir, Sync, 0)
	if _, err := d3.Recover(&fakeDB{}); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version 1 checkpoint: err = %v, want ErrCheckpointVersion", err)
	}
}
