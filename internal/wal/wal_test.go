package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"entangle/internal/fault"
)

// fakeDB is a minimal SnapshotDB: the "database" is one string, the
// snapshot format is that string with a marker prefix, and executed
// scripts are recorded verbatim.
type fakeDB struct {
	data    string
	scripts []string
}

func (f *fakeDB) WriteSnapshot(w io.Writer) error {
	_, err := io.WriteString(w, "SNAP:"+f.data)
	return err
}

func (f *fakeDB) ReadSnapshot(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	s, ok := strings.CutPrefix(string(b), "SNAP:")
	if !ok {
		return errors.New("fakeDB: bad snapshot")
	}
	f.data = s
	return nil
}

func (f *fakeDB) ExecScript(script string) error {
	f.scripts = append(f.scripts, script)
	return nil
}

func sampleRecords() []Record {
	return []Record{
		AdmitRecord(1, 1, "jerry", "{R(J, x)} R(K, x) :- F(x, Rome)", 1111),
		AdmitRecord(2, 3, "kramer", "{R(K, y)} R(J, y) :- F(y, Rome)", 2222),
		ResultsRecord([]QueryResult{
			{ID: 1, Status: StatusAnswered, Tuples: []string{"R(J, 136)"}},
			{ID: 2, Status: StatusAnswered, Tuples: []string{"R(K, 136)", "R(K, 137)"}},
		}),
		ResultsRecord([]QueryResult{{ID: 3, Status: StatusUnsafe, Detail: "postcondition fed twice"}}),
		DDLRecord("CREATE TABLE F (fno, dest);\nINSERT INTO F VALUES ('136', 'Rome');"),
		EpochRecord(7),
		ResultsRecord([]QueryResult{{ID: 4, Status: StatusStale, Detail: "no partners"}, {ID: 5, Status: StatusRejected, Detail: "no data"}}),
	}
}

// frameAll encodes recs as a log file and returns the byte stream plus the
// offset of each record's end (i.e. the valid truncation boundaries).
func frameAll(recs []Record) (stream []byte, bounds []int64) {
	b := []byte(logHeader)
	for _, r := range recs {
		r := r
		b = appendFrame(b, &r, nil)
		bounds = append(bounds, int64(len(b)))
	}
	return b, bounds
}

func TestRecordRoundTrip(t *testing.T) {
	recs := sampleRecords()
	stream, bounds := frameAll(recs)
	rd := NewReader(bytes.NewReader(stream))
	for i, want := range recs {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
		if rd.Offset() != bounds[i] {
			t.Fatalf("record %d: offset %d, want %d", i, rd.Offset(), bounds[i])
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
}

// TestReaderTruncation cuts the stream at EVERY byte offset and checks the
// reader returns exactly the fully contained records, then io.EOF on a
// record boundary and ErrTorn anywhere inside a frame. This is the torn
// tail contract recovery depends on.
func TestReaderTruncation(t *testing.T) {
	recs := sampleRecords()
	stream, bounds := frameAll(recs)
	hdr := int64(len(logHeader))
	isBoundary := map[int64]bool{0: true, hdr: true}
	for _, b := range bounds {
		isBoundary[b] = true
	}
	for cut := 0; cut <= len(stream); cut++ {
		rd := NewReader(bytes.NewReader(stream[:cut]))
		var n int
		var err error
		for {
			var r Record
			r, err = rd.Next()
			if err != nil {
				break
			}
			if !reflect.DeepEqual(r, recs[n]) {
				t.Fatalf("cut %d: record %d mismatch", cut, n)
			}
			n++
		}
		wantN := 0
		for _, b := range bounds {
			if b <= int64(cut) {
				wantN++
			}
		}
		if n != wantN {
			t.Fatalf("cut %d: read %d records, want %d", cut, n, wantN)
		}
		if isBoundary[int64(cut)] {
			if err != io.EOF {
				t.Fatalf("cut %d (boundary): err = %v, want io.EOF", cut, err)
			}
		} else if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d (mid-record): err = %v, want ErrTorn", cut, err)
		}
		if wantOff := int64(0); true {
			for _, b := range append([]int64{hdr}, bounds...) {
				if b <= int64(cut) {
					wantOff = b
				}
			}
			if rd.Offset() != wantOff {
				t.Fatalf("cut %d: offset %d, want durable prefix %d", cut, rd.Offset(), wantOff)
			}
		}
	}
}

func TestReaderCorruption(t *testing.T) {
	recs := sampleRecords()
	stream, _ := frameAll(recs)
	// Flip one payload byte of the first record (after the log header and
	// the 8-byte frame header).
	corrupt := append([]byte(nil), stream...)
	corrupt[len(logHeader)+10] ^= 0xff
	rd := NewReader(bytes.NewReader(corrupt))
	if _, err := rd.Next(); !errors.Is(err, ErrTorn) {
		t.Fatalf("corrupted payload: err = %v, want ErrTorn", err)
	}
	if rd.Offset() != int64(len(logHeader)) {
		t.Fatalf("corrupted first record: offset %d, want the header's %d", rd.Offset(), len(logHeader))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
		ok   bool
	}{{"off", Off, true}, {"Batch", Batch, true}, {"SYNC", Sync, true}, {"paranoid", Off, false}} {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestDirCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(EpochRecord(1)); !errors.Is(err, ErrNoLog) {
		t.Fatalf("append before checkpoint: err = %v, want ErrNoLog", err)
	}
	db := &fakeDB{data: "flights-v1"}
	st := CheckpointState{
		NextID:   10,
		Counters: Counters{Answered: 4, Unsafe: 1, Rejected: 1, Stale: 2},
		Pending: []PendingQuery{
			{ID: 9, Choose: 1, Owner: "jerry", IR: "{R(J, x)} R(K, x) :- F(x, Rome)", SubmittedUnixNano: 99},
		},
	}
	if err := d.Checkpoint(st, db); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic: two admits, one result batch retiring one of
	// them plus the checkpointed pending query, one DDL. All four land in
	// one commit window, so admit 11 resolves before it is ever framed: its
	// admit is dropped and its result entry flagged Unlogged.
	appends := []Record{
		AdmitRecord(11, 1, "kramer", "{R(K, y)} R(J, y) :- F(y, Rome)", 111),
		AdmitRecord(12, 2, "newman", "{S(N, z)} S(E, z) :- F(z, Paris)", 112),
		ResultsRecord([]QueryResult{
			{ID: 9, Status: StatusAnswered, Tuples: []string{"R(K, 136)"}},
			{ID: 11, Status: StatusStale, Detail: "no partners"},
		}),
		DDLRecord("INSERT INTO F VALUES ('140', 'Rome');"),
	}
	if err := d.Append(appends...); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	stats := d.Stats()
	if stats.Records != int64(len(appends)-1) || stats.Checkpoints != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(dir, Batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	db2 := &fakeDB{}
	rec, err := d2.Recover(db2)
	if err != nil {
		t.Fatal(err)
	}
	if db2.data != "flights-v1" {
		t.Fatalf("snapshot data = %q", db2.data)
	}
	if len(db2.scripts) != 1 || db2.scripts[0] != appends[3].Script {
		t.Fatalf("replayed scripts = %q", db2.scripts)
	}
	if rec.NextID != 12 {
		t.Fatalf("NextID = %d, want 12", rec.NextID)
	}
	if rec.Torn {
		t.Fatal("clean log reported torn")
	}
	if rec.Replayed != len(appends)-1 {
		t.Fatalf("Replayed = %d, want %d", rec.Replayed, len(appends)-1)
	}
	want := Counters{Answered: 5, Unsafe: 1, Rejected: 1, Stale: 3}
	if rec.Counters != want {
		t.Fatalf("counters = %+v, want %+v", rec.Counters, want)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].ID != 12 || rec.Pending[0].Choose != 2 || rec.Pending[0].Owner != "newman" {
		t.Fatalf("pending = %+v", rec.Pending)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Off, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := &fakeDB{}
	if err := d.Checkpoint(CheckpointState{}, db); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(AdmitRecord(1, 1, "a", "x", 0), AdmitRecord(2, 1, "b", "y", 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the log mid-way through the second record.
	logPath := filepath.Join(dir, "wal-1.log")
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(b))
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	first := rd.Offset()
	if err := os.WriteFile(logPath, b[:first+3], 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, Off, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d2.Recover(&fakeDB{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Pending) != 1 || rec.Pending[0].ID != 1 {
		t.Fatalf("pending after torn tail = %+v", rec.Pending)
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	db := &fakeDB{data: "x"}
	path := filepath.Join(dir, checkpointName)
	if err := writeCheckpoint(fault.OS{}, path, CheckpointState{Version: checkpointVersion + 1}, db); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir, Off, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Recover(&fakeDB{}); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("err = %v, want ErrCheckpointVersion", err)
	}
}

// TestGroupCommit hammers a Sync-policy log from many goroutines: every
// append must be durable and fsyncs should be shared across committers
// rather than one per record.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, Sync, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(CheckpointState{}, &fakeDB{}); err != nil {
		t.Fatal(err)
	}
	const G, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(g*per + i + 1)
				if err := d.Append(AdmitRecord(id, 1, "o", fmt.Sprintf("q%d", id), 0)); err != nil {
					t.Errorf("append %d: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := d.Stats()
	if st.Records != G*per {
		t.Fatalf("records = %d, want %d", st.Records, G*per)
	}
	if st.Fsyncs < 1 {
		t.Fatal("sync policy performed no fsyncs")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, Sync, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d2.Recover(&fakeDB{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != G*per || rec.Torn {
		t.Fatalf("recovered %d pending (torn=%v), want %d", len(rec.Pending), rec.Torn, G*per)
	}
}
