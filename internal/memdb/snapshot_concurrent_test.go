package memdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestSnapshotUnderConcurrentWriters races WriteSnapshot against inserts
// and table churn: every snapshot taken mid-churn must be internally
// consistent (loadable into a fresh database with matching arities), which
// is what the engine's checkpoint path relies on. Run with -race.
//
// The work is bounded on both sides — each writer performs a fixed number
// of operations, and the snapshotter stops when the writers do (or after
// maxSnaps) — so the test's cost does not depend on who wins the scheduler.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	const (
		writers      = 3
		opsPerWriter = 400 // ⇒ Base never exceeds writers·opsPerWriter rows
		maxSnaps     = 50
	)
	db := New()
	db.MustCreateTable("Base", "a", "b")
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				db.MustInsert("Base", fmt.Sprint(w), fmt.Sprint(i))
				name := fmt.Sprintf("T%d_%d", w, i%5)
				switch i % 3 {
				case 0:
					_ = db.CreateTable(name, "x", "y")
				case 1:
					_ = db.Insert(name, fmt.Sprint(i), "v")
				default:
					_ = db.DropTable(name)
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	snaps := 0
	for running := true; running && snaps < maxSnaps; snaps++ {
		select {
		case <-done:
			running = false // one last snapshot of the settled state
		default:
		}
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			t.Fatalf("snapshot %d: %v", snaps, err)
		}
		fresh := New()
		if err := fresh.ReadSnapshot(&buf); err != nil {
			t.Fatalf("snapshot %d does not load: %v", snaps, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("snapshot %d: reader left %d bytes unread", snaps, buf.Len())
		}
	}
	<-done
	if n := db.Table("Base").Len(); n != writers*opsPerWriter {
		t.Fatalf("Base has %d rows, want %d", n, writers*opsPerWriter)
	}
}

// TestSnapshotIndexedRoundTrip checks a snapshot restores hash indexes and
// leaves the planner's statistics coherent: the restored table's planRows
// must equal its actual row count (no stale stats epoch from the donor),
// and the load must advance the stats epoch so cached plans recompile.
func TestSnapshotIndexedRoundTrip(t *testing.T) {
	db := New()
	db.MustCreateTable("F", "fno", "dest")
	for i := 0; i < 100; i++ {
		db.MustInsert("F", fmt.Sprint(i), "Rome")
	}
	if err := db.CreateIndex("F", "fno"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := New()
	epochBefore := fresh.StatsEpoch()
	if err := fresh.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.StatsEpoch() == epochBefore {
		t.Fatal("ReadSnapshot must advance the stats epoch")
	}
	ft := fresh.Table("F")
	if ft == nil || ft.Len() != 100 {
		t.Fatalf("restored table: %v", ft)
	}
	if ft.planRows != ft.Len() {
		t.Fatalf("planRows = %d, want %d (stale planner stats)", ft.planRows, ft.Len())
	}
	if ft.indexes[0] == nil || ft.indexes[1] != nil { // fno is column 0
		t.Fatalf("restored indexes = %v, want fno only", ft.indexes)
	}
	if rows := ft.indexes[0].lookup(fresh.dict.lookup("42")); len(rows) != 1 || rows[0] != 42 {
		t.Fatalf("fno index not rebuilt: 42 → %v", rows)
	}
}

// TestSnapshotVersionTyped: version skew must be errors.Is-distinguishable
// from corruption. The v1 blob is a real gob snapshot written by the last
// commit that used that format.
func TestSnapshotVersionTyped(t *testing.T) {
	v1, err := os.ReadFile("testdata/snapshot_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	future := binary.LittleEndian.AppendUint32([]byte(snapshotMagic), snapshotVersion+1)
	for name, in := range map[string][]byte{"v1 gob": v1, "future version": future} {
		db := New()
		if err := db.ReadSnapshot(bytes.NewReader(in)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("%s: err = %v, want ErrSnapshotVersion", name, err)
		}
		if len(db.TableNames()) != 0 {
			t.Fatalf("%s: refused snapshot left tables behind", name)
		}
	}

	// Corruption is NOT a version error: a truncated header, a truncated
	// body, and a flipped payload byte under an intact header.
	var good bytes.Buffer
	if err := flightsDB(t).WriteSnapshot(&good); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	for name, in := range map[string][]byte{
		"short header": []byte("garbage"),
		"truncated":    good.Bytes()[:good.Len()-5],
		"bit flip":     flipped,
	} {
		err := New().ReadSnapshot(bytes.NewReader(in))
		if err == nil || errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("%s: err = %v, want a corruption error", name, err)
		}
	}
}
