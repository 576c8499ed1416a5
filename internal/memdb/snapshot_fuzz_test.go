package memdb

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"testing"
)

// FuzzReadSnapshot feeds ReadSnapshot untrusted bytes (it sits behind the
// checkpoint loader and d3cd -db). Whatever the input: no panic; memory
// stays proportional to the input (a forged length field must cost a short
// read, not an allocation); an error leaves the database empty; input that
// does not open with this format's magic and version — the v1 gob blob
// among the seeds — is ErrSnapshotVersion; and whatever loads must
// re-encode to a snapshot that loads again.
func FuzzReadSnapshot(f *testing.F) {
	for _, db := range []*DB{New(), flightsDB(f), socialDB(f, 50, 3)} {
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	v1, err := os.ReadFile("testdata/snapshot_v1.gob")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// A header that promises four billion dictionary entries and stops.
	f.Add(append([]byte(snapshotMagic), 2, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		db := New()
		r := bytes.NewReader(data)
		err := db.ReadSnapshot(r)
		headerOK := len(data) >= 8 && string(data[:4]) == snapshotMagic &&
			bytes.Equal(data[4:8], []byte{snapshotVersion, 0, 0, 0})
		if len(data) >= 8 && !headerOK && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("foreign header %q: err = %v, want ErrSnapshotVersion", data[:8], err)
		}
		if err != nil {
			if headerOK && errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("good header reported as version skew: %v", err)
			}
			if len(db.TableNames()) != 0 || len(db.dict.strs) != 0 {
				t.Fatal("failed load left state behind")
			}
			return
		}
		var again bytes.Buffer
		if err := db.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if consumed := len(data) - r.Len(); again.Len() != consumed {
			t.Fatalf("loaded %d bytes but re-encoded to %d", consumed, again.Len())
		}
		if err := New().ReadSnapshot(&again); err != nil {
			t.Fatalf("re-encoded snapshot does not load: %v", err)
		}
	})
}

// TestReadSnapshotForgedLength pins the allocation discipline without the
// fuzzer: a 12-byte input claiming 2³²−2 dictionary entries, and a column
// claiming as many rows, must fail on the missing bytes having allocated
// little more than the read chunk.
func TestReadSnapshotForgedLength(t *testing.T) {
	dict := append([]byte(snapshotMagic), 2, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff)
	var col bytes.Buffer
	sw := &snapWriter{w: &col, crc: crc32.New(snapshotCRC), buf: make([]byte, 0, 64)}
	sw.buf = append(sw.buf, snapshotMagic...)
	sw.u32(snapshotVersion)
	sw.u32(1)
	sw.str("v")
	sw.u32(1) // one table
	sw.str("T")
	sw.u32(1)
	sw.str("c")
	sw.u32(0xfffffffe) // rows
	sw.u32(0)          // …of which one is present
	sw.flush()
	for name, in := range map[string][]byte{"dictionary": dict, "column": col.Bytes()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := New().ReadSnapshot(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want unexpected EOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*snapshotChunk {
			t.Fatalf("%s: a forged length allocated %d bytes", name, got)
		}
	}
}
