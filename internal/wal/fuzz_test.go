package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// readAll drains a Reader over data, returning the records, the bytes
// allocated meanwhile and the error that stopped it.
func readAll(data []byte) (recs []Record, rd *Reader, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rd = NewReader(bytes.NewReader(data))
	for {
		var r Record
		if r, err = rd.Next(); err != nil {
			break
		}
		recs = append(recs, r)
	}
	runtime.ReadMemStats(&after)
	return recs, rd, after.TotalAlloc - before.TotalAlloc, err
}

// forgedFrame is a log whose first frame claims a payload of n bytes and
// carries only a few.
func forgedFrame(n uint32) []byte {
	b := []byte(logHeader)
	b = binary.LittleEndian.AppendUint32(b, n)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return append(b, byte(KindDDL), 3, 'a', 'b', 'c')
}

// FuzzReadRecords feeds the log reader untrusted bytes (every recovery
// reads a log back). Whatever the input: no panic; the reader stops at
// io.EOF, ErrTorn or ErrLogVersion with Offset inside the input; memory
// stays proportional to the input — a forged frame length costs a short
// read, not an allocation of that length; and whatever it accepts frames
// again into records that read back identically.
func FuzzReadRecords(f *testing.F) {
	stream, _ := frameAll(sampleRecords())
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte{})
	f.Add([]byte(logHeader))
	f.Add(forgedFrame(maxRecordSize))
	v1 := AdmitRecord(1, 1, "jerry", "{R(J, x)} R(K, x) :- F(x, Rome)", 1)
	f.Add(appendFrame(nil, &v1, nil)) // a version 1 log: frames, no header

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rd, alloc, err := readAll(data)
		if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrLogVersion) {
			t.Fatalf("reader stopped with %v", err)
		}
		if rd.Offset() > int64(len(data)) {
			t.Fatalf("offset %d past the %d-byte input", rd.Offset(), len(data))
		}
		if bound := 64*uint64(len(data)) + 4*readChunk; alloc > bound {
			t.Fatalf("%d input bytes allocated %d (bound %d)", len(data), alloc, bound)
		}
		if len(recs) == 0 {
			return
		}
		again, _ := frameAll(recs)
		back, _, _, err := readAll(again)
		if err != io.EOF || !reflect.DeepEqual(back, recs) {
			t.Fatalf("accepted records do not survive re-framing: %v", err)
		}
	})
}

// TestReaderForgedLength pins the allocation bound without the fuzzer: a
// frame claiming the largest plausible payload, followed by three bytes,
// fails as torn having allocated little more than one read chunk.
func TestReaderForgedLength(t *testing.T) {
	_, _, alloc, err := readAll(forgedFrame(maxRecordSize))
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	if alloc > 4*readChunk {
		t.Fatalf("a forged length allocated %d bytes", alloc)
	}
}
