package memdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
)

// ErrSnapshotVersion reports a snapshot written by an incompatible format
// version — including the gob form that predates the dictionary layout, and
// anything else that does not open with this format's magic. Recovery code
// and operators can distinguish version skew from corruption with
// errors.Is(err, ErrSnapshotVersion).
var ErrSnapshotVersion = errors.New("memdb: unsupported snapshot version")

// The format is laid out in the package comment.
const (
	snapshotMagic   = "MDBS"
	snapshotVersion = 2
	// snapshotChunk is the I/O unit of both directions. Reading allocates at
	// most one chunk ahead of the bytes actually present, so a forged length
	// field costs a short read, not memory.
	snapshotChunk = 64 << 10
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// snapWriter streams little-endian fields through one reusable chunk,
// folding every byte into the trailer checksum. The first write error
// sticks; later calls are no-ops.
type snapWriter struct {
	w   io.Writer
	crc hash.Hash32
	buf []byte
	err error
}

func (sw *snapWriter) flush() {
	if sw.err == nil && len(sw.buf) > 0 {
		sw.crc.Write(sw.buf)
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

func (sw *snapWriter) u32(v uint32) {
	if len(sw.buf)+4 > cap(sw.buf) {
		sw.flush()
	}
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, v)
}

func (sw *snapWriter) str(s string) {
	sw.u32(uint32(len(s)))
	for len(s) > 0 {
		if len(sw.buf) == cap(sw.buf) {
			sw.flush()
		}
		n := copy(sw.buf[len(sw.buf):cap(sw.buf)], s)
		sw.buf = sw.buf[:len(sw.buf)+n]
		s = s[n:]
	}
}

// WriteSnapshot serialises the whole database to w: the dictionary, each
// table's raw ID columns, and which columns are indexed. The snapshot is
// taken under the read lock, so it is consistent with respect to
// concurrent writers.
func (db *DB) WriteSnapshot(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sw := &snapWriter{w: w, crc: crc32.New(snapshotCRC), buf: make([]byte, 0, snapshotChunk)}
	sw.buf = append(sw.buf, snapshotMagic...)
	sw.u32(snapshotVersion)
	sw.u32(uint32(len(db.dict.strs)))
	for _, s := range db.dict.strs {
		sw.str(s)
	}
	names := db.tableNamesLocked()
	sw.u32(uint32(len(names)))
	for _, name := range names {
		t := db.tables[name]
		sw.str(t.name)
		sw.u32(uint32(len(t.colNames)))
		for _, c := range t.colNames {
			sw.str(c)
		}
		sw.u32(uint32(t.Len()))
		for _, col := range t.cols {
			for _, id := range col {
				sw.u32(id)
			}
		}
		indexed := 0
		for _, ix := range t.indexes {
			if ix != nil {
				indexed++
			}
		}
		sw.u32(uint32(indexed))
		for col, ix := range t.indexes {
			if ix != nil {
				sw.u32(uint32(col))
			}
		}
	}
	sw.flush()
	if sw.err != nil {
		return sw.err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, sw.crc.Sum32()))
	return err
}

// snapReader is the decoding mirror of snapWriter. It reads exactly the
// snapshot's bytes from r (never past the trailer, so a snapshot can be
// embedded in a larger stream) and folds them into the checksum.
type snapReader struct {
	r   io.Reader
	crc hash.Hash32
	buf []byte

	dict   dict
	tables map[string]*Table
}

// next returns the next n ≤ snapshotChunk bytes, valid until the next call.
func (sr *snapReader) next(n int) ([]byte, error) {
	b := sr.buf[:n]
	if _, err := io.ReadFull(sr.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	sr.crc.Write(b)
	return b, nil
}

func (sr *snapReader) u32() (uint32, error) {
	b, err := sr.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (sr *snapReader) str() (string, error) {
	n, err := sr.u32()
	if err != nil {
		return "", err
	}
	if n <= snapshotChunk {
		b, err := sr.next(int(n))
		return string(b), err
	}
	// A long value grows with the bytes that actually arrive.
	var out []byte
	for rem := int(n); rem > 0; {
		b, err := sr.next(min(rem, snapshotChunk))
		if err != nil {
			return "", err
		}
		out = append(out, b...)
		rem -= len(b)
	}
	return string(out), nil
}

// column reads n raw value IDs, each of which must name a dictionary entry.
func (sr *snapReader) column(n uint32) ([]uint32, error) {
	var col []uint32
	for rem := int(n); rem > 0; {
		k := min(rem, snapshotChunk/4)
		b, err := sr.next(4 * k)
		if err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[4:] {
			id := binary.LittleEndian.Uint32(b)
			if int(id) >= len(sr.dict.strs) {
				return nil, fmt.Errorf("value ID %d outside the %d-entry dictionary", id, len(sr.dict.strs))
			}
			col = append(col, id)
		}
		rem -= k
	}
	return col, nil
}

// ReadSnapshot loads a snapshot into an empty database. It fails if the
// database already contains tables, to prevent silent merging. The input
// is untrusted: anything other than a complete, checksummed v2 snapshot is
// an error (ErrSnapshotVersion when it is not this format at all) and
// leaves the database empty.
func (db *DB) ReadSnapshot(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.tables) != 0 {
		return fmt.Errorf("memdb: ReadSnapshot requires an empty database (%d tables present)", len(db.tables))
	}
	sr := &snapReader{
		r: r, crc: crc32.New(snapshotCRC), buf: make([]byte, snapshotChunk),
		dict: dict{ids: make(map[string]uint32)}, tables: make(map[string]*Table),
	}
	if err := sr.decode(); err != nil {
		if errors.Is(err, ErrSnapshotVersion) {
			return err
		}
		return fmt.Errorf("memdb: decode snapshot: %w", err)
	}
	db.dict, db.tables = sr.dict, sr.tables
	db.statsEpoch.Add(1)
	return nil
}

// decode reads one whole snapshot into sr.dict and sr.tables.
func (sr *snapReader) decode() error {
	hdr, err := sr.next(len(snapshotMagic) + 4)
	if err != nil {
		return err
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("%w: no %q magic", ErrSnapshotVersion, snapshotMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(snapshotMagic):]); v != snapshotVersion {
		return fmt.Errorf("%w: %d (have %d)", ErrSnapshotVersion, v, snapshotVersion)
	}

	nIDs, err := sr.u32()
	if err != nil {
		return err
	}
	if nIDs == noID {
		return errors.New("dictionary too large")
	}
	for id := uint32(0); id < nIDs; id++ {
		s, err := sr.str()
		if err != nil {
			return err
		}
		if _, dup := sr.dict.ids[s]; dup {
			return fmt.Errorf("dictionary repeats %q", s)
		}
		sr.dict.ids[s] = id
		sr.dict.strs = append(sr.dict.strs, s)
	}

	nTables, err := sr.u32()
	if err != nil {
		return err
	}
	for ; nTables > 0; nTables-- {
		t, err := sr.table()
		if err != nil {
			return err
		}
		if _, dup := sr.tables[t.name]; dup {
			return fmt.Errorf("table %s appears twice", t.name)
		}
		sr.tables[t.name] = t
	}

	sum := sr.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(sr.r, trailer[:]); err != nil {
		return fmt.Errorf("checksum trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != sum {
		return errors.New("checksum mismatch")
	}
	return nil
}

// table decodes one table and rebuilds its indexes.
func (sr *snapReader) table() (*Table, error) {
	name, err := sr.str()
	if err != nil {
		return nil, err
	}
	nCols, err := sr.u32()
	if err != nil {
		return nil, err
	}
	if nCols == 0 {
		return nil, fmt.Errorf("table %s has no columns", name)
	}
	var colNames []string
	seen := map[string]bool{}
	for ; nCols > 0; nCols-- {
		c, err := sr.str()
		if err != nil {
			return nil, err
		}
		if seen[c] {
			return nil, fmt.Errorf("table %s: duplicate column %s", name, c)
		}
		seen[c] = true
		colNames = append(colNames, c)
	}
	t := newTable(name, colNames)
	nRows, err := sr.u32()
	if err != nil {
		return nil, err
	}
	for c := range t.cols {
		if t.cols[c], err = sr.column(nRows); err != nil {
			return nil, fmt.Errorf("table %s: %w", name, err)
		}
	}
	t.planRows = int(nRows)
	nIndexed, err := sr.u32()
	if err != nil {
		return nil, err
	}
	for prev := -1; nIndexed > 0; nIndexed-- {
		col, err := sr.u32()
		if err != nil {
			return nil, err
		}
		if int(col) <= prev || int(col) >= len(t.cols) {
			return nil, fmt.Errorf("table %s: bad indexed column %d", name, col)
		}
		prev = int(col)
		t.buildIndex(int(col))
	}
	return t, nil
}

// SaveFile writes a snapshot to path atomically (write to a temp file in
// the same directory, then rename).
func (db *DB) SaveFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".memdb-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := db.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a snapshot from path into an empty database.
func (db *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.ReadSnapshot(bufio.NewReader(f))
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			if i == 0 {
				return "/"
			}
			return path[:i]
		}
	}
	return "."
}
