package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/fault"
)

// Data-directory layout:
//
//	<dir>/checkpoint.d3c   latest durable checkpoint (engine state + memdb
//	                       snapshot), atomically replaced via tmp+rename
//	<dir>/wal-<E>.log      the record log for checkpoint epoch E; records
//	                       appended since that checkpoint
//
// A checkpoint bumps the epoch: it first creates the NEW epoch's empty log,
// then durably replaces checkpoint.d3c (which names the epoch it covers),
// and only then deletes older logs. Whatever instant a crash hits, the
// checkpoint on disk and the log it points at are a consistent pair — a
// crash between the steps merely leaves an unreferenced log file that the
// next checkpoint removes.

const (
	checkpointName    = "checkpoint.d3c"
	checkpointMagic   = "D3CCKPT1"
	checkpointVersion = 2
)

// ErrCheckpointVersion reports a checkpoint written by an incompatible
// format version (version 1 held pending queries as IR text); test with
// errors.Is.
var ErrCheckpointVersion = errors.New("wal: unsupported checkpoint version")

// ErrNoLog is returned by Append before the first checkpoint establishes
// an active log epoch.
var ErrNoLog = errors.New("wal: no active log (initial checkpoint required)")

// ErrPoisoned marks the fail-stop state: a write or fsync against the
// active epoch's log failed, so the epoch can no longer be trusted to hold
// what callers were told is durable. Every subsequent Append/Sync fails
// fast with this error (test with errors.Is) until a successful Checkpoint
// rotates to a fresh epoch — the checkpoint captures the full engine state
// from memory, superseding whatever tail the broken epoch lost.
var ErrPoisoned = errors.New("wal: epoch poisoned by append/fsync failure (checkpoint to clear)")

// PendingQuery is one not-yet-resolved admission, as persisted in a
// checkpoint and as reconstructed by Recover. IR is the original query in
// the engine's encoding (the admit record's bytes, verbatim); decoding and
// re-submitting it through the normal admission path rebuilds graph,
// component index and router state by construction.
type PendingQuery struct {
	ID                int64
	Choose            int
	Owner             string
	IR                string
	SubmittedUnixNano int64
}

// Counters are the delivered-result high-water marks persisted in a
// checkpoint: totals of terminally resolved queries by status.
type Counters struct {
	Answered int64
	Unsafe   int64
	Rejected int64
	Stale    int64
}

// CheckpointState is the compact engine-state record of a checkpoint. The
// memdb snapshot is stored alongside it in the same file.
type CheckpointState struct {
	Version  int
	WALEpoch uint64
	NextID   int64 // highest engine-assigned query ID
	Counters Counters
	Pending  []PendingQuery // in ascending ID (= admission) order
}

// Recovered is what Recover reconstructs from the checkpoint plus the
// durable log prefix: the state the engine needs to resume as if it had
// never crashed.
type Recovered struct {
	NextID   int64
	Counters Counters
	Pending  []PendingQuery // ascending ID order
	Replayed int            // log records replayed
	Torn     bool           // the log ended in a torn/corrupt frame
}

// DirStats is a snapshot of the durability counters.
type DirStats struct {
	Records        int64
	Bytes          int64
	Fsyncs         int64
	Checkpoints    int64
	Poisoned       bool      // fail-stop: the active epoch saw an I/O failure
	LastCheckpoint time.Time // zero until the first checkpoint this process
}

// SnapshotDB is the slice of memdb.DB the checkpoint reader/writer needs;
// it keeps this package importable from both the engine and offline tools.
type SnapshotDB interface {
	WriteSnapshot(w io.Writer) error
	ReadSnapshot(r io.Reader) error
	ExecScript(script string) error
}

// Dir manages one data directory: the active epoch's log plus checkpoint
// rotation. Appends may run concurrently with each other; Checkpoint must
// be externally excluded from appends (the engine holds its lifecycle
// write lock), though a stale in-flight append is still safe — it lands in
// the pre-rotation log, which the new checkpoint already covers.
type Dir struct {
	path     string
	policy   Policy
	interval time.Duration
	fs       fault.FS
	c        counters

	mu    sync.RWMutex // guards log/epoch rotation
	log   *log         // nil until the first checkpoint
	epoch uint64

	poisoned    atomic.Bool // see ErrPoisoned
	checkpoints atomic.Int64
	lastCkpt    atomic.Int64 // unix nanos of the last successful checkpoint
}

// OpenDir prepares a data directory for recovery and appending.
// flushInterval is the Off/Batch background cadence (default 2ms).
func OpenDir(path string, policy Policy, flushInterval time.Duration) (*Dir, error) {
	return OpenDirFS(path, policy, flushInterval, nil)
}

// OpenDirFS is OpenDir with the filesystem made explicit so tests can
// thread a fault-injected FS under every log and checkpoint write. A nil fs
// uses the real OS filesystem.
func OpenDirFS(path string, policy Policy, flushInterval time.Duration, fs fault.FS) (*Dir, error) {
	if flushInterval <= 0 {
		flushInterval = 2 * time.Millisecond
	}
	if fs == nil {
		fs = fault.OS{}
	}
	if err := fs.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Dir{path: path, policy: policy, interval: flushInterval, fs: fs}, nil
}

// Policy returns the configured fsync policy.
func (d *Dir) Policy() Policy { return d.policy }

func (d *Dir) walPath(epoch uint64) string {
	return filepath.Join(d.path, fmt.Sprintf("wal-%d.log", epoch))
}

// Recover loads the latest checkpoint (if any) into db and replays the
// durable prefix of its log: DDL records re-execute against db, admissions
// accumulate into the pending set, result records retire their queries and
// advance the counters (an Unlogged entry counts and raises NextID without
// a pending admission to retire). A checkpoint or log in another format
// version fails with ErrCheckpointVersion or ErrLogVersion. It does NOT
// open a log for appending — the caller must take an initial Checkpoint
// before the first Append, which also truncates any torn tail by rotating
// to a fresh epoch.
func (d *Dir) Recover(db SnapshotDB) (*Recovered, error) {
	var st CheckpointState
	ckptPath := filepath.Join(d.path, checkpointName)
	if _, err := d.fs.Stat(ckptPath); err == nil {
		if st, err = readCheckpoint(d.fs, ckptPath, db); err != nil {
			return nil, err
		}
		d.epoch = st.WALEpoch
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := d.fs.Open(d.walPath(d.epoch))
	if errors.Is(err, os.ErrNotExist) {
		return replay(st, bytes.NewReader(nil), db)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	return replay(st, f, db)
}

// replay rebuilds what the checkpoint state st plus the durable prefix of
// log describe; db already holds the checkpoint's snapshot.
func replay(st CheckpointState, log io.Reader, db SnapshotDB) (*Recovered, error) {
	rec := &Recovered{NextID: st.NextID, Counters: st.Counters}
	pending := make(map[int64]PendingQuery, len(st.Pending))
	for _, p := range st.Pending {
		pending[p.ID] = p
	}
	rd := NewReader(log)
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrTorn) {
			rec.Torn = true
			break
		}
		if err != nil {
			return nil, err
		}
		rec.Replayed++
		switch r.Kind {
		case KindAdmit:
			pending[r.Admit.ID] = PendingQuery{
				ID: r.Admit.ID, Choose: r.Admit.Choose, Owner: r.Admit.Owner,
				IR: r.Admit.IR, SubmittedUnixNano: r.Admit.SubmittedUnixNano,
			}
			rec.NextID = max(rec.NextID, r.Admit.ID)
		case KindResults:
			for _, qr := range r.Results {
				if _, ok := pending[qr.ID]; !ok && !qr.Unlogged {
					continue // duplicate delivery record; replay is idempotent
				}
				delete(pending, qr.ID)
				rec.NextID = max(rec.NextID, qr.ID)
				switch qr.Status {
				case StatusAnswered:
					rec.Counters.Answered++
				case StatusUnsafe:
					rec.Counters.Unsafe++
				case StatusRejected:
					rec.Counters.Rejected++
				case StatusStale:
					rec.Counters.Stale++
				}
			}
		case KindDDL:
			// The original execution may itself have failed partway (the
			// error went to the original caller); replay re-applies the
			// same statements to the same database state and fails at the
			// same point, so the error is dropped here exactly as the
			// pre-crash engine kept running past it.
			_ = db.ExecScript(r.Script)
		case KindEpoch:
			// Informational migration mark; nothing to rebuild (families
			// re-form when the pending set is re-submitted).
		}
	}
	rec.Pending = make([]PendingQuery, 0, len(pending))
	for _, p := range pending {
		rec.Pending = append(rec.Pending, p)
	}
	sort.Slice(rec.Pending, func(i, j int) bool { return rec.Pending[i].ID < rec.Pending[j].ID })
	return rec, nil
}

// Checkpoint durably writes st plus a snapshot of db, rotates the log to a
// new epoch, and removes logs from older epochs. The caller must exclude
// concurrent Appends (the engine checkpoints under its lifecycle write
// lock, which quiesces all operations).
func (d *Dir) Checkpoint(st CheckpointState, db SnapshotDB) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	newEpoch := d.epoch + 1
	st.Version = checkpointVersion
	st.WALEpoch = newEpoch

	// 1. Create the new epoch's empty log first: once the checkpoint below
	// lands, its named log must exist.
	nf, err := d.fs.OpenFile(d.walPath(newEpoch), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}

	// 2. Durably replace the checkpoint via tmp + fsync + rename.
	tmp := filepath.Join(d.path, checkpointName+".tmp")
	if err := writeCheckpoint(d.fs, tmp, st, db); err != nil {
		nf.Close()
		d.fs.Remove(d.walPath(newEpoch))
		return err
	}
	if err := d.fs.Rename(tmp, filepath.Join(d.path, checkpointName)); err != nil {
		nf.Close()
		d.fs.Remove(d.walPath(newEpoch))
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(d.fs, d.path)

	// 3. Swap the active log and drop superseded epochs. The old epoch's
	// close error (if any) is irrelevant by construction: the checkpoint
	// that just landed supersedes everything that log held, which is also
	// why a successful rotation clears the fail-stop poison.
	old := d.log
	d.log = newLog(nf, d.policy, d.interval, &d.c)
	d.epoch = newEpoch
	if old != nil {
		old.close()
	}
	if matches, err := d.fs.Glob(filepath.Join(d.path, "wal-*.log")); err == nil {
		for _, m := range matches {
			if m != d.walPath(newEpoch) {
				d.fs.Remove(m)
			}
		}
	}
	d.poisoned.Store(false)
	d.checkpoints.Add(1)
	d.lastCkpt.Store(time.Now().UnixNano())
	return nil
}

// Append writes records to the active epoch's log under the configured
// durability policy. Fails with ErrNoLog before the first Checkpoint, and
// fails fast with ErrPoisoned once the epoch has seen an I/O failure.
func (d *Dir) Append(recs ...Record) error {
	d.mu.RLock()
	l := d.log
	d.mu.RUnlock()
	if l == nil {
		return ErrNoLog
	}
	if d.poisoned.Load() {
		return ErrPoisoned
	}
	return d.poison(l.append(recs...))
}

// Sync forces everything appended so far to stable storage, regardless of
// policy. No-op before the first checkpoint.
func (d *Dir) Sync() error {
	d.mu.RLock()
	l := d.log
	d.mu.RUnlock()
	if l == nil {
		return nil
	}
	if d.poisoned.Load() {
		return ErrPoisoned
	}
	return d.poison(l.sync())
}

// poison converts a log-level I/O failure into the sticky fail-stop state.
// A closed log is a normal lifecycle outcome, not a fault.
func (d *Dir) poison(err error) error {
	if err == nil || errors.Is(err, ErrLogClosed) {
		return err
	}
	d.poisoned.Store(true)
	return fmt.Errorf("%w: %v", ErrPoisoned, err)
}

// Poisoned reports whether the active epoch is in the fail-stop state.
func (d *Dir) Poisoned() bool { return d.poisoned.Load() }

// Stats snapshots the durability counters.
func (d *Dir) Stats() DirStats {
	st := DirStats{
		Records:     d.c.records.Load(),
		Bytes:       d.c.bytes.Load(),
		Fsyncs:      d.c.fsyncs.Load(),
		Checkpoints: d.checkpoints.Load(),
		Poisoned:    d.poisoned.Load(),
	}
	if ns := d.lastCkpt.Load(); ns != 0 {
		st.LastCheckpoint = time.Unix(0, ns)
	}
	return st
}

// Close flushes, fsyncs and closes the active log.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return nil
	}
	err := d.log.close()
	d.log = nil
	return err
}

// writeCheckpoint writes magic | framed gob(state) | memdb snapshot to
// path and fsyncs it.
func writeCheckpoint(fs fault.FS, path string, st CheckpointState, db SnapshotDB) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var stateBuf []byte
	{
		var enc gobBuffer
		if err := gob.NewEncoder(&enc).Encode(&st); err != nil {
			return fmt.Errorf("wal: encode checkpoint state: %w", err)
		}
		stateBuf = enc.b
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(stateBuf)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(stateBuf, crcTable))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := bw.Write(stateBuf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := db.WriteSnapshot(bw); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// readCheckpoint loads a checkpoint file: the engine-state record is
// validated (magic, CRC, version) and the embedded snapshot is read into
// db, which must be empty.
func readCheckpoint(fs fault.FS, path string, db SnapshotDB) (CheckpointState, error) {
	var st CheckpointState
	f, err := fs.Open(path)
	if err != nil {
		return st, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != checkpointMagic {
		return st, fmt.Errorf("wal: %s is not a checkpoint file", path)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return st, fmt.Errorf("wal: corrupt checkpoint: %w", err)
	}
	ln := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if ln > maxRecordSize {
		return st, errors.New("wal: corrupt checkpoint: implausible state length")
	}
	stateBuf := make([]byte, ln)
	if _, err := io.ReadFull(br, stateBuf); err != nil {
		return st, fmt.Errorf("wal: corrupt checkpoint: %w", err)
	}
	if crc32.Checksum(stateBuf, crcTable) != crc {
		return st, errors.New("wal: corrupt checkpoint: state CRC mismatch")
	}
	if err := gob.NewDecoder(byteReaderFrom(stateBuf)).Decode(&st); err != nil {
		return st, fmt.Errorf("wal: corrupt checkpoint: %w", err)
	}
	if st.Version != checkpointVersion {
		return st, fmt.Errorf("%w: %d (have %d)", ErrCheckpointVersion, st.Version, checkpointVersion)
	}
	if err := db.ReadSnapshot(br); err != nil {
		return st, fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	return st, nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Best
// effort: some platforms/filesystems reject directory fsync.
func syncDir(fs fault.FS, path string) {
	if df, err := fs.Open(path); err == nil {
		_ = df.Sync()
		df.Close()
	}
}

// gobBuffer is a minimal io.Writer over a byte slice (avoids bytes.Buffer's
// extra bookkeeping for this one-shot use; also keeps imports tight).
type gobBuffer struct{ b []byte }

func (g *gobBuffer) Write(p []byte) (int, error) { g.b = append(g.b, p...); return len(p), nil }

type sliceReader struct {
	b   []byte
	pos int
}

func byteReaderFrom(b []byte) *sliceReader { return &sliceReader{b: b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.pos:])
	r.pos += n
	return n, nil
}
