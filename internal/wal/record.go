// Package wal is the engine's durability subsystem: an append-only,
// length-prefixed and CRC-framed record log of the engine's externally
// visible transitions, paired with periodic checkpoints that embed a memdb
// snapshot and a compact engine-state record.
//
// # Log records
//
// The log records exactly the transitions a restarted engine needs to
// reproduce the pre-crash engine's observable state:
//
//   - Admit: a query entered the pending set with its engine-assigned ID
//     (owner, CHOOSE multiplicity, the query in the engine's exact binary
//     form, submission time). The package never interprets the query
//     bytes;
//   - Results: a batch of terminal outcomes (answered / unsafe / rejected /
//     stale). One evaluation's deliveries for a whole component are framed
//     as a SINGLE record, so a torn write can never persist half a
//     component's retirement — either every partner's outcome is durable or
//     none is, and recovery re-coordinates the component from scratch;
//   - DDL: a database script (schema/rows/indexes) registered through the
//     engine, replayed through memdb.ExecScript;
//   - Epoch: a family-migration epoch mark (informational; lets offline
//     tooling correlate the log with Stats' migration counter).
//
// # Deferred admits
//
// A log holds each admit record back until the next results record or
// commit — the group commit of Batch, the flush of Off, every append of
// Sync, an explicit sync, or close. A results record naming a held-back
// query drops its admit, and that result entry carries the Unlogged flag:
// the query resolved before its admission ever reached the log. Every
// other held-back admit is framed just ahead of the results record, so a
// durable outcome never precedes the admission of a query that could have
// shaped it (an unsafe verdict depends on pending queries it does not
// name). Recovery counts a flagged entry as terminal and raises the ID
// high-water mark past it, so the ID is never reused. Under Sync every
// append commits, so a log written through separate admit and results
// appends — the engine's — drops nothing, and written serially it is
// byte-identical to one written without deferral; under Batch and Off a
// dropped admit sat in the same in-process buffer that a crash would have
// lost anyway.
//
// Deferral moves an admit later than DDL and epoch records appended after
// it. Recovery replays the whole durable prefix into a pending set before
// re-submitting any of it, so that order does not matter.
//
// # Framing
//
// A log file opens with an 8-byte header, "D3CWAL" and a little-endian
// uint16 format version (2). Every record after it is framed as
//
//	uint32 payload length | uint32 CRC-32 (Castagnoli) of payload | payload
//
// in little-endian byte order. The payload itself is a one-byte record kind
// followed by uvarint/length-prefixed-string fields; a result entry's
// status byte carries the Unlogged flag in its high bit. A Reader checks
// the header, then consumes records until the clean end of the log or the
// first frame that fails validation (short header, implausible length,
// short payload, CRC mismatch, malformed payload); the latter is reported
// as ErrTorn and marks the durable prefix boundary — everything after a
// torn frame is unrecoverable by construction and discarded at the next
// checkpoint. A complete header with another version (or none: version 1
// logs had no header) is ErrLogVersion; there is no reader for older
// formats.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Kind discriminates log record payloads.
type Kind uint8

const (
	// KindAdmit — a query was admitted to the pending set.
	KindAdmit Kind = 1
	// KindResults — a batch of terminal outcomes delivered atomically.
	KindResults Kind = 2
	// KindDDL — a database script registered through the engine.
	KindDDL Kind = 3
	// KindEpoch — a family-migration epoch mark.
	KindEpoch Kind = 4
)

// Terminal status bytes carried by result records. The values are fixed by
// the on-disk format and mapped explicitly by the engine — they must never
// be renumbered.
const (
	StatusAnswered uint8 = 0
	StatusUnsafe   uint8 = 1
	StatusRejected uint8 = 2
	StatusStale    uint8 = 3

	// statusUnlogged is the on-disk flag bit for QueryResult.Unlogged.
	statusUnlogged uint8 = 0x80
)

// Admit is the payload of a KindAdmit record.
type Admit struct {
	ID                int64
	Choose            int
	Owner             string
	IR                string // the ORIGINAL query (pre-rename), encoded by the engine; opaque here
	SubmittedUnixNano int64
}

// QueryResult is one terminal outcome inside a KindResults record.
type QueryResult struct {
	ID     int64
	Status uint8 // StatusAnswered .. StatusStale
	Detail string
	Tuples []string // formatted answer atoms; non-empty only for answers
	// Unlogged marks a query whose admit record was dropped because the
	// query resolved before the admit was framed (see the package
	// comment). Set by the log when framing; callers leave it false.
	Unlogged bool
}

// Record is one log entry. Exactly one of the kind-specific fields is
// meaningful, selected by Kind.
type Record struct {
	Kind    Kind
	Admit   Admit         // KindAdmit
	Results []QueryResult // KindResults
	Script  string        // KindDDL
	Epoch   uint64        // KindEpoch
}

// AdmitRecord frames one admission. query is the caller's encoding of the
// query, stored and returned verbatim.
func AdmitRecord(id int64, choose int, owner, query string, submittedUnixNano int64) Record {
	return Record{Kind: KindAdmit, Admit: Admit{
		ID: id, Choose: choose, Owner: owner, IR: query, SubmittedUnixNano: submittedUnixNano,
	}}
}

// ResultsRecord frames a batch of terminal outcomes as one atomic record.
func ResultsRecord(rs []QueryResult) Record { return Record{Kind: KindResults, Results: rs} }

// DDLRecord frames a database script registration.
func DDLRecord(script string) Record { return Record{Kind: KindDDL, Script: script} }

// EpochRecord frames a family-migration epoch mark.
func EpochRecord(epoch uint64) Record { return Record{Kind: KindEpoch, Epoch: epoch} }

// ErrTorn marks the durable prefix boundary: the log ends in a frame that
// is incomplete or fails validation (torn write, corruption). Records
// before it are intact; nothing after it is recoverable.
var ErrTorn = errors.New("wal: torn or corrupt record")

// ErrLogVersion reports a log file written by another format version (or
// by version 1, which had no header); test with errors.Is.
var ErrLogVersion = errors.New("wal: unsupported log version")

const (
	// logHeader opens every log file: magic plus the uint16 format version.
	logHeader = "D3CWAL\x02\x00"
	// maxRecordSize bounds a single frame's payload; a length prefix beyond
	// it is treated as corruption.
	maxRecordSize = 1 << 28 // 256 MiB
	// readChunk is the unit a Reader grows a payload buffer by, so a forged
	// length costs a short read rather than an allocation of that size.
	readChunk = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFrame encodes r as one framed record appended to b. unlogged, when
// non-nil, has one element per result entry and flags those it marks.
func appendFrame(b []byte, r *Record, unlogged []bool) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	b = append(b, byte(r.Kind))
	switch r.Kind {
	case KindAdmit:
		b = appendUvarint(b, uint64(r.Admit.ID))
		b = appendUvarint(b, uint64(r.Admit.Choose))
		b = appendString(b, r.Admit.Owner)
		b = appendString(b, r.Admit.IR)
		b = appendUvarint(b, uint64(r.Admit.SubmittedUnixNano))
	case KindResults:
		b = appendUvarint(b, uint64(len(r.Results)))
		for i := range r.Results {
			qr := &r.Results[i]
			b = appendUvarint(b, uint64(qr.ID))
			st := qr.Status
			if qr.Unlogged || (unlogged != nil && unlogged[i]) {
				st |= statusUnlogged
			}
			b = append(b, st)
			b = appendString(b, qr.Detail)
			b = appendUvarint(b, uint64(len(qr.Tuples)))
			for _, t := range qr.Tuples {
				b = appendString(b, t)
			}
		}
	case KindDDL:
		b = appendString(b, r.Script)
	case KindEpoch:
		b = appendUvarint(b, r.Epoch)
	default:
		panic(fmt.Sprintf("wal: unknown record kind %d", r.Kind))
	}
	payload := b[start+8:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

// decoder is a bounds-checked cursor over one record payload.
type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.err = errors.New("wal: bad varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	c := d.b[d.pos]
	d.pos++
	return c
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.pos) < n {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// decodeRecord parses one validated payload.
func decodeRecord(payload []byte) (Record, error) {
	d := decoder{b: payload}
	var r Record
	r.Kind = Kind(d.byte())
	switch r.Kind {
	case KindAdmit:
		r.Admit.ID = int64(d.uvarint())
		r.Admit.Choose = int(d.uvarint())
		r.Admit.Owner = d.string()
		r.Admit.IR = d.string()
		r.Admit.SubmittedUnixNano = int64(d.uvarint())
	case KindResults:
		n := d.uvarint()
		if d.err == nil && n > uint64(len(payload)) {
			d.err = errors.New("wal: implausible result count")
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			var qr QueryResult
			qr.ID = int64(d.uvarint())
			st := d.byte()
			qr.Status, qr.Unlogged = st&^statusUnlogged, st&statusUnlogged != 0
			qr.Detail = d.string()
			nt := d.uvarint()
			if d.err == nil && nt > uint64(len(payload)) {
				d.err = errors.New("wal: implausible tuple count")
			}
			for j := uint64(0); j < nt && d.err == nil; j++ {
				qr.Tuples = append(qr.Tuples, d.string())
			}
			r.Results = append(r.Results, qr)
		}
	case KindDDL:
		r.Script = d.string()
	case KindEpoch:
		r.Epoch = d.uvarint()
	default:
		d.err = fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if d.pos != len(payload) {
		return Record{}, errors.New("wal: trailing bytes in record payload")
	}
	return r, nil
}

// Reader iterates a log stream's records. Next returns io.EOF at a clean
// end of log (an empty stream included) and an error wrapping ErrTorn at
// the first invalid frame or a short header; Offset reports the byte
// length of the valid prefix consumed so far, header included.
type Reader struct {
	br     *bufio.Reader
	off    int64
	opened bool   // the header has been read and checked
	buf    []byte // payload scratch, reused across records
}

// NewReader wraps a log file's contents for record iteration.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

// Offset returns the number of bytes of intact records read so far — the
// durable prefix boundary once Next has returned io.EOF or ErrTorn.
func (rd *Reader) Offset() int64 { return rd.off }

// Next returns the next record, io.EOF at the clean end of the stream, an
// error wrapping ErrTorn for a torn or corrupt tail, or one wrapping
// ErrLogVersion for a log in another format.
func (rd *Reader) Next() (Record, error) {
	if !rd.opened {
		var hdr [len(logHeader)]byte
		n, err := io.ReadFull(rd.br, hdr[:])
		if n == 0 && err == io.EOF {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, fmt.Errorf("%w: short log header", ErrTorn)
		}
		if string(hdr[:]) != logHeader {
			return Record{}, fmt.Errorf("%w: header %q (want %q)", ErrLogVersion, hdr[:], logHeader)
		}
		rd.opened = true
		rd.off = int64(len(logHeader))
	}
	var hdr [8]byte
	n, err := io.ReadFull(rd.br, hdr[:])
	if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("%w: short frame header", ErrTorn)
	}
	ln := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if ln == 0 || ln > maxRecordSize {
		return Record{}, fmt.Errorf("%w: implausible payload length %d", ErrTorn, ln)
	}
	payload, err := rd.readPayload(int(ln))
	if err != nil {
		return Record{}, fmt.Errorf("%w: short payload", ErrTorn)
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, fmt.Errorf("%w: CRC mismatch", ErrTorn)
	}
	r, err := decodeRecord(payload)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrTorn, err)
	}
	rd.off += int64(8 + ln)
	return r, nil
}

// readPayload reads ln bytes into the reused scratch, growing it at most
// readChunk beyond what has actually arrived.
func (rd *Reader) readPayload(ln int) ([]byte, error) {
	b := rd.buf[:0]
	for len(b) < ln {
		n := min(ln-len(b), readChunk)
		b = slices.Grow(b, n)
		k, err := io.ReadFull(rd.br, b[len(b):len(b)+n])
		b = b[:len(b)+k]
		if err != nil {
			return nil, err
		}
	}
	rd.buf = b
	return b, nil
}
