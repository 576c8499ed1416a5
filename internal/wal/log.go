package wal

import (
	"bufio"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/fault"
)

// Policy selects how aggressively the log is forced to stable storage.
type Policy int

const (
	// Off buffers appends in memory and flushes them to the OS on a
	// background cadence, never calling fsync. A process crash loses at
	// most the unflushed tail; an OS crash can lose anything since the
	// last checkpoint (checkpoints are always fsynced).
	Off Policy = iota
	// Batch flushes AND fsyncs on the background cadence: bounded-loss
	// group commit, amortising one fsync over every append in the window.
	Batch
	// Sync fsyncs before each Append returns, with group commit —
	// concurrent appenders share one fsync (the leader syncs, followers
	// wait on it), so the per-append cost amortises under load exactly the
	// way SubmitBatch amortises locks.
	Sync
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
	case Batch:
		return "batch"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the flag spellings ("off", "batch", "sync",
// case-insensitive) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "off":
		return Off, nil
	case "batch":
		return Batch, nil
	case "sync":
		return Sync, nil
	default:
		return Off, fmt.Errorf("wal: unknown durability policy %q (want off, batch or sync)", s)
	}
}

// ErrLogClosed is returned by appends to a closed log.
var ErrLogClosed = errors.New("wal: log closed")

// counters aggregates append/fsync figures across log rotations; the Dir
// owns one instance shared by every epoch's log.
type counters struct {
	records atomic.Int64
	bytes   atomic.Int64
	fsyncs  atomic.Int64
}

// log is one epoch's append-only record file. Appends are framed into a
// buffered writer under the log mutex, except admits, which wait in the
// deferred list for the next results record or commit (see the package
// comment); durability is driven by the policy (see Policy). A background
// flusher services the Off and Batch cadences; Sync appends drive group
// commit inline.
type log struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast when a group commit completes
	f      fault.File
	bw     *bufio.Writer
	policy Policy
	c      *counters
	buf    []byte // reusable frame-encode buffer, guarded by mu
	// deferred holds the admits appended since the last results record or
	// commit, in append order; deferredAt indexes them by query ID. A
	// dropped admit keeps its slot with Kind zeroed.
	deferred   []Record
	deferredAt map[int64]int
	unlogged   []bool // per results entry: its admit was dropped; scratch
	writeSeq   int64  // bumped once per Append call
	syncSeq    int64  // highest writeSeq known flushed (Off) / fsynced (Batch, Sync)
	syncing    bool   // a group commit is in flight (mu released around fsync)
	err        error  // sticky first write/sync error
	closed     bool
	stop       chan struct{} // closes the background flusher, nil for Sync
	done       chan struct{}
}

func newLog(f fault.File, policy Policy, interval time.Duration, c *counters) *log {
	l := &log{f: f, bw: bufio.NewWriterSize(f, 1<<16), policy: policy, c: c, deferredAt: make(map[int64]int)}
	l.cond = sync.NewCond(&l.mu)
	l.bw.WriteString(logHeader) // cannot fail: the buffer is empty
	if policy != Sync {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher(interval)
	}
	return l
}

// append frames and writes recs, holding admits back. Under Sync it
// returns only once every frame is fsynced; otherwise the background
// flusher picks them up.
func (l *log) append(recs ...Record) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	for i := range recs {
		if recs[i].Kind == KindAdmit {
			l.deferredAt[recs[i].Admit.ID] = len(l.deferred)
			l.deferred = append(l.deferred, recs[i])
			continue
		}
		if err := l.frame(&recs[i]); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	l.writeSeq++
	seq := l.writeSeq
	if l.policy != Sync {
		l.mu.Unlock()
		return nil
	}
	return l.commitLocked(seq) // releases l.mu
}

// frame writes one record into the buffer. A results record settles the
// deferred admits first: the ones it names are dropped and their entries
// flagged Unlogged, and every other one is framed ahead of it, so a durable
// outcome never precedes the admission of a query that could have shaped
// it (an unsafe verdict depends on pending queries it does not name).
// Caller holds l.mu.
func (l *log) frame(r *Record) error {
	var unlogged []bool
	if r.Kind == KindResults && len(l.deferred) > 0 {
		unlogged = slices.Grow(l.unlogged[:0], len(r.Results))[:len(r.Results)]
		for i := range r.Results {
			j, ok := l.deferredAt[r.Results[i].ID]
			if ok {
				delete(l.deferredAt, r.Results[i].ID)
				l.deferred[j].Kind = 0
			}
			unlogged[i] = ok
		}
		l.unlogged = unlogged
		if err := l.frameDeferred(); err != nil {
			return err
		}
	}
	l.buf = appendFrame(l.buf[:0], r, unlogged)
	if _, err := l.bw.Write(l.buf); err != nil {
		l.err = err
		return err
	}
	l.c.records.Add(1)
	l.c.bytes.Add(int64(len(l.buf)))
	return nil
}

// frameDeferred writes the surviving deferred admits ahead of a results
// record or a commit. Caller holds l.mu.
func (l *log) frameDeferred() error {
	var err error
	for i := range l.deferred {
		r := &l.deferred[i]
		if r.Kind == 0 {
			continue
		}
		// Delete entry by entry: clear would walk every bucket the map
		// ever grew, on every results record.
		delete(l.deferredAt, r.Admit.ID)
		if err == nil {
			err = l.frame(r)
		}
	}
	clear(l.deferred)
	l.deferred = l.deferred[:0]
	return err
}

// commitLocked drives group commit until seq is durable: the first caller
// to find no commit in flight becomes leader, flushes the buffer, releases
// the mutex around the fsync, and wakes the followers — who either find
// their seq covered or take the next leadership turn. Called with l.mu
// held; always releases it.
func (l *log) commitLocked(seq int64) error {
	for l.syncSeq < seq {
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		target := l.writeSeq
		err := l.frameDeferred()
		if err == nil {
			err = l.bw.Flush()
		}
		l.mu.Unlock()
		if err == nil {
			err = l.f.Sync()
			l.c.fsyncs.Add(1)
		}
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.err = err
		} else if target > l.syncSeq {
			l.syncSeq = target
		}
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	return nil
}

// sync makes everything appended so far durable, regardless of policy.
func (l *log) sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if l.writeSeq == 0 {
		l.mu.Unlock()
		return nil
	}
	// Under Off the flusher advances syncSeq on flush alone, so force a
	// real fsync turn by targeting past any recorded progress.
	seq := l.writeSeq
	if l.policy == Off {
		l.syncSeq = 0
	}
	return l.commitLocked(seq)
}

// flusher services the Off/Batch background cadence.
func (l *log) flusher(interval time.Duration) {
	defer close(l.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.flushTick()
		}
	}
}

func (l *log) flushTick() {
	l.mu.Lock()
	if l.closed || l.err != nil || l.writeSeq <= l.syncSeq {
		l.mu.Unlock()
		return
	}
	if l.policy == Batch {
		_ = l.commitLocked(l.writeSeq) // releases l.mu
		return
	}
	// Off: flush to the OS only.
	if err := l.frameDeferred(); err != nil {
		l.err = err
	} else if err := l.bw.Flush(); err != nil {
		l.err = err
	} else {
		l.syncSeq = l.writeSeq
	}
	l.mu.Unlock()
}

// close flushes, fsyncs and closes the file. Safe to call once.
func (l *log) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.syncing {
		l.cond.Wait()
	}
	ferr := l.frameDeferred()
	if ferr == nil {
		ferr = l.bw.Flush()
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	serr := l.f.Sync()
	l.c.fsyncs.Add(1)
	cerr := l.f.Close()
	for _, err := range []error{ferr, serr, cerr} {
		if err != nil {
			return err
		}
	}
	return nil
}
