package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// spinSlack is how long before a deadline the pacer stops sleeping and spins.
// On the reference VM time.Sleep rounds up to the millisecond (it overshoots
// by 0.5–1.1 ms), while a raw nanosleep overshoots by 65–100 µs at the median
// and under 300 µs at p99; so the pacer sleeps in the kernel until spinSlack
// before the deadline and spins only the rest. A pacer that spun the whole
// tick would take one of the box's two cores away from the server.
const spinSlack = 300 * time.Microsecond

// clock reads monotonic nanoseconds since its base; every timestamp of a run
// comes from one clock so they subtract exactly.
type clock struct{ base time.Time }

func newClock() clock      { return clock{base: time.Now()} }
func (c clock) now() int64 { return int64(time.Since(c.base)) }

// waitUntil returns once the clock reads t or later, with the reading.
func (c clock) waitUntil(t int64) int64 {
	for {
		now := c.now()
		d := t - now
		if d <= 0 {
			return now
		}
		if d > int64(spinSlack) {
			ts := syscall.NsecToTimespec(d - int64(spinSlack))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
		}
	}
}

// tickLen is the burst period of the open loop: requests due inside one tick
// are written together at its start.
const tickLen = 2 * time.Millisecond

// schedule maps the j-th request of an open-loop phase to its due time, as an
// offset from the phase start rounded down to the tick.
type schedule struct {
	perSec float64 // requests per second
}

func (s schedule) due(j int) int64 {
	off := int64(float64(j) / s.perSec * 1e9)
	return off - off%int64(tickLen)
}

// realtime pins the calling goroutine to its OS thread and asks the kernel to
// schedule that thread SCHED_FIFO, so that the pacer runs the moment its sleep
// ends even when both cores are busy; the pacer sleeps most of every tick, so
// it takes nothing from the server that an ordinary thread would not. Without
// the privilege (CAP_SYS_NICE) the thread stays an ordinary one and ok is
// false. undo restores the previous state.
func realtime() (ok bool, undo func()) {
	runtime.LockOSThread()
	const schedOther, schedFIFO = 0, 1
	set := func(policy, prio int) bool {
		param := struct{ prio int32 }{int32(prio)}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
		return errno == 0
	}
	ok = set(schedFIFO, 1)
	return ok, func() {
		if ok {
			set(schedOther, 0)
		}
		runtime.UnlockOSThread()
	}
}
