package main

import (
	"testing"
	"time"
)

func TestScheduleRoundsDownToTheTick(t *testing.T) {
	s := schedule{perSec: 5000}
	for j, want := range map[int]time.Duration{0: 0, 9: 0, 10: 2 * time.Millisecond, 19: 2 * time.Millisecond, 5000: time.Second} {
		if got := time.Duration(s.due(j)); got != want {
			t.Errorf("request %d due at %v, want %v", j, got, want)
		}
	}
	// 40 batches a second: one every 25 ms, on the tick below.
	b := schedule{perSec: 40}
	if got := time.Duration(b.due(1)); got != 24*time.Millisecond {
		t.Errorf("second batch due at %v, want 24ms", got)
	}
}

// On an idle box the pacer keeps a 5000 requests/s schedule (ten requests
// every 2 ms) to within the benchmark's own validity limit. The box running
// the tests may not be idle, so a late attempt is retried before it fails.
func TestPacerKeepsItsSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	sch := schedule{perSec: 5000}
	var p99 float64
	for attempt := 0; attempt < 3; attempt++ {
		rt, undo := realtime()
		clk := newClock()
		var lag hist
		start := clk.now() + int64(5*time.Millisecond)
		for j := 0; j < 2500; j += 10 { // half a second of ticks
			due := start + sch.due(j)
			lag.record(clk.waitUntil(due) - due)
		}
		undo()
		p99 = float64(lag.quantile(0.99)) / 1e3
		t.Logf("attempt %d: lag p50 %.0f us, p99 %.0f us, max %.0f us (real-time thread: %v)",
			attempt, float64(lag.quantile(0.5))/1e3, p99, float64(lag.max)/1e3, rt)
		if p99 < maxLagUS {
			return
		}
	}
	t.Errorf("pacer lag p99 = %.0f us, want < %d us", p99, maxLagUS)
}
