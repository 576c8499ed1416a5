package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"entangle/internal/engine"
	"entangle/internal/workload"
)

// runConfig is one run of one workload.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64 // measured time: 2/3 open loop, 1/3 saturation
	warm    time.Duration
	users   int
	nconn   int
	d3cd    string // empty serves in-process
	workdir string
	setups  int  // how many times set-up is measured (the last server is used)
	trace   bool // also replay the stream in-process with spans
	spans   string
	// traced and roundTrips bound the replay: queries covered, and requests
	// sent one at a time through the in-process server.
	traced, roundTrips int
	// smoke marks a run that only checks the harness: pacing is not judged.
	smoke bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run found out.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  failures
	missing   int
	invalid   string // non-empty: why the latency numbers cannot be trusted
	e2e       map[string]metric
	layer     map[string]metric
	notes     []string
}

func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// A burst written more than maxLagUS microseconds after it was due counts as
// late, and a run in which more than maxLateFrac of the bursts were late is
// invalid: its requests arrived bunched, so its medians describe another
// arrival process. The limit is on the share of late bursts, not on the p99
// of the lag, because one 50 ms pause of the VM makes the next 25 bursts late
// and two of them would fail a p99 limit while leaving every median alone.
const (
	maxLagUS    = 250
	maxLateFrac = 0.05
)

// snapshot is the server's counters and both processes' CPU time at one
// instant, with how many queries had been sent by then.
type snapshot struct {
	at    int64
	cpu   time.Duration // the server's
	self  time.Duration // the generator's
	stats engine.Stats
	sentQ int
}

// session is one run in progress: the server under test, the connections to
// it, and what the phases measured.
type session struct {
	cfg       runConfig
	rep       *report
	st        *stream
	open, sat time.Duration // lengths of the measured and the saturation phase

	tcfg  targetConfig
	tgt   *target
	ctl   *control
	clk   clock
	ld    *load
	conns []*loadConn // the load connections, then the epilogue's

	s0, s1, end snapshot // measured phase begins, ends; everything has drained
	peakRSS     int64
	pk          peaks
	ckpts       []interval
	epi         epilogue
}

// run executes one workload end to end and returns its report.
func run(ctx context.Context, cfg runConfig) (*report, error) {
	s := &session{cfg: cfg, rep: &report{workload: cfg.spec.name, e2e: map[string]metric{}, layer: map[string]metric{}}}
	sp := cfg.spec
	s.open = time.Duration(cfg.seconds * 2 / 3 * float64(time.Second))
	s.sat = time.Duration(cfg.seconds*float64(time.Second)) - s.open

	g := workload.NewGraph(workload.Config{N: cfg.users, Seed: dataSeed})
	nTimed := int(sp.rate*(cfg.warm+s.open).Seconds()) + int(sp.satQPS/float64(sp.batch)*s.sat.Seconds()) + 1
	var err error
	if s.st, err = buildStream(sp, g, cfg.seed, cfg.nconn, nTimed); err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.setUp(ctx); err != nil {
		return nil, err
	}
	restore := quietRuntime(cfg.nconn)
	defer restore()
	if err := s.drive(ctx); err != nil {
		return nil, err
	}
	sentQ, outcomes := s.tally()
	s.outsideIn(sentQ, outcomes)
	s.endToEnd(sentQ)

	if cfg.trace {
		restore()
		s.close() // the replay should have the machine to itself
		// ... and a heap without the part of the stream it does not replay.
		s.ld = nil
		for i := cfg.traced; i < len(s.st.queries); i++ {
			s.st.queries[i].frag = nil
		}
		runtime.GC()
		if err := traceRun(s.st, cfg, s.rep); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return s.rep, nil
}

// quietRuntime prepares the generator's runtime for driving load and returns
// the function that undoes it. While it drives load the generator does not
// collect: its heap is a few hundred MB of pre-rendered requests, a collection
// of which would steal CPU from the server and stall the pacer at random. What
// the readers allocate in one run is bounded (one reply at a time), and the
// memory limit turns collection back on long before memory could run out. It
// also runs with more Ps than load connections, so that the pacer finds one
// free the moment its kernel sleep returns instead of queueing behind a busy
// reader.
func quietRuntime(nconn int) (restore func()) {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	memLimit := debug.SetMemoryLimit(4 << 30)
	procs := runtime.GOMAXPROCS(nconn + 2)
	var once sync.Once
	return func() {
		once.Do(func() {
			debug.SetGCPercent(gcPercent)
			debug.SetMemoryLimit(memLimit)
			runtime.GOMAXPROCS(procs)
		})
	}
}

// close stops whatever of the session is still running; it may be called
// more than once.
func (s *session) close() {
	for _, c := range s.conns {
		c.close()
	}
	if s.ctl != nil {
		s.ctl.close()
	}
	if s.tgt != nil {
		s.tgt.stop()
	}
	if s.tcfg.dataDir != "" {
		os.RemoveAll(s.tcfg.dataDir)
	}
}

// setUp starts the server — several times, reporting the median set-up time
// and keeping the last one — and connects to it.
func (s *session) setUp(ctx context.Context) error {
	cfg, sp := s.cfg, s.cfg.spec
	s.tcfg = targetConfig{d3cd: cfg.d3cd, users: cfg.users, stale: sp.stale}
	if cfg.workdir != "" {
		s.tcfg.logFile = filepath.Join(cfg.workdir, "d3cd-"+sp.name+".log")
	}
	if sp.durable {
		dir, err := os.MkdirTemp(cfg.workdir, "data-")
		if err != nil {
			return err
		}
		s.tcfg.dataDir = dir
	}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s.tgt != nil {
			s.tgt.stop()
			if sp.durable {
				// A fresh set-up starts from an empty data directory.
				if err := clearDir(s.tcfg.dataDir); err != nil {
					return err
				}
			}
		}
		var d time.Duration
		var err error
		if s.tgt, d, err = startTarget(ctx, s.tcfg); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	setup, _ := medianIQR(setups)
	s.rep.e2e["setup_s"] = metric{setup, "s"}

	var err error
	if s.ctl, err = dialControl(s.tgt.addr); err != nil {
		return err
	}
	s.clk = newClock()
	s.ld = newLoad(s.st, s.clk, len(s.st.queries)+16)
	if sp.stale > 0 {
		// A sweep runs every tick and expires what is older than -stale, so
		// a query is at most one tick late; the second tick and a second of
		// slack cover a sweep queued behind the saturation phase's load.
		s.ld.staleBound = int64(sp.stale + 2*flushInterval + time.Second)
	}
	for i := 0; i < cfg.nconn; i++ {
		c, err := s.ld.dial(s.tgt.addr, false)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	return nil
}

func (s *session) snap(sentQ int) (snapshot, error) {
	sn := snapshot{at: s.clk.now(), sentQ: sentQ}
	var err error
	if sn.stats, err = s.ctl.stats(); err != nil {
		return sn, err
	}
	if sn.cpu, err = procCPU(s.tgt.pid); err != nil {
		return sn, err
	}
	sn.self, err = procCPU(0)
	return sn, err
}

// drive takes the server through the phases of a run: warm-up, the measured
// open loop, saturation, the completion of every opened group, the drain, and
// a durable workload's crash epilogue.
func (s *session) drive(ctx context.Context) error {
	cfg, sp, st, ld, clk, rep := s.cfg, s.cfg.spec, s.st, s.ld, s.clk, s.rep

	// The timeline is fixed before the first request: warm-up, then the
	// measured phase in equal windows.
	sch := schedule{perSec: sp.rate}
	nWarm := int(sp.rate * cfg.warm.Seconds())
	nOpen := int(sp.rate * s.open.Seconds())
	t0 := clk.now() + int64(20*time.Millisecond)
	ld.openStart = t0 + sch.due(nWarm)
	ld.winLen = int64(s.open) / windows

	// Peaks are polled on a second control connection while the load runs.
	stopPeaks := s.pk.poll(s.tgt.addr)
	defer stopPeaks()

	// A durable workload checkpoints once per window, a quarter in.
	var ckptWG sync.WaitGroup
	if sp.durable {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			cc, err := dialControl(s.tgt.addr)
			if err != nil {
				return
			}
			defer cc.close()
			for w := 0; w < windows; w++ {
				// Sleeping, not spinning: this goroutine must not compete
				// with the pacer for a core.
				time.Sleep(time.Duration(ld.openStart + int64(w)*ld.winLen + ld.winLen/4 - clk.now()))
				iv := interval{from: clk.now()}
				if cc.checkpoint() != nil {
					return
				}
				iv.to = clk.now()
				s.ckpts = append(s.ckpts, iv)
			}
		}()
	}

	// Warm-up: fills lazily built column indexes and the plan cache.
	if err := ld.openLoop(s.conns, sch, t0, 0, nWarm); err != nil {
		return err
	}
	var err error
	if s.s0, err = s.snap(int(st.sends[nWarm].first)); err != nil {
		return err
	}
	if err := ld.openLoop(s.conns, sch, ld.openStart, nWarm, nWarm+nOpen); err != nil {
		return err
	}
	next := nWarm + nOpen
	if s.s1, err = s.snap(int(st.sends[next].first)); err != nil {
		return err
	}
	// Peak memory is read here, at the fixed rate: what the saturation phase
	// adds depends on how far it gets.
	if s.peakRSS, err = procPeakRSS(s.tgt.pid); err != nil {
		return err
	}
	ckptWG.Wait()
	if !settle(s.conns, false, drainTimeout) {
		rep.note("requests of the open loop were still unacknowledged %v after it ended", drainTimeout)
	}

	// Saturation: as fast as acks allow.
	satFrom := clk.now()
	ld.satStart.Store(satFrom)
	ld.satEnd.Store(satFrom + int64(s.sat))
	limit := max(1, satWindow/sp.batch)
	next, err = ld.ackClocked(s.conns, next, len(st.sends), limit, satFrom+int64(s.sat))
	if err != nil {
		return err
	}
	last := st.sends[len(st.sends)-1]
	cut := last.first + last.n // the first query the timed phases did not send
	if next < len(st.sends) {
		cut = st.sends[next].first
	} else {
		rep.note("the saturation phase used up the pre-rendered stream after %.1fs; raise satQPS", float64(clk.now()-satFrom)/1e9)
	}

	// Complete every group that was opened, then wait for all results.
	from, to := ld.tail(cut, cfg.nconn)
	if _, err := ld.ackClocked(s.conns, from, to, limit, 0); err != nil {
		return err
	}
	wait := drainTimeout + sp.stale
	if !settle(s.conns, true, wait) {
		rep.note("results were still missing %v after the last request", wait)
	}
	if s.end, err = s.snap(0); err != nil {
		return err
	}
	stopPeaks()
	if sp.durable {
		return s.crashAndRecover(ctx)
	}
	return nil
}

// tally closes the connections and adds up what their readers recorded:
// failures by kind, queries without a result, and the outcomes received.
func (s *session) tally() (sentQ int, outcomes map[string]int) {
	rep, ld := s.rep, s.ld
	outcomes = map[string]int{}
	for _, c := range s.conns {
		c.close()
		rep.failures.add(c.failures)
		for k, v := range c.outcomes {
			outcomes[k] += v
		}
		if c.readErr != nil {
			rep.note("connection lost: %v", c.readErr)
		}
	}
	for q, sent := range ld.sent {
		if !sent {
			continue
		}
		sentQ++
		want := uint8(1)
		if s.epi.lost(int32(q)) {
			want = 0 // its connection died with the server; nobody can receive it
		}
		if ld.results[q] < want {
			rep.missing++
			// What never came misses every latency limit. (The windows'
			// histograms are merged over the connections, so any one takes it.)
			c, qi := s.conns[0], &s.st.queries[q]
			if w := ld.window(ld.ref[q].Load()); w >= 0 && ld.ackAt[q] == 0 {
				c.ack[w].record(int64(drainTimeout))
			}
			if qi.closer >= 0 {
				if w := ld.window(ld.ref[qi.closer].Load()); w >= 0 {
					c.coord[w].record(int64(drainTimeout))
				}
			}
		}
	}
	rep.attempted = sentQ
	// Pending queries the restart lost or made up are failures like any other.
	rep.failed = rep.failures.total() + rep.missing + s.epi.pendingOff

	// The server's own outcome counts must agree with what the clients saw.
	// (After a crash the recovered server counts the lost openers too.)
	if !s.cfg.spec.durable {
		st := s.end.stats
		for status, got := range map[string]int{
			wantAnswered: st.Answered, wantRejected: st.Rejected,
			"unsafe": st.RejectedUnsafe, wantStale: st.ExpiredStale,
		} {
			if got != outcomes[status] {
				rep.note("server counts %d %s, clients received %d", got, status, outcomes[status])
				rep.failed += abs(got - outcomes[status])
			}
		}
	}
	return sentQ, outcomes
}

// endToEnd fills in the end-to-end metrics.
func (s *session) endToEnd(sentQ int) {
	rep, sp, s0, s1 := s.rep, s.cfg.spec, s.s0, s.s1

	dq := float64(s1.sentQ - s0.sentQ)
	pickAck := func(c *loadConn) *[windows]hist { return &c.ack }
	pickCoord := func(c *loadConn) *[windows]hist { return &c.coord }
	main := s.conns[:s.cfg.nconn]
	coord50 := windowQuantile(main, pickCoord, 0.5)
	ack50 := windowQuantile(main, pickAck, 0.5)
	rep.e2e["coord_p50_ms"] = metric{coord50.median, "ms"}
	rep.e2e["ack_p50_ms"] = metric{ack50.median, "ms"}
	// The tails are reported, not bounded: on the reference box they follow
	// the server's garbage collector and the hypervisor's pauses from run to
	// run by far more than any bound the benchmark could state (README.md).
	coordQ, coordT := pooledTail(main, pickCoord)
	ackQ, ackT := pooledTail(main, pickAck)
	rep.layer["latency.coord_p99_ms"] = metric{coordT, "ms"}
	rep.layer["latency.ack_p99_ms"] = metric{ackT, "ms"}
	rep.note("coord: p50 %.3f ms (IQR over %d windows %.3f), p%g %.3f ms, %d samples",
		coord50.median, windows, coord50.iqr, coordQ*100, coordT, coord50.samples)
	rep.note("ack:   p50 %.3f ms (IQR over %d windows %.3f), p%g %.3f ms, %d samples",
		ack50.median, windows, ack50.iqr, ackQ*100, ackT, ack50.samples)

	// Throughput is the whole phase's, not a median over parts of it: on
	// backlog_churn the phase is shorter than the pending set takes to level
	// off, so its parts differ by design.
	var satAcked int64
	for _, c := range main {
		satAcked += c.satAcked
	}
	satQPS := float64(satAcked) / s.sat.Seconds()
	rep.e2e["sat_qps"] = metric{satQPS, "1/s"}
	rep.e2e["cpu_us_per_query"] = metric{float64((s1.cpu - s0.cpu).Microseconds()) / dq, "us"}
	rep.e2e["rss_peak_mb"] = metric{float64(s.peakRSS) / (1 << 20), "MB"}
	// Every byte the server writes for a query: its replies and, where there
	// is one, the write-ahead log.
	rep.e2e["written_bytes_per_query"] = metric{rep.layer["server.bytes_out_per_query"].Value + rep.layer["wal.bytes_per_query"].Value, "B"}
	offered := sp.rate * float64(sp.batch)
	rep.note("saturation: %.0f queries/s over %.1fs", satQPS, s.sat.Seconds())
	rep.note("open loop: %.0f queries/s for %.1fs = %.0f%% of the saturation rate; %d queries submitted in all",
		offered, s.open.Seconds(), 100*offered/satQPS, sentQ)
}

// outsideIn fills in the per-layer metrics that are read from outside the
// server: its counters over the measured phase, the connections' byte counts,
// the pacer's lag, the durable epilogue.
func (s *session) outsideIn(sentQ int, outcomes map[string]int) {
	rep, ld, s0, s1 := s.rep, s.ld, s.s0, s.s1
	lagP99 := float64(ld.lag.quantile(0.99)) / 1e3
	lateFrac := float64(ld.late) / float64(max(ld.lag.n, 1))
	span := float64(s1.at - s0.at)
	rep.note("generator: %.2f cores busy during the open loop; server: %.2f cores",
		float64(s1.self-s0.self)/span, float64(s1.cpu-s0.cpu)/span)
	rep.note("pacer: bursts written %.0f us late at the median, %.0f us at p99, %.0f us at worst; %.2f%% of %d bursts more than %d us late (real-time pacer thread: %v)",
		float64(ld.lag.quantile(0.5))/1e3, lagP99, float64(ld.lag.max)/1e3, 100*lateFrac, ld.lag.n, maxLagUS, ld.realtime)
	if lateFrac > maxLateFrac && !s.cfg.smoke {
		rep.invalid = fmt.Sprintf("loadgen.late_frac = %.3f > %g: the generator fell behind its schedule", lateFrac, maxLateFrac)
	}

	// Counters over the measured phase, per query submitted in it.
	delta := func(f func(engine.Stats) int) float64 { return float64(f(s1.stats) - f(s0.stats)) }
	sub := delta(func(st engine.Stats) int { return st.Submitted })
	per := func(v float64) float64 {
		if sub == 0 {
			return 0
		}
		return v / sub
	}
	var bytesIn, bytesOut int64
	for _, c := range s.conns {
		bytesIn += c.bytesIn
		bytesOut += c.bytesOut
	}
	L := rep.layer
	L["server.bytes_in_per_query"] = metric{float64(bytesOut) / float64(sentQ), "B"}
	L["server.bytes_out_per_query"] = metric{float64(bytesIn) / float64(sentQ), "B"}
	L["engine.router_passes_per_query"] = metric{per(delta(func(st engine.Stats) int { return st.RouterPasses })), "count"}
	L["engine.submit_locks_per_query"] = metric{per(delta(func(st engine.Stats) int { return st.SubmitLocks })), "count"}
	L["engine.evaluations_per_query"] = metric{per(delta(func(st engine.Stats) int { return st.Evaluations })), "count"}
	L["engine.eval_retries_per_kquery"] = metric{1000 * per(delta(func(st engine.Stats) int { return st.EvalRetries })), "count"}
	L["engine.eval_queue_depth_max"] = metric{float64(s.pk.queueDepth), "count"}
	L["engine.pending_peak"] = metric{float64(s.pk.pending), "count"}
	L["engine.expired_stale"] = metric{float64(s.end.stats.ExpiredStale), "count"}
	L["engine.outcomes.answered"] = metric{float64(outcomes[wantAnswered]), "count"}
	L["engine.outcomes.rejected"] = metric{float64(outcomes[wantRejected]), "count"}
	L["engine.outcomes.unsafe"] = metric{float64(outcomes["unsafe"]), "count"}
	L["engine.outcomes.stale"] = metric{float64(outcomes[wantStale]), "count"}
	hits := delta(func(st engine.Stats) int { return st.PlanHits })
	misses := delta(func(st engine.Stats) int { return st.PlanMisses })
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	L["memdb.plan_hit_ratio"] = metric{ratio, "ratio"}
	var wr, wb, wf float64
	if w0, w1 := s0.stats.WAL, s1.stats.WAL; w0 != nil && w1 != nil {
		wr, wb, wf = float64(w1.Records-w0.Records), float64(w1.Bytes-w0.Bytes), float64(w1.Fsyncs-w0.Fsyncs)
	}
	L["wal.records_per_query"] = metric{per(wr), "count"}
	L["wal.bytes_per_query"] = metric{per(wb), "B"}
	L["wal.fsyncs_per_kquery"] = metric{1000 * per(wf), "count"}
	L["wal.recovered_mismatch"] = metric{float64(rep.failures.recovered), "count"}
	L["durable.recovery_s"] = metric{s.epi.recovery.Seconds(), "s"}
	L["durable.ckpt_stall_ms"] = metric{ld.checkpointStall(s.ckpts, rep), "ms"}
	L["loadgen.lag_p99_us"] = metric{lagP99, "us"}
	L["loadgen.late_frac"] = metric{lateFrac, "ratio"}
	L["loadgen.cpu_frac"] = metric{float64(s1.self-s0.self) / span, "ratio"}
}

type interval struct{ from, to int64 }

// checkpointStall is the median over the checkpoints of the longest ack
// latency among queries that were due while the checkpoint was outstanding.
func (ld *load) checkpointStall(ckpts []interval, rep *report) float64 {
	if len(ckpts) == 0 {
		return 0
	}
	var stalls, spans []float64
	for _, iv := range ckpts {
		var worst int64
		for q := range ld.ackAt {
			ref := ld.ref[q].Load()
			if ld.sent[q] && ref >= iv.from && ref <= iv.to && ld.ackAt[q]-ref > worst {
				worst = ld.ackAt[q] - ref
			}
		}
		stalls = append(stalls, float64(worst)/1e6)
		spans = append(spans, float64(iv.to-iv.from)/1e6)
	}
	m, iqr := medianIQR(stalls)
	sm, _ := medianIQR(spans)
	rep.note("checkpoints: %d taken, op outstanding %.1f ms (median), worst ack while outstanding %.1f ms (median, IQR %.1f)",
		len(ckpts), sm, m, iqr)
	return m
}

// peaks polls the server's gauges while the load runs.
type peaks struct {
	pending, queueDepth int
}

func (p *peaks) poll(addr string) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := dialControl(addr)
		if err != nil {
			return
		}
		defer c.close()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if st, err := c.stats(); err == nil {
					p.pending = max(p.pending, st.Pending)
					p.queueDepth = max(p.queueDepth, st.EvalQueueDepth)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// epilogue is what the crash-and-recover epilogue found.
type epilogue struct {
	from, to   int32         // the epilogue's stream indexes, [from, to)
	recovery   time.Duration // restart exec → first stats reply
	pendingOff int           // how far the recovered pending count was from the openers sent
}

// lost reports whether q is an opener: its result went to a connection that
// died with the server. Openers and partners alternate from e.from on.
func (e epilogue) lost(q int32) bool { return q >= e.from && q < e.to && (q-e.from)%2 == 0 }

// crashAndRecover submits the epilogue's openers, waits for their acks,
// SIGKILLs the server, restarts it on the same data directory, times the
// recovery, then submits the partners on fresh connections and lets the
// oracle judge their outcomes. This is process-crash durability only: the
// page cache survives kill -9, so nothing here proves the fsyncs.
func (s *session) crashAndRecover(ctx context.Context) error {
	st, ld, rep := s.st, s.ld, s.rep
	old := s.conns
	s.epi = epilogue{from: st.openers[0].first, to: st.partners[len(st.partners)-1].first + 1}
	from, to := ld.appendSends(st.openers)
	if _, err := ld.ackClocked(old, from, to, satWindow, 0); err != nil {
		return err
	}
	if !settle(old, false, drainTimeout) {
		rep.note("epilogue openers were not all acknowledged")
	}
	// -durability batch buffers appends for up to a flush interval (2 ms)
	// before they reach the kernel; acknowledged admissions older than that
	// are what a process crash must not lose.
	time.Sleep(100 * time.Millisecond)
	s.ctl.close()
	for _, c := range old {
		c.closing.Store(true) // the read error that follows is expected
	}
	s.tgt.stop()

	var err error
	if s.tgt, s.epi.recovery, err = startTarget(ctx, s.tcfg); err != nil {
		return fmt.Errorf("restart after crash: %w", err)
	}
	if s.ctl, err = dialControl(s.tgt.addr); err != nil {
		return err
	}
	stats, err := s.ctl.stats()
	if err != nil {
		return err
	}
	s.epi.pendingOff = abs(stats.Pending - len(st.openers))
	rep.note("recovery: server answered %.2fs after restart with %d pending (openers acknowledged before the kill: %d); process-crash durability only — the page cache survives kill -9",
		s.epi.recovery.Seconds(), stats.Pending, len(st.openers))

	for range old {
		c, err := ld.dial(s.tgt.addr, true)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	fresh := s.conns[len(old):]
	from, to = ld.appendSends(st.partners)
	if _, err := ld.ackClocked(fresh, from, to, satWindow, 0); err != nil {
		return err
	}
	if !settle(fresh, true, drainTimeout) {
		rep.note("epilogue partners did not all resolve after recovery")
	}
	return nil
}

func clearDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// medianIQR returns the median of vals and the distance between their first
// and third quartiles (0 for fewer than two values).
func medianIQR(vals []float64) (median, iqr float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		// Linear interpolation between closest ranks.
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.5), at(0.75) - at(0.25)
}
