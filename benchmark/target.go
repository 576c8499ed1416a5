package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"entangle"
	"entangle/internal/engine"
	"entangle/internal/server"
	"entangle/internal/workload"
)

// targetConfig is how the system under test is started for one workload.
type targetConfig struct {
	d3cd    string // path of the d3cd binary; empty serves in-process
	users   int
	stale   time.Duration // 0 keeps d3cd's default
	dataDir string        // non-empty runs durably with -durability batch
	logFile string        // d3cd's stderr; empty discards it
}

// flushInterval is d3cd's -flush-interval, the cadence of its stale sweeps.
const flushInterval = 100 * time.Millisecond

// target is a running server: a d3cd child process, or — for the smoke mode
// and the tests, which must not spawn anything — the same server in-process.
type target struct {
	addr string
	pid  int // 0 when in-process
	// stop ends the server without a clean shutdown where that is possible:
	// a child is SIGKILLed and reaped, an in-process server can only close.
	stop func()
}

// startTarget starts the server and returns once it answers a stats request;
// setup is the time from exec (or from the first constructor call) to that
// first reply.
func startTarget(ctx context.Context, cfg targetConfig) (t *target, setup time.Duration, err error) {
	begin := time.Now()
	if cfg.d3cd == "" {
		t, err = startInProcess(ctx, cfg)
	} else {
		t, err = startChild(ctx, cfg)
	}
	if err != nil {
		return nil, 0, err
	}
	deadline := begin.Add(60 * time.Second)
	for {
		if c, derr := dialControl(t.addr); derr == nil {
			_, serr := c.stats()
			c.close()
			if serr == nil {
				return t, time.Since(begin), nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			t.stop()
			return nil, 0, fmt.Errorf("server at %s did not answer stats within 60s", t.addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startChild(ctx context.Context, cfg targetConfig) (*target, error) {
	// Reserve a loopback port by binding and releasing it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	args := []string{"-addr", addr, "-social", strconv.Itoa(cfg.users), "-seed", strconv.Itoa(dataSeed),
		"-shards", "0", "-max-inflight", "-1", "-flush-interval", flushInterval.String()}
	if cfg.stale > 0 {
		args = append(args, "-stale", cfg.stale.String())
	}
	if cfg.dataDir != "" {
		args = append(args, "-data-dir", cfg.dataDir, "-durability", "batch", "-checkpoint-every", "-1s")
	}
	cmd := exec.CommandContext(ctx, cfg.d3cd, args...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if cfg.logFile != "" {
		f, err := os.OpenFile(cfg.logFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close() // the child holds its own descriptor
		cmd.Stderr = f
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cfg.d3cd, err)
	}
	return &target{addr: addr, pid: cmd.Process.Pid, stop: func() {
		_ = cmd.Process.Kill() // already exited is fine
		_ = cmd.Wait()         // reaps; the exit status of a killed child is not news
	}}, nil
}

// startInProcess mirrors cmd/d3cd's main with the same flags.
func startInProcess(ctx context.Context, cfg targetConfig) (*target, error) {
	opts := []entangle.Option{
		entangle.WithShards(0),
		entangle.WithFlushInterval(flushInterval),
		entangle.WithSeed(dataSeed),
		entangle.WithStaleAfter(30 * time.Second),
	}
	if cfg.stale > 0 {
		opts = append(opts, entangle.WithStaleAfter(cfg.stale))
	}
	if cfg.dataDir != "" {
		opts = append(opts, entangle.WithDataDir(cfg.dataDir),
			entangle.WithDurability(entangle.DurabilityBatch), entangle.WithCheckpointEvery(-time.Second))
	}
	sys, err := entangle.Open(opts...)
	if err != nil {
		return nil, err
	}
	if len(sys.DB().TableNames()) == 0 {
		g := workload.NewGraph(workload.Config{N: cfg.users, Seed: dataSeed})
		if err := workload.PopulateDB(sys.DB(), g); err != nil {
			sys.Close()
			return nil, err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	ticking := make(chan struct{})
	go func() {
		defer close(ticking)
		sys.Run(runCtx)
	}()
	srv := server.New(sys.Engine())
	srv.MaxInFlight = -1
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l) // returns nil after Shutdown
	}()
	return &target{addr: l.Addr().String(), stop: func() {
		cancel()
		<-ticking
		srv.Shutdown()
		l.Close()
		<-served
		sys.Close()
	}}, nil
}

// control is a synchronous client for the ops that are not load: stats and
// checkpoint travel on their own connection so they neither queue behind
// submissions nor hold one of the load connections.
type control struct {
	nc net.Conn
	br *bufio.Reader
}

func dialControl(addr string) (*control, error) {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &control{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *control) close() { c.nc.Close() }

func (c *control) call(op string, timeout time.Duration) (server.Response, error) {
	var resp server.Response
	if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return resp, err
	}
	if _, err := fmt.Fprintf(c.nc, "{\"op\":%q}\n", op); err != nil {
		return resp, err
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("%s reply: %w", op, err)
	}
	if resp.Type == "error" {
		return resp, fmt.Errorf("%s: %s", op, resp.Error)
	}
	return resp, nil
}

func (c *control) stats() (engine.Stats, error) {
	resp, err := c.call("stats", 5*time.Second)
	if err != nil {
		return engine.Stats{}, err
	}
	if resp.Stats == nil {
		return engine.Stats{}, fmt.Errorf("stats reply of type %q carries no stats", resp.Type)
	}
	return *resp.Stats, nil
}

func (c *control) checkpoint() error {
	_, err := c.call("checkpoint", 60*time.Second)
	return err
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat; pid 0 means this process.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pidName(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: short line", pidName(pid))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: unparsable cpu fields", pidName(pid))
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(ut+st) * time.Second / userHz, nil
}

// procPeakRSS returns the peak resident set of a process in bytes (VmHWM).
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pidName(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: %w", pidName(pid), err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pidName(pid))
}

func pidName(pid int) string {
	if pid == 0 {
		return "self"
	}
	return strconv.Itoa(pid)
}
