package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonConfig is one mirabeld configuration. The exec'd daemon receives
// it as flags; the in-process stack applies the same values to the same
// constructors.
type daemonConfig struct {
	dataDir       string // empty: in memory
	fsync         string
	shards        int
	scheduleEvery time.Duration // 0: no periodic scheduler
	clock         time.Time
	seedDir       string // empty: no startup seeding
}

// seedJobs is the -seed-jobs worker count: one per core of the 2-core box
// the benchmark is sized for.
const seedJobs = 2

// args renders the configuration as mirabeld flags.
func (c daemonConfig) args(addr string) []string {
	a := []string{"-addr", addr, "-shards", strconv.Itoa(c.shards),
		"-clock", c.clock.Format(time.RFC3339), "-sweep", "0"}
	if c.dataDir != "" {
		a = append(a, "-data-dir", c.dataDir, "-fsync", c.fsync)
	}
	if c.scheduleEvery > 0 {
		a = append(a, "-schedule-every", c.scheduleEvery.String())
	}
	if c.seedDir != "" {
		a = append(a, "-seed-dir", c.seedDir, "-seed-approach", "peak", "-seed-jobs", strconv.Itoa(seedJobs))
	}
	return a
}

// daemon is one running collection service the load drives over HTTP.
type daemon interface {
	// addr is the service's host:port.
	addr() string
	// peakRSSMB is the serving process's peak resident set (VmHWM).
	peakRSSMB() (float64, error)
	// kill stops the service the way a crash would: nothing flushed or
	// snapshotted beyond what it already wrote. It returns once stopped.
	kill()
}

// launcher starts a daemon and returns it with its set-up time: from the
// start of the process (or of the assembly) to the first ready answer.
type launcher func(cfg daemonConfig) (daemon, time.Duration, error)

// execDaemon is a mirabeld child process.
type execDaemon struct {
	cmd    *exec.Cmd
	listen string
	exited chan error
	killed bool
}

func (d *execDaemon) addr() string { return d.listen }

func (d *execDaemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

func (d *execDaemon) kill() {
	if d.killed {
		return
	}
	d.killed = true
	_ = d.cmd.Process.Kill() // already exited is fine: exited is read below either way
	<-d.exited
}

// startExec runs mirabeld with cfg and waits for /readyz.
func startExec(bin string, logf *os.File, cfg daemonConfig) (daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, cfg.args(addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start mirabeld: %w", err)
	}
	d := &execDaemon{cmd: cmd, listen: addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	if err := waitReady(addr, d.exited); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// readyTimeout bounds how long a set-up may take before the run fails.
const readyTimeout = 150 * time.Second

// waitReady polls /readyz until it answers 200, the process exits, or
// readyTimeout passes. It sleeps a hundredth of the time waited so far
// between asks, at least readyPoll, so the ready time is known to about
// 1% without the polls taking CPU from a daemon that seeds for seconds.
// The sleep is a raw nanosleep: time.Sleep wakes up to a millisecond late
// (see sleepUntil), longer than an empty daemon takes to start.
func waitReady(addr string, exited chan error) error {
	h := newConn(addr)
	defer h.close()
	start := time.Now()
	for time.Since(start) < readyTimeout {
		select {
		case err := <-exited:
			exited <- err
			return fmt.Errorf("mirabeld exited before ready: %v", err)
		default:
		}
		if status, _, err := h.do(http.MethodGet, "/readyz", nil, ""); err == nil && status == http.StatusOK {
			return nil
		}
		ts := syscall.NsecToTimespec(int64(max(readyPoll, time.Since(start)/100)))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only polls sooner
	}
	return fmt.Errorf("mirabeld not ready after %v", readyTimeout)
}

// readyPoll is the shortest sleep between two readiness polls.
const readyPoll = 100 * time.Microsecond

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// vmHWM reads a process's peak resident set size in MB from /proc.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// scrape is one /metrics?format=json exposition.
type scrape map[string]json.RawMessage

func fetchScrape(h *httpConn) (scrape, error) {
	var s scrape
	return s, h.getJSON("/metrics?format=json", &s)
}

// value reads a family as a number: a scalar as is, a labelled family as
// the sum of its samples whose labels include every pair in match. A
// missing family (an in-memory daemon has no wal_*) reads as 0.
func (s scrape) value(name string, match ...string) float64 {
	raw, ok := s[name]
	if !ok {
		return 0
	}
	var v float64
	if json.Unmarshal(raw, &v) == nil {
		return v
	}
	var samples []struct {
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	if json.Unmarshal(raw, &samples) != nil {
		return 0
	}
	var sum float64
	for _, smp := range samples {
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			ok = ok && smp.Labels[match[i]] == match[i+1]
		}
		if ok {
			sum += smp.Value
		}
	}
	return sum
}

// delta is after − before for one family.
func delta(before, after scrape, name string, match ...string) float64 {
	return after.value(name, match...) - before.value(name, match...)
}
