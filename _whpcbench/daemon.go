package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running whpcd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	log     *os.File // whpcd's stderr: access log, error log, gctrace
	stdout  chan struct{}
	started time.Time
}

const readyLine = "whpcd listening on "

// startDaemon launches whpcd and returns once it prints its listening
// line. Readiness comes from that line, not from polling, so set-up time
// is not rounded to a poll interval.
func startDaemon(bin string, args, env []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = logf
	// whpcd dies with the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf, stdout: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting whpcd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, readyLine); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
		}
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.stdout:
		err = errors.New("whpcd exited before listening")
	case <-time.After(120 * time.Second):
		err = errors.New("whpcd did not start listening within 120s")
	}
	_ = d.stop()
	return nil, fmt.Errorf("%w (log %s)", err, logPath)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the drain (killing after 20s) and reports
// an unclean exit.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.stdout:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.stdout
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("whpcd exit: %w", err)
	}
	return nil
}

// procStat holds the counters read from /proc for one process.
type procStat struct {
	cpu    time.Duration // user+sys of all threads
	nvcsw  int64         // involuntary context switches of all threads
	hwmKiB int64         // peak resident set
}

// clockTick is USER_HZ, fixed at 100 on Linux.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStat, error) {
	var s procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpu = time.Duration(ut+st) * clockTick
	s.hwmKiB = statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, t := range tasks {
		s.nvcsw += statusField(t, "nonvoluntary_ctxt_switches:")
	}
	return s, nil
}

func statusField(path, name string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine, summed over its CPUs (the steal column of /proc/stat).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return (time.Duration(n) * clockTick).Seconds()
}

// selfCPU is this process's user+sys time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metrics is a parsed /metrics scrape: sample values keyed by the full
// series name including labels. Families a whpcd version no longer
// exports simply read as 0.
type metrics map[string]float64

func parseMetrics(r io.Reader) metrics {
	m := make(metrics)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// sum adds every series of a family (all label values).
func (m metrics) sum(family string) float64 {
	var t float64
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

// errorResponses counts whpcd_requests_total series with a 4xx/5xx code.
func (m metrics) errorResponses() float64 {
	var t float64
	for k, v := range m {
		if strings.HasPrefix(k, "whpcd_requests_total{") && (strings.Contains(k, `code="4`) || strings.Contains(k, `code="5`)) {
			t += v
		}
	}
	return t
}

// countLines counts the lines of path, from byte offset from on, that
// contain substr (or start with it, when prefix is set).
func countLines(path string, from int64, substr string, prefix bool) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0
	}
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); (prefix && strings.HasPrefix(line, substr)) || (!prefix && strings.Contains(line, substr)) {
			n++
		}
	}
	return n
}
