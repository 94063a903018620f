package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running protoserve (or traced twin) process.
type server struct {
	cmd    *exec.Cmd
	udp    string // bound UDP address
	http   string // bound stats address
	eof    chan struct{}
	cpu0   time.Duration // process CPU when measurement started
	ready  time.Duration // process CPU from exec until the stats endpoint answered
	client *http.Client
}

// startServer launches bin with args plus loopback listen/stats
// addresses and waits until the stats endpoint answers. The CPU the
// process used up to then is the serving half of set-up time.
func startServer(bin string, args ...string) (*server, error) {
	args = append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, eof: make(chan struct{}), client: &http.Client{Timeout: 10 * time.Second}}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(s.eof)
		var a [2]string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on udp://"); i >= 0 && a[0] == "" {
				a[0], _, _ = strings.Cut(line[i+len(" on udp://"):], " ")
			}
			if i := strings.Index(line, "stats on http://"); i >= 0 && a[1] == "" {
				a[1] = strings.TrimSuffix(line[i+len("stats on http://"):], "/metrics")
				addrs <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addrs:
		s.udp, s.http = a[0], a[1]
	case <-s.eof:
		s.kill()
		return nil, fmt.Errorf("%s exited before it was ready", filepath.Base(bin))
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("%s not ready within 30s", filepath.Base(bin))
	}
	if _, err := s.stats(); err != nil {
		s.kill()
		return nil, err
	}
	if s.ready, err = procCPU(cmd.Process.Pid); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// kill ends the process and waits for it. It is a no-op after stop, so
// callers can defer it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.eof
	_ = s.cmd.Wait()
}

// markCPU records the process's CPU so far; cpuSince reports what it
// used after the mark.
func (s *server) markCPU() error {
	c, err := procCPU(s.cmd.Process.Pid)
	s.cpu0 = c
	return err
}

func (s *server) cpuSince() (time.Duration, error) {
	c, err := procCPU(s.cmd.Process.Pid)
	return c - s.cpu0, err
}

// serverStats is what the benchmark reads from a server's endpoints.
type serverStats struct {
	Totals map[string]uint64 `json:"totals"`
	Flows  uint64            `json:"-"` // pdsl_flows from /metrics
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get("http://" + s.http + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (s *server) stats() (*serverStats, error) {
	b, err := s.get("/stats.json")
	if err != nil {
		return nil, err
	}
	var st serverStats
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("decoding /stats.json: %w", err)
	}
	if b, err = s.get("/metrics"); err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "pdsl_flows "); ok {
			st.Flows, _ = strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return &st, nil
}

// serverEnd is what a stopped server leaves behind.
type serverEnd struct {
	peakRSS   float64 // VmHWM, MB
	user, sys time.Duration
}

// stop reads the server's peak RSS, interrupts it and waits for it to
// exit.
func (s *server) stop() (serverEnd, error) {
	var end serverEnd
	hwm, err := procHWM(s.cmd.Process.Pid)
	if err != nil {
		s.kill()
		return end, err
	}
	end.peakRSS = hwm
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return end, err
	}
	select {
	case <-s.eof:
	case <-time.After(20 * time.Second):
		s.kill()
		return end, fmt.Errorf("server did not exit within 20s of SIGINT")
	}
	if err := s.cmd.Wait(); err != nil {
		return end, fmt.Errorf("server exit: %w", err)
	}
	end.user, end.sys = s.cmd.ProcessState.UserTime(), s.cmd.ProcessState.SystemTime()
	return end, nil
}

// procCPU sums on-CPU nanoseconds over the process's threads
// (schedstat), which unlike /proc/<pid>/stat is not rounded to clock
// ticks.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("reading schedstat of %d: no tasks", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// selfCPU is this process's user+system CPU, with microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
