package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// Server is one running `htdp -serve` process.
type Server struct {
	cmd    *exec.Cmd
	Base   string // http://127.0.0.1:port
	exited chan struct{}
	stderr *os.File
}

// StartServer spawns the binary, waits for its listen line, then polls
// /healthz until it answers. The returned duration runs from spawn to
// the first healthy answer: the pool's datasets are indexed before the
// listener opens, so it covers indexing too.
func StartServer(bin string, args []string, gomaxprocs int, logPath string) (*Server, time.Duration, error) {
	errf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-serve", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	cmd.Stderr = errf
	out, err := cmd.StdoutPipe()
	if err != nil {
		errf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		errf.Close()
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	s := &Server{cmd: cmd, exited: make(chan struct{}), stderr: errf}
	addr := make(chan string, 1)
	go func() {
		// Read the listen line, then drain stdout until the process
		// closes it, so the server never blocks on a full pipe.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "htdp serving on http://"); ok {
				addr <- strings.Fields(a)[0]
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.Base = "http://" + a
	case <-s.exited:
		errf.Close()
		return nil, 0, fmt.Errorf("server exited before listening (see %s)", logPath)
	case <-time.After(60 * time.Second):
		s.Stop()
		return nil, 0, errors.New("server did not listen within 60s")
	}
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(s.Base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			s.Stop()
			return nil, 0, errors.New("server /healthz did not answer within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// Pid returns the server's process id.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Stop sends SIGTERM (the server drains and exits 0) and waits for the
// process to end, killing it if the drain takes longer than 20s.
func (s *Server) Stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.stderr.Close()
}

// ProcStats is the server's CPU and peak memory, read from /proc.
type ProcStats struct {
	CPU    time.Duration // utime + stime
	HWMKiB int64         // VmHWM
}

// ReadProc reads /proc/<pid>/stat and /proc/<pid>/status.
func ReadProc(pid int) (ProcStats, error) {
	var ps ProcStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	ps.CPU = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return ps, fmt.Errorf("parsing VmHWM: %w", err)
			}
			ps.HWMKiB = kb
		}
	}
	return ps, nil
}

// CPUTicks is the machine-wide line of /proc/stat.
type CPUTicks struct{ Total, Steal int64 }

// ReadSteal reads the machine-wide CPU tick counters.
func ReadSteal() (CPUTicks, error) {
	var t CPUTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return t, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		if i < 8 { // user … steal; guest time is already in user
			t.Total += n
		}
		if i == 7 {
			t.Steal = n
		}
	}
	return t, nil
}

// Since returns the steal share of the CPU time since t0, in percent.
func (t CPUTicks) Since(t0 CPUTicks) float64 {
	return 100 * float64(t.Steal-t0.Steal) / float64(max(t.Total-t0.Total, 1))
}

// Scrape reads /metrics into series → value.
func Scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
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
	return m, sc.Err()
}
