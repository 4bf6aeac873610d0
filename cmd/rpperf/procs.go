package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
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

// server is one running rpserved process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
	err  error         // the wait result, valid after done
}

// startServer launches rpserved with args (plus -quiet, and a free
// loopback port unless args give -listen), waits for it to print its address and for /healthz to answer,
// and returns it. The process's log goes to logPath.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, append([]string{"-listen", "127.0.0.1:0", "-quiet"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		_ = logf.Close() // nothing written yet
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		_ = logf.Close() // nothing written yet
		return nil, fmt.Errorf("starting rpserved: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Copy the log until the process exits; the first "listening on"
		// line carries the address.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			_, _ = fmt.Fprintln(logf, line) // the server log is diagnostics only
			if a, ok := strings.CutPrefix(line, "rpserved: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		s.err = cmd.Wait()
		_ = logf.Close() // diagnostics only
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.done:
		return nil, fmt.Errorf("rpserved exited before listening (%v); log in %s", s.err, logPath)
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // drained; only the status matters
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("rpserved exited before healthy (%v); log in %s", s.err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, which drains and exits rpserved, and waits for the
// process; after ten seconds it kills it.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procUsage is a process's CPU time and peak resident set from /proc.
type procUsage struct {
	CPU     time.Duration
	PeakRSS int64 // bytes (VmHWM)
}

// usage reads the process's user+system CPU and its VmHWM.
func (s *server) usage() (procUsage, error) {
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return procUsage{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return procUsage{}, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return procUsage{}, err
	}
	u := procUsage{CPU: time.Duration(ut+st) * time.Second / clockTicks}
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return procUsage{}, err
			}
			u.PeakRSS = kb << 10
		}
	}
	return u, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// fleet is the set of server processes of one workload.
type fleet struct {
	front *server   // the server the client talks to
	all   []*server // every process, front included
}

func (f *fleet) stop() {
	for _, s := range f.all {
		s.stop()
	}
}

// usage sums CPU and peak RSS over every process.
func (f *fleet) usage() (procUsage, error) {
	var sum procUsage
	for _, s := range f.all {
		u, err := s.usage()
		if err != nil {
			return procUsage{}, err
		}
		sum.CPU += u.CPU
		sum.PeakRSS += u.PeakRSS
	}
	return sum, nil
}

// promSamples parses a Prometheus text exposition into "name{labels}" →
// value. Only the samples the benchmark reads matter; the parse is
// line-based and skips comments.
func promSamples(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
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
		out[line[:i]] = v
	}
	return out
}
