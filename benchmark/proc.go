package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet tracks every child process the benchmark started, so that a
// signal or an error on any path can stop all of them.
type procSet struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

var children = &procSet{procs: map[*proc]bool{}}

func (s *procSet) add(p *proc) {
	s.mu.Lock()
	s.procs[p] = true
	s.mu.Unlock()
}

func (s *procSet) remove(p *proc) {
	s.mu.Lock()
	delete(s.procs, p)
	s.mu.Unlock()
}

// killAll stops every live child and waits for each to exit.
func (s *procSet) killAll() {
	s.mu.Lock()
	live := make([]*proc, 0, len(s.procs))
	for p := range s.procs {
		live = append(live, p)
	}
	s.mu.Unlock()
	for _, p := range live {
		_ = p.stop() // best-effort teardown on the exit path
	}
}

// proc is one child process whose output is captured in memory.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *syncBuffer
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result, valid after done
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runTool runs a set-up binary to completion; a failure carries its
// combined output.
func runTool(ctx context.Context, bin string, args ...string) error {
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, out)
	}
	return nil
}

// startServer launches a server binary listening on an ephemeral port
// and returns once it has printed its "listening on <addr>" line.
func startServer(ctx context.Context, name, bin string, args ...string) (*proc, string, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	p := &proc{name: name, cmd: cmd, out: &syncBuffer{}, done: make(chan struct{})}
	cmd.Stderr = p.out
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("start %s: %w", name, err)
	}
	children.add(p)
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(p.out, line)
			if !sent {
				if a, ok := addrAfter(line, "listening on "); ok {
					addrc <- a
					sent = true
				}
			}
		}
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addrc:
		return p, a, nil
	case <-p.done:
		children.remove(p)
		return nil, "", fmt.Errorf("%s exited before listening: %v\n%s", name, p.err, p.out)
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	_ = p.stop() // failed start; the error below is what matters
	return nil, "", fmt.Errorf("%s did not report a listening address", name)
}

// addrAfter parses the host:port that follows marker in a log line,
// as in "attrserve listening on 127.0.0.1:1234 (...)" or
// "attrserve: pprof on http://127.0.0.1:1234/debug/pprof/".
func addrAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexAny(rest, " /"); j >= 0 {
		rest = rest[:j]
	}
	return rest, strings.Contains(rest, ":")
}

// pprofAddr waits for the server's pprof listener line.
func (p *proc) pprofAddr() (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(p.out.String(), "\n") {
			if a, ok := addrAfter(line, "pprof on http://"); ok {
				return a, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", fmt.Errorf("%s: no pprof address", p.name)
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// waits for the process to exit.
func (p *proc) stop() error {
	defer children.remove(p)
	select {
	case <-p.done:
		return p.err
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-p.done:
		return p.err
	case <-time.After(10 * time.Second):
	}
	_ = p.cmd.Process.Kill() // already gone is fine
	<-p.done
	return fmt.Errorf("%s did not stop on SIGTERM", p.name)
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, client *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_ = resp.Body.Close() // status is all we need
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready: %v", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
const clockTick = 100

// procCPU returns the user plus system CPU time a live process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU reads utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may contain
// spaces, so fields are counted after its closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// procHWM returns a live process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
