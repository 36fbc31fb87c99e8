package main

// Running fsml itself: the offline CLI commands and the server, each
// timed from exec and reaped with wait4 so its peak RSS is known.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished fsml process.
type procResult struct {
	wall   time.Duration
	stdout []byte
	maxRSS int64 // bytes
}

// rssOf reads the peak resident set size wait4 reported for a process.
func rssOf(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss * 1024 // Linux reports KiB
	}
	return 0
}

// runFsml runs one fsml command to completion in dir.
func runFsml(ctx context.Context, bin, dir string, args ...string) (procResult, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	res := procResult{wall: time.Since(t0), stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		res.maxRSS = rssOf(cmd.ProcessState)
	}
	if err != nil {
		return res, fmt.Errorf("fsml %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return res, nil
}

// server is a running `fsml serve`.
type server struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	stderr  bytes.Buffer
	exited  chan struct{}
}

// freePort asks the kernel for an unused loopback port. The server is
// started on it right away; a lost race surfaces as a boot failure.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs `fsml serve` with deployment flags only: a listen
// address and a fresh registry directory. Every tuning knob stays at
// its default, so a change to a default is what gets measured.
func startServer(bin, dir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	reg := filepath.Join(dir, "registry")
	if err := os.RemoveAll(reg); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(reg, 0o755); err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-addr", addr, "-registry-dir", reg)
	s.cmd.Dir = dir
	s.cmd.Stderr = &s.stderr
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { _ = s.cmd.Wait(); close(s.exited) }()
	return s, nil
}

// waitHealthy polls /healthz until the server answers 200.
func (s *server) waitHealthy(c *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("fsml serve exited during boot: %s", strings.TrimSpace(s.stderr.String()))
		default:
		}
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("fsml serve not healthy after %s", limit)
}

// stop sends SIGTERM (the server drains and exits), escalates to
// SIGKILL after a grace period, and returns the peak RSS.
func (s *server) stop() int64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if s.cmd.ProcessState == nil {
		return 0
	}
	return rssOf(s.cmd.ProcessState)
}
