package main

import (
	"bufio"
	"context"
	"encoding/json"
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

// child is one process the benchmark started. Every child gets SIGKILL
// from the kernel if the benchmark dies first, so no exit path leaks one.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// startChild starts bin with args, its output appended to logPath.
func startChild(bin string, args []string, logPath string) (*child, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	return c, nil
}

// wait blocks until the child exits or ctx ends (then the child is killed).
func (c *child) wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		c.kill()
		return ctx.Err()
	}
}

// stop asks the child to shut down gracefully and kills it if it has not
// exited within grace. It returns once the process has been reaped.
func (c *child) stop(grace time.Duration) {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	select {
	case <-c.done:
	case <-time.After(grace):
		c.kill()
	}
}

// kill ends the child at once and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // an already-exited child is fine
	<-c.done
}

// peakRSSMB reads the child's peak resident set size from /proc.
func (c *child) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
}

// resetPeakRSS restarts the child's peak resident set size from its
// current one (see the function of the same name for this process).
func (c *child) resetPeakRSS() {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", c.cmd.Process.Pid), []byte("5"), 0) // best effort
}

// vmHWM parses the VmHWM line of a /proc status file, in MB.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// server is a running cmd/xpserved child bound to a loopback port.
type server struct {
	*child
	url string
}

// startServer starts xpserved on 127.0.0.1:0 over cacheDir (memory-only
// when cacheDir is empty) and returns once it answers /readyz. Its address is read from -addr-file, so no
// port is ever guessed.
func startServer(ctx context.Context, bin, cacheDir, workDir string) (*server, error) {
	addrFile := filepath.Join(workDir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-log-level", "warn"}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	c, err := startChild(bin, args, filepath.Join(workDir, "xpserved.log"))
	if err != nil {
		return nil, err
	}
	s := &server{child: c}
	if err := s.awaitReady(ctx, addrFile); err != nil {
		c.kill()
		return nil, fmt.Errorf("xpserved: %w (log: %s)", err, filepath.Join(workDir, "xpserved.log"))
	}
	return s, nil
}

// awaitReady polls for the address file, then for a 200 from /readyz.
func (s *server) awaitReady(ctx context.Context, addrFile string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return fmt.Errorf("exited before serving: %v", s.err)
		case <-ctx.Done():
			return fmt.Errorf("not ready: %w", ctx.Err())
		case <-tick.C:
		}
		if s.url == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || len(b) == 0 {
				continue
			}
			s.url = "http://" + strings.TrimSpace(string(b))
		}
		if ready(ctx, s.url) {
			return nil
		}
	}
}

// ready reports whether base answers GET /readyz with 200.
func ready(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fillCache runs the cold pipeline for e's seed in a child process of
// this binary, writing every evaluation to cacheDir and the pipeline's
// outputs to outPath (see fill). A separate process is what a user filling
// a cache does, and it keeps the fill's memory and GC out of the
// measuring process.
func fillCache(ctx context.Context, e *env, cacheDir, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	size, err := json.Marshal(e.p)
	if err != nil {
		return err
	}
	logPath := filepath.Join(e.tmp, "fill.log")
	c, err := startChild(self, []string{"fill", "-dir", cacheDir, "-seed", strconv.FormatInt(e.slot(0).ExploreSeed, 10),
		"-out", outPath, "-params", string(size)}, logPath)
	if err != nil {
		return err
	}
	if err := c.wait(ctx); err != nil {
		return fmt.Errorf("fill: %w (log: %s)", err, logPath)
	}
	return nil
}
