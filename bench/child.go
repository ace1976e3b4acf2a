package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one asterixd process serving a fresh data directory.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
}

// startChild launches asterixd on a free port and waits for /health. A port
// can be taken between choosing it and the child binding it, so a child that
// exits before becoming healthy is retried on another port.
func startChild(ctx context.Context, bin, dir string, journaled bool) (*child, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := launch(ctx, bin, dir, journaled)
		if err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		last = err
	}
	return nil, last
}

func launch(ctx context.Context, bin, dir string, journaled bool) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("choosing a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-data", dir}
	if journaled {
		args = append(args, "-journaled")
	}
	c := &child{base: "http://" + addr, dir: dir, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = &c.stderr
	// The child must not outlive the benchmark, even one killed with SIGKILL.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(c.base + "/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("asterixd exited before serving: %s", c.stderr.String())
		case <-ctx.Done():
			c.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, errors.New("asterixd did not answer /health within 15s")
		}
	}
}

// kill stops the child with SIGKILL and waits until it has ended.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// scrape reads /metrics into name -> value, summing a metric's label sets.
func (c *child) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// drain waits until the background flush/merge/checkpoint queue is empty and
// idle, so set-up time and disk bytes include the work a load left behind.
func (c *child) drain(ctx context.Context) error {
	for {
		m, err := c.scrape(ctx)
		if err != nil {
			return err
		}
		if m["asterix_bg_queue_depth"] == 0 && m["asterix_bg_inflight"] == 0 {
			return nil
		}
		select {
		case <-c.exited:
			return fmt.Errorf("asterixd died while draining: %s", c.stderr.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// procStatusMB reads one kB field of /proc/<pid>/status, in MB.
func (c *child) procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times;
// it is 100 on every Linux platform Go supports.
const clockTick = 100

// cpuSeconds returns the child's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// dataBytes sums the sizes of the regular files under a data directory, the
// write-ahead log excepted: the log grows to its 8 MiB checkpoint trigger and
// is cut back, a sawtooth as large as a fifth of a run's data, and is
// reported on its own as storage.wal_bytes.
func dataBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			// Background work renames and removes files while we walk.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if e.Type().IsRegular() && e.Name() != "wal.log" {
			info, err := e.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// post sends one statement and returns the response body and the time the
// headers took. A status other than 200 is an error carrying the body.
func post(ctx context.Context, hc *http.Client, url, statement string, buf *bytes.Buffer) (first time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(statement))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	first = time.Since(start)
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return first, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return first, fmt.Errorf("status %d: %.300s", resp.StatusCode, buf.Bytes())
	}
	return first, nil
}
