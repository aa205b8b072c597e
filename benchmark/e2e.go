package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS every child runs with. It pins the CLI's
// -shards default and the Go runtime's parallelism to the same value on
// any host, so samples from different machines measure the same work.
const childProcs = 2

// setupProbes is how many extra set-up measurements each sample takes
// (start, wait for the first stderr line, kill): set-up is a few
// milliseconds, too noisy for one reading per invocation to stand alone.
const setupProbes = 3

// runner launches children: prefix-bench invocations and the benchmark's
// own layer-run children. All load comes from the one process that owns
// it, one child at a time.
type runner struct {
	bin string // the prefix-bench binary
	tmp string // parent of every child's private TMPDIR
}

// sample is one measured prefix-bench invocation.
type sample struct {
	wall, cpu, rssMB float64
	setup            float64 // seconds from exec to the first stderr line (median)
	err              error   // why the invocation counts as failed
}

// childEnv is the parent's environment with the runtime knobs pinned:
// the GOMAXPROCS above, a private TMPDIR, and no GOGC, GOMEMLIMIT or
// GODEBUG leaking in from the caller.
func childEnv(tmp string) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "GOMAXPROCS", "TMPDIR", "GOGC", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", childProcs), "TMPDIR="+tmp)
}

// firstLine is a stderr sink that notes when the first full line arrived
// and keeps the tail of the stream for error messages.
type firstLine struct {
	start time.Time
	mu    sync.Mutex
	at    time.Duration
	seen  chan struct{}
	tail  []byte
}

func newFirstLine(start time.Time) *firstLine {
	return &firstLine{start: start, seen: make(chan struct{})}
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.at == 0 && bytes.IndexByte(p, '\n') >= 0 {
		f.at = time.Since(f.start)
		close(f.seen)
	}
	f.tail = append(f.tail, p...)
	if len(f.tail) > 4096 {
		f.tail = f.tail[len(f.tail)-4096:]
	}
	return len(p), nil
}

func (f *firstLine) setup() (time.Duration, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.at, strings.TrimSpace(string(f.tail))
}

// child is one started process in its own fresh TMPDIR.
type child struct {
	cmd    *exec.Cmd
	dir    string
	start  time.Time
	stderr *firstLine
}

// start launches name in a fresh private TMPDIR (also its working
// directory). The caller waits for it and then calls cleanup.
func (r *runner) start(ctx context.Context, stdout io.Writer, name string, args ...string) (*child, error) {
	dir, err := os.MkdirTemp(r.tmp, "child-")
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Env = childEnv(dir)
	cmd.WaitDelay = 5 * time.Second
	cmd.Stdout = stdout
	c := &child{cmd: cmd, dir: dir, start: time.Now()}
	c.stderr = newFirstLine(c.start)
	cmd.Stderr = c.stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return c, nil
}

func (c *child) cleanup() { os.RemoveAll(c.dir) }

// exec runs one child to completion and reports its rusage. Leftover
// spill files are a failure: the pipeline promises to remove every one
// it creates.
func (r *runner) exec(ctx context.Context, timeout time.Duration, stdout io.Writer, name string, args ...string) sample {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c, err := r.start(ctx, stdout, name, args...)
	if err != nil {
		return sample{err: err}
	}
	defer c.cleanup()
	runErr := c.cmd.Wait()
	s := sample{wall: time.Since(c.start).Seconds()}
	setup, tail := c.stderr.setup()
	s.setup = setup.Seconds()
	if ps := c.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
			s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.err = fmt.Errorf("timed out after %v", timeout)
	case runErr != nil:
		s.err = fmt.Errorf("%v: %s", runErr, tail)
	default:
		if left, _ := filepath.Glob(filepath.Join(c.dir, "prefix-spill-*.pfxt")); len(left) > 0 {
			s.err = fmt.Errorf("left %d spill file(s) in its TMPDIR", len(left))
		}
	}
	return s
}

// probe measures set-up once: it starts prefix-bench, waits for the
// first stderr line and kills the process.
func (r *runner) probe(ctx context.Context, w workload) (float64, error) {
	c, err := r.start(ctx, nil, r.bin, w.Args...)
	if err != nil {
		return 0, err
	}
	defer c.cleanup()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	var waitErr error
	select {
	case <-c.stderr.seen:
		_ = c.cmd.Process.Kill() // the probe is over; an already-exited child is fine
		<-done
	case waitErr = <-done:
		// The child exited; it may still have printed its line first.
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill() // hung before printing anything
		<-done
		return 0, errors.New("no stderr line within 30s")
	}
	// Wait has returned, so every stderr write has landed.
	at, tail := c.stderr.setup()
	if at == 0 {
		return 0, fmt.Errorf("exited before its first stderr line (%v): %s", waitErr, tail)
	}
	return at.Seconds(), nil
}

// measure takes one sample of w: setupProbes set-up probes, then one
// full invocation whose stdout must hash to w.Digest. Its set-up time
// is the median over the probes and the invocation.
func (r *runner) measure(ctx context.Context, w workload, timeout time.Duration) sample {
	var setups []float64
	for range setupProbes {
		v, err := r.probe(ctx, w)
		if err != nil {
			return sample{err: fmt.Errorf("set-up probe: %w", err)}
		}
		setups = append(setups, v)
	}
	var out bytes.Buffer
	s := r.exec(ctx, timeout, &out, r.bin, w.Args...)
	if s.setup > 0 {
		setups = append(setups, s.setup)
	}
	s.setup = medianOf(setups)
	if s.err == nil {
		if got := digest(out.Bytes()); got != w.Digest {
			s.err = fmt.Errorf("stdout sha256 %s, want %s", got, w.Digest)
		}
	}
	return s
}

// digest is the hex sha256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
