package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/cliffhangerd of the tree at root into the
// benchmark's build directory and returns the binary's path. bin/ is never
// used: it is git-ignored and may hold a binary of another commit.
func buildDaemon(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "cliffhangerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cliffhangerd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cliffhangerd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one cliffhangerd subprocess at its shipped defaults.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	args []string

	mu     sync.Mutex
	stderr bytes.Buffer
}

func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.Write(p)
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// freeAddr asks the kernel for a loopback port nobody holds. The port is
// released before the daemon binds it, which on one machine in one run is
// safe enough.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches bin with the given tenants and waits until it
// accepts connections.
func startDaemon(bin, tenants string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, args: []string{"-addr", addr, "-tenants", tenants}}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stderr = d
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return d, nil
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			d.cmd.Wait()
			return nil, fmt.Errorf("daemon did not listen on %s: %v\n%s", addr, err, d.log())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var panicLine = regexp.MustCompile(`(?m)^(panic:|fatal error:|goroutine \d+ \[)`)

// stop sends SIGTERM and requires a clean drain: exit code 0 and no panic on
// stderr.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal daemon: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exit after SIGTERM: %v\n%s", err, d.log())
		}
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not exit within 20s of SIGTERM\n%s", d.log())
	}
	if log := d.log(); panicLine.MatchString(log) {
		return fmt.Errorf("daemon stderr shows a panic:\n%s", log)
	}
	return nil
}

// kill is the error-path teardown: no drain, no verdict.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) { return procTicks(d.cmd.Process.Pid) }

// procTicks reads a process's user+system CPU time from /proc/<pid>/stat.
// The comm field may hold spaces, so fields are counted from the closing
// parenthesis.
func procTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return utime + stime, nil
}

// tickMicros is the length of one /proc clock tick: USER_HZ is 100 on every
// Linux ABI Go supports.
const tickMicros = 10000

// rssMiB returns the daemon's resident set size from /proc/<pid>/status.
func (d *daemon) rssMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}
