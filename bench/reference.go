package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// The box this benchmark runs on changes speed: the same commit measures a
// quarter slower in one half hour than in the next, and whole runs are
// affected, so no statistic taken inside one run of the daemon can remove it.
// What can is a second, fixed system measured at neighbouring moments. The
// reference is a child process that answers every line with one canned GET
// response and does nothing else; the load generator exchanges raw bytes
// with it closed loop over two connections, at the workload's depth, in
// short slices between the slices of the closed-loop phase, while the daemon
// is idle. It shares none of the repository's code on either side of the
// socket, so a change to the repository cannot move it, and a slower daemon
// cannot either, while the box's speed moves it as it moves the daemon. The
// two metrics timed in that phase are reported as
//
//	measured × (reference's frozen nominal value ÷ reference measured next to it)
//
// that is, in their own units, at the box's nominal speed; the raw values
// are per-layer metrics (loadgen.raw_*).

// refNominal is what the reference measures at one depth on the seed commit's
// box in a calm hour. The numbers only fix the scale of the normalised
// metrics, so that in a calm hour normalised and raw agree; they are frozen
// with the workloads.
type refNominal struct {
	opsPerS     float64 // closed loop, two connections, commands per second
	cpuUsPerCmd float64 // responder process CPU per command
}

// refNominals is keyed by depth: 64 for hit_d64, 1 for the other workloads,
// whose typical call carries between one and two commands.
var refNominals = map[int]refNominal{
	1:  {opsPerS: 50000, cpuUsPerCmd: 13.3},
	64: {opsPerS: 3000000, cpuUsPerCmd: 0.225},
}

// refKey and refValue shape the reference's traffic like hit_*'s.
const refKey = "bench-1234"

var refValue = make([]byte, hitValue-len(refKey))

// respondMain is the child: it serves until its standard input closes, which
// happens when the parent stops it or dies.
func respondMain() {
	r, err := startResponder([]byte(refKey), refValue)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench respond:", err)
		os.Exit(1)
	}
	fmt.Println(r.ln.Addr().String())
	io.Copy(io.Discard, os.Stdin)
}

type reference struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	conns [nConns]net.Conn
	depth int
	req   []byte
	in    [nConns][]byte
	nom   refNominal
}

func startReference(depth int) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := &reference{cmd: exec.Command(self, "respond"), depth: depth, nom: refNominals[depth]}
	r.cmd.Stderr = os.Stderr
	if r.stdin, err = r.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := r.cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		r.stop()
		return nil, fmt.Errorf("reference did not report its address: %v", err)
	}
	for c := range r.conns {
		if r.conns[c], err = net.Dial("tcp", strings.TrimSpace(addr)); err != nil {
			r.stop()
			return nil, err
		}
		r.in[c] = make([]byte, depth*len(cannedResponse([]byte(refKey), refValue)))
	}
	r.req = []byte(strings.Repeat("get "+refKey+"\r\n", depth))
	return r, nil
}

func (r *reference) stop() {
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
	r.stdin.Close()
	r.cmd.Wait()
}

// call sends one call on connection c and reads its answer.
func (r *reference) call(c int) error {
	if _, err := r.conns[c].Write(r.req); err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	if _, err := io.ReadFull(r.conns[c], r.in[c]); err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	return nil
}

// refSlice is one closed-loop slice of reference traffic.
type refSlice struct {
	ops     int64
	seconds float64
	ticks   int64 // responder CPU over the slice
}

func (s refSlice) opsPerS() float64 { return float64(s.ops) / s.seconds }

// slice keeps one call in flight on both connections for d.
func (r *reference) slice(d time.Duration) (refSlice, error) {
	var out refSlice
	ticks0, err := procTicks(r.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var calls [nConns]int64
	var errs [nConns]error
	for c := range r.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && errs[c] == nil {
				errs[c] = r.call(c)
				calls[c]++
			}
		}(c)
	}
	wg.Wait()
	out.seconds = time.Since(start).Seconds()
	for c := range calls {
		if errs[c] != nil {
			return out, errs[c]
		}
		out.ops += calls[c] * int64(r.depth)
	}
	ticks1, err := procTicks(r.cmd.Process.Pid)
	out.ticks = ticks1 - ticks0
	return out, err
}
