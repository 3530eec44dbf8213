package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/netpoll"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/server"
)

// The layers that need a real socket, measured in process: netpoll, the bare
// loopback round trip, the client, and both front ends of the server.

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair() (a, b *net.TCPConn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	accepted, err := ln.Accept()
	if err != nil {
		dialed.Close()
		return nil, nil, err
	}
	return dialed.(*net.TCPConn), accepted.(*net.TCPConn), nil
}

func (l *layers) netpoll() error {
	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	ready := make(chan time.Time, 1)
	poller, err := netpoll.New(func(uint64) { ready <- time.Now() })
	if err != nil {
		return err
	}
	rc, err := b.SyscallConn()
	if err != nil {
		return err
	}
	if err := poller.Add(rc, 1); err != nil {
		return err
	}
	var wake, rearm []float64
	one := []byte{'x'}
	for i := 0; i < rttCalls; i++ {
		sent := time.Now()
		if _, err := a.Write(one); err != nil {
			return err
		}
		woke := <-ready
		wake = append(wake, float64(woke.Sub(sent).Nanoseconds()))
		if _, err := b.Read(one); err != nil {
			return err
		}
		start := time.Now()
		if err := poller.Arm(1); err != nil {
			return err
		}
		rearm = append(rearm, float64(time.Since(start).Nanoseconds()))
	}
	if err := poller.Remove(1); err != nil {
		return err
	}
	b.Close()
	if err := poller.Close(); err != nil {
		return err
	}
	l.set("netpoll.wake_us", micros(median(wake)), "us")
	l.set("netpoll.rearm_ns", median(rearm), "ns")
	return nil
}

// responder answers every line it reads with one canned GET response, doing
// as little as a peer can: it is what the client and the bare socket are
// timed against.
type responder struct {
	ln     net.Listener
	canned []byte
	wg     sync.WaitGroup
}

// cannedResponse is the answer to a GET of key that hits value.
func cannedResponse(key, value []byte) []byte {
	out := protocol.AppendValueHeader(nil, key, 0, len(value), 0, false)
	return append(append(out, value...), "\r\nEND\r\n"...)
}

func startResponder(key, value []byte) (*responder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &responder{ln: ln, canned: cannedResponse(key, value)}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				defer c.Close()
				in := make([]byte, 64<<10)
				var out []byte
				for {
					n, err := c.Read(in)
					if err != nil {
						return
					}
					out = out[:0]
					for i := bytes.Count(in[:n], []byte{'\n'}); i > 0; i-- {
						out = append(out, r.canned...)
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return r, nil
}

// stop closes the listener; the per-connection goroutines end when their
// clients close.
func (r *responder) stop() { r.ln.Close(); r.wg.Wait() }

// medianRTT is the median duration of rttCalls calls of fn, after a tenth as
// many untimed.
func medianRTT(fn func() error) (float64, error) {
	for i := 0; i < rttCalls/10; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	d := make([]float64, rttCalls)
	for i := range d {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(d), nil
}

// socketCosts are the round-trip medians, in ns per call, at one depth.
type socketCosts struct{ loopback, client, classic, parked float64 }

// sockets measures everything that crosses a real socket in process: the
// bare loopback round trip, the client against the canned responder, and the
// two front ends of an in-process server over a resident key set.
func (l *layers) sockets() error {
	rs, err := l.newResidentSet()
	if err != nil {
		return err
	}
	defer rs.st.Close()
	keys := make([]string, len(rs.reqs))
	var keyLen, valLen int
	for i, r := range rs.reqs {
		keys[i] = l.p.keys[r.key]
		keyLen += len(keys[i])
		valLen += len(l.p.value(r.key, r.size))
	}
	avgKey := bytes.Repeat([]byte("k"), max(keyLen/len(keys), 1))
	avgVal := bytes.Repeat([]byte("v"), valLen/len(keys))
	resp, err := startResponder(avgKey, avgVal)
	if err != nil {
		return err
	}
	defer resp.stop()

	starts := make(map[int]*server.Server)
	for _, workers := range []int{0, 2} {
		srv := server.New(server.Config{Addr: "127.0.0.1:0", DefaultTenant: residentTenant, Workers: workers}, rs.st)
		if err := srv.Start(); err != nil {
			return err
		}
		defer srv.Close()
		starts[workers] = srv
	}

	depthOfWorkload := l.p.spec.depth
	if ops, calls := l.p.sat.ops(), len(l.p.sat.calls[0])+len(l.p.sat.calls[1]); calls > 0 {
		depthOfWorkload = max(1, (ops+calls/2)/calls)
	}
	costs := make(map[int]socketCosts)
	for _, depth := range []int{1, 64, depthOfWorkload} {
		depth = min(depth, len(keys))
		if _, done := costs[depth]; done {
			continue
		}
		var c socketCosts
		if c.loopback, err = l.rawRTT(resp, avgKey, depth); err != nil {
			return err
		}
		at := 0
		next := func() []string {
			if at+depth > len(keys) {
				at = 0
			}
			at += depth
			return keys[at-depth : at]
		}
		get := func(addr string) (float64, error) {
			cl, err := client.Dial(addr, 5*time.Second)
			if err != nil {
				return 0, err
			}
			defer cl.Close()
			return medianRTT(func() error { return cl.PipelineGetFunc(next(), func(int, []byte, uint32, uint64, []byte) {}) })
		}
		if c.client, err = get(resp.ln.Addr().String()); err != nil {
			return err
		}
		if c.classic, err = get(starts[0].Addr()); err != nil {
			return err
		}
		if c.parked, err = get(starts[2].Addr()); err != nil {
			return err
		}
		costs[depth] = c
	}
	d1, d64 := costs[1], costs[min(64, len(keys))]
	l.set("loopback.rtt_us_d1", micros(d1.loopback), "us")
	l.set("loopback.ns_per_op_d64", d64.loopback/64, "ns")
	l.set("client.get_ns_per_op_d1", d1.client-d1.loopback, "ns")
	l.set("client.get_ns_per_op_d64", (d64.client-d64.loopback)/64, "ns")
	l.set("server.rtt_us_d1.classic", micros(d1.classic), "us")
	l.set("server.rtt_us_d1.parked", micros(d1.parked), "us")
	l.set("server.ns_per_op_d64.classic", d64.classic/64, "ns")
	l.set("server.ns_per_op_d64.parked", d64.parked/64, "ns")
	// What the front end itself costs a GET hit: the server's round trip
	// less everything under and around it.
	inside := l.out["protocol.parse_ns.get"].Value + l.out["store.get_hit_ns"].Value + l.out["protocol.respond_ns.value"].Value
	self := func(c socketCosts, depth int) float64 { return (c.classic-c.client)/float64(depth) - inside }
	l.set("server.self_ns_per_op_d1", self(d1, 1), "ns")
	l.set("server.self_ns_per_op_d64", self(d64, 64), "ns")
	dw := costs[min(depthOfWorkload, len(keys))]
	l.wireNs = dw.client/float64(depthOfWorkload) + self(dw, depthOfWorkload)
	l.notes = append(l.notes, fmt.Sprintf("ledger: socket costs taken at depth %d, the closed-loop phase's commands per call", depthOfWorkload))

	// Allocations of the client's pipelined GET, whole process, per key.
	cl, err := client.Dial(resp.ln.Addr().String(), 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	batch := keys[:min(64, len(keys))]
	before := mallocs()
	const calls = 500
	for i := 0; i < calls; i++ {
		if err := cl.PipelineGetFunc(batch, func(int, []byte, uint32, uint64, []byte) {}); err != nil {
			return err
		}
	}
	l.set("client.allocs_per_op", float64(mallocs()-before)/float64(calls*len(batch)), "count")

	// Accepting a connection and answering its first request.
	addr := starts[0].Addr()
	setup, err := medianRTT(func() error {
		c, err := client.Dial(addr, 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		_, _, err = c.Get(keys[0])
		return err
	})
	if err != nil {
		return err
	}
	l.set("server.conn_setup_us", micros(setup), "us")
	return nil
}

// rawRTT is the median round trip of depth GET-sized lines written straight
// to a socket and the canned responses read back: what the kernel and
// loopback TCP cost with no client and no server.
func (l *layers) rawRTT(resp *responder, key []byte, depth int) (float64, error) {
	c, err := net.Dial("tcp", resp.ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var req []byte
	for i := 0; i < depth; i++ {
		req = append(append(append(req, "get "...), key...), '\r', '\n')
	}
	in := make([]byte, depth*len(resp.canned))
	return medianRTT(func() error {
		if _, err := c.Write(req); err != nil {
			return err
		}
		_, err := io.ReadFull(c, in)
		return err
	})
}
