package server

// Wait/lease torture for the front end: a connection parks at every batch
// boundary (its session back in the pool, its goroutine in the netpoller)
// and leases a session again when bytes arrive. These tests pin the cycle
// under pipelined batches racing the release, torn commands dribbling across
// waits, tenant stickiness, a spurious wake (one whose read finds nothing),
// which must release its session and leave the idle deadline alone, shutdown
// with a thousand connections parked, the pool shrinking as connections
// close, the gauges, and the allocation gate proving a release/lease cycle and
// a spurious wake cost nothing amortized.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cliffhanger/internal/protocol"
)

// waitParked blocks until exactly n connections wait without a session. A
// response reaches the client just before its connection releases the
// session, so this is the barrier to pass before poking a quiet connection.
func waitParked(t *testing.T, srv *Server, n int64) {
	t.Helper()
	waitCond(t, func() bool { return srv.ConnStats().ParkedConnections == n }, fmt.Sprintf("parked == %d", n))
}

// TestParkWakeBasic: one connection parks and wakes across requests
// separated by silence, answering correctly every time, holding no session
// while quiet, and reusing the one session the pool built.
func TestParkWakeBasic(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	if _, err := io.WriteString(conn, "set k 0 0 5\r\nhello\r\n"); err != nil {
		t.Fatal(err)
	}
	if line, _ := r.ReadString('\n'); strings.TrimRight(line, "\r\n") != "STORED" {
		t.Fatalf("set = %q", line)
	}

	for i := 1; i <= 5; i++ {
		waitParked(t, srv, 1)
		if got := srv.ConnStats().ActiveSessions; got != 0 {
			t.Fatalf("active_sessions = %d while parked, want 0", got)
		}
		if _, err := io.WriteString(conn, "get k\r\n"); err != nil {
			t.Fatal(err)
		}
		line, _ := r.ReadString('\n')
		if !strings.HasPrefix(line, "VALUE k 0 5") {
			t.Fatalf("wake %d: VALUE line = %q", i, line)
		}
		if data, _ := r.ReadString('\n'); strings.TrimRight(data, "\r\n") != "hello" {
			t.Fatalf("wake %d: data = %q", i, data)
		}
		if end, _ := r.ReadString('\n'); strings.TrimRight(end, "\r\n") != "END" {
			t.Fatalf("wake %d: end = %q", i, end)
		}
	}
	if got := srv.ConnStats().BufferPoolBytes; got != 2*sessionBufSize {
		t.Fatalf("buffer_pool_bytes = %d, want one session's %d", got, 2*sessionBufSize)
	}
}

// TestParkTenantStickiness: the tenant a connection selected must survive
// waits even though the session serving each batch comes from the pool.
func TestParkTenantStickiness(t *testing.T) {
	srv, st := startGovernedServer(t, Config{})
	if err := st.RegisterTenant("app1", 8<<20); err != nil {
		t.Fatal(err)
	}
	// A second connection's batches take sessions from the same pool, so
	// whatever tenant a pooled session last served, the first connection
	// must get its own back.
	other := dialTest(t, srv)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	roundTrip := func(req, wantPrefix string) {
		t.Helper()
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, wantPrefix) {
			t.Fatalf("%q -> %q (%v), want prefix %q", req, line, err, wantPrefix)
		}
	}

	roundTrip("tenant app1\r\n", "TENANT")
	waitParked(t, srv, 2) // park with app1 selected
	if err := other.Set("sticky", []byte("no")); err != nil {
		t.Fatal(err)
	}
	roundTrip("set sticky 0 0 2\r\nok\r\n", "STORED")
	waitParked(t, srv, 2) // park again

	v, ok, err := st.GetItemView("app1", []byte("sticky"))
	if err != nil || !ok || string(v.Value) != "ok" {
		t.Fatalf("key not in app1: ok=%v err=%v", ok, err)
	}
	v.Release()
	roundTrip("get sticky\r\n", "VALUE sticky 0 2")
	if data, _ := r.ReadString('\n'); strings.TrimRight(data, "\r\n") != "ok" {
		t.Fatalf("woken connection read %q from the wrong tenant", data)
	}
	r.ReadString('\n')
}

// TestParkTornCommandAcrossWakes dribbles complete commands byte by byte,
// so every command's first byte wakes a parked connection and the rest
// arrives while it holds a session mid-command. Every response must be exact
// and the connection must park between commands.
func TestParkTornCommandAcrossWakes(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{ReadTimeout: 10 * time.Second})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	const rounds = 6
	for i := 0; i < rounds; i++ {
		waitParked(t, srv, 1) // quiet between commands => parked
		cmd := fmt.Sprintf("set torn%d 0 0 5\r\nv%04d\r\n", i, i)
		for j := 0; j < len(cmd); j++ {
			if _, err := conn.Write([]byte{cmd[j]}); err != nil {
				t.Fatalf("round %d byte %d: %v", i, j, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		line, err := r.ReadString('\n')
		if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
			t.Fatalf("round %d: %q, %v", i, line, err)
		}
	}
	c := dialTest(t, srv)
	defer c.Close()
	for i := 0; i < rounds; i++ {
		v, ok, err := c.Get(fmt.Sprintf("torn%d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("torn%d = %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestParkWakeRaceBatches is the torture race: concurrent connections fire
// pipelined batches with randomized gaps, so batches land while connections
// are releasing their sessions, waiting, and leasing again. Every response
// must come back exact, under -race.
func TestParkWakeRaceBatches(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})

	const (
		conns  = 8
		rounds = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < rounds; i++ {
				depth := 1 + rng.Intn(6)
				var req bytes.Buffer
				for d := 0; d < depth; d++ {
					fmt.Fprintf(&req, "set race-%d-%d 0 0 4\r\n%04d\r\n", w, d, i)
				}
				if _, err := conn.Write(req.Bytes()); err != nil {
					errs <- fmt.Errorf("conn %d round %d write: %w", w, i, err)
					return
				}
				for d := 0; d < depth; d++ {
					line, err := r.ReadString('\n')
					if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
						errs <- fmt.Errorf("conn %d round %d resp %d: %q %v", w, i, d, line, err)
						return
					}
				}
				time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if srv.ConnStats().ConnPanics != 0 {
		t.Fatalf("conn_panics = %d", srv.ConnStats().ConnPanics)
	}
}

// TestIdleConnectionsHoldNoSession: connections that pipelined a set and a
// get as two segments and then went quiet must all be parked, holding no
// session: stats counts every one in parked_connections and leases only the
// stats connection's own session. (That a wake which finds nothing to read
// leases no session either is pinned by TestParkIdleReapNoDataWake.)
func TestIdleConnectionsHoldNoSession(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})
	const n = 200
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		key := fmt.Sprintf("quiet-%d", i)
		if _, err := fmt.Fprintf(conn, "set %s 0 0 1\r\nx\r\n", key); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(conn, "get %s\r\n", key); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		for _, want := range []string{"STORED", "VALUE " + key + " 0 1", "x", "END"} {
			if line, err := r.ReadString('\n'); err != nil || strings.TrimRight(line, "\r\n") != want {
				t.Fatalf("conn %d: %q (%v), want %q", i, line, err, want)
			}
		}
	}
	waitParked(t, srv, n)

	stats, err := dialTest(t, srv).Stats()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"parked_connections": n, "active_sessions": 1, "curr_connections": n + 1} {
		if got, err := stats.Int(name); err != nil || got != want {
			t.Errorf("%s = %d (%v), want %d", name, got, err, want)
		}
	}
}

// TestSessionPoolShrinksOnClose: connections serving batches at the same
// moment each build a session; the pool keeps them while those connections
// stay open, and sheds them as the connections close, so a burst does not pin
// 128 KiB per batch for the life of the process.
func TestSessionPoolShrinksOnClose(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})
	const n = 16
	var arrived atomic.Int32
	all := make(chan struct{})
	srv.testHookCommand = func(*protocol.Command) {
		if arrived.Add(1) == n {
			close(all)
		}
		<-all
	}
	conns := make([]net.Conn, n)
	for i := range conns {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "version\r\n"); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	<-all
	for i, conn := range conns {
		if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
			t.Fatalf("conn %d: %q (%v)", i, line, err)
		}
	}
	waitParked(t, srv, n)
	pooled := func(sessions int64) func() bool {
		return func() bool { return srv.ConnStats().BufferPoolBytes == sessions*2*sessionBufSize }
	}
	if !pooled(n)() {
		t.Fatalf("buffer_pool_bytes = %d after %d concurrent batches, want %d sessions", srv.ConnStats().BufferPoolBytes, n, n)
	}

	for _, conn := range conns[n/2:] {
		conn.Close()
	}
	waitCond(t, pooled(n/2), fmt.Sprintf("buffer_pool_bytes to fall to %d sessions with %d connections open", n/2, n/2))
	for _, conn := range conns[:n/2] {
		conn.Close()
	}
	waitCond(t, pooled(0), "buffer_pool_bytes to fall to 0 with every connection closed")
}

// probedConn is an accepted connection whose looks at the socket through
// RawConn.Read (the wait's, and the first read's after a wake) a test can
// watch and hold off, and whose deadline arms it counts. With no rc it hides
// its descriptor, so the connection takes the descriptor-less wait path.
type probedConn struct {
	net.Conn
	rc syscall.RawConn
	// waiting says the last look found nothing to read, so the connection
	// waits in the netpoller; a look clears it before it takes hold, and a
	// locked hold keeps the look from happening.
	waiting        atomic.Bool
	hold           sync.Mutex
	deadlines      atomic.Int32 // read deadlines armed
	writeDeadlines atomic.Int32
	// f is the callback of the RawConn.Read in progress and lookFn the
	// wrapper that watches and holds it; lookFn and stealFn are bound once so
	// that a look and a steal allocate nothing.
	f, lookFn func(uintptr) bool
	stealFn   func(uintptr)
	stolen    bool
}

// serveProbed hands srv one end of a loopback connection wrapped in a
// probedConn, as the accept loop would, and returns the other end. fdless
// hides the server end's descriptor.
func serveProbed(t *testing.T, srv *Server, fdless bool) (*probedConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	probed := &probedConn{Conn: accepted}
	probed.lookFn, probed.stealFn = probed.look, probed.recvOne
	if !fdless {
		if probed.rc, err = accepted.(*net.TCPConn).SyscallConn(); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	srv.conns[probed] = struct{}{}
	srv.mu.Unlock()
	srv.total.Add(1)
	srv.curr.Add(1)
	srv.wg.Add(1)
	go srv.serveConn(probed)
	return probed, conn
}

func (c *probedConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *probedConn) SetWriteDeadline(t time.Time) error {
	c.writeDeadlines.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

func (c *probedConn) SyscallConn() (syscall.RawConn, error) {
	if c.rc == nil {
		return nil, errors.New("descriptor hidden")
	}
	return probedRawConn{c}, nil
}

func (c *probedConn) look(fd uintptr) bool {
	c.waiting.Store(false)
	c.hold.Lock()
	done := c.f(fd)
	c.hold.Unlock()
	c.waiting.Store(!done)
	return done
}

// wakeForNothing makes a spurious wake on purpose: it wakes the connection's
// wait with one byte, steals the byte back before the wake can look, then
// waits until the connection waits again. It allocates nothing.
func wakeForNothing(t *testing.T, srv *Server, probed *probedConn, conn net.Conn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	pause := func() {
		if time.Now().After(deadline) {
			t.Fatal("timed out around a spurious wake")
		}
		time.Sleep(20 * time.Microsecond)
	}
	for !probed.waiting.Load() {
		pause()
	}
	wakes := srv.spurious.Load()
	func() {
		probed.hold.Lock()
		defer probed.hold.Unlock()
		if _, err := conn.Write(oneByte); err != nil {
			t.Fatal(err)
		}
		for probed.waiting.Load() {
			pause()
		}
		for !probed.steal() {
			pause()
		}
	}()
	for srv.spurious.Load() == wakes || !probed.waiting.Load() {
		pause()
	}
}

var oneByte = []byte{'x'}

// steal reads one byte off the server end's socket, under the server's feet,
// and reports whether there was one.
func (c *probedConn) steal() bool {
	c.stolen = false
	c.rc.Control(c.stealFn)
	return c.stolen
}

func (c *probedConn) recvOne(fd uintptr) {
	var b [1]byte
	n, _, _ := syscall.Recvfrom(int(fd), b[:], syscall.MSG_DONTWAIT)
	c.stolen = n == 1
}

type probedRawConn struct{ c *probedConn }

func (r probedRawConn) Read(f func(uintptr) bool) error {
	r.c.f = f
	return r.c.rc.Read(r.c.lookFn)
}

func (r probedRawConn) Write(f func(uintptr) bool) error { return r.c.rc.Write(f) }
func (r probedRawConn) Control(f func(uintptr)) error    { return r.c.rc.Control(f) }

// TestParkIdleReapNoDataWake: a connection woken for a byte that is gone by
// the time it reads (here a byte the test reads off the socket underneath it)
// leases a session, reads nothing, counts in spurious_wakes and goes back to
// waiting without the session and without arming a deadline. Its idle
// deadline runs from the last batch boundary; the deadline armed when the
// connection arrived, a quarter period before that boundary, fires early and
// must be re-armed, not obeyed. When the owed one expires the connection
// closes and counts in conn_timeouts.
func TestParkIdleReapNoDataWake(t *testing.T) {
	const (
		idle  = 600 * time.Millisecond
		slack = 150 * time.Millisecond
	)
	srv, _ := startGovernedServer(t, Config{IdleTimeout: idle})
	probed, conn := serveProbed(t, srv, false)

	time.Sleep(idle / 4)
	r := bufio.NewReader(conn)
	sent := time.Now()
	io.WriteString(conn, "version\r\n")
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version = %q, %v", line, err)
	}
	answered := time.Now()
	waitParked(t, srv, 1)
	time.Sleep(idle / 3) // well inside the wait
	armed := probed.deadlines.Load()
	// The netpoller may have woken the wait for the version bytes once more
	// already; that is a spurious wake too.
	wakes := srv.ConnStats().SpuriousWakes

	wakeForNothing(t, srv, probed, conn)
	if cs := srv.ConnStats(); cs.ActiveSessions != 0 || cs.SpuriousWakes != wakes+1 {
		t.Fatalf("active_sessions = %d, spurious_wakes = %d after a wake that read nothing, want 0 and %d",
			cs.ActiveSessions, cs.SpuriousWakes, wakes+1)
	}
	if got := probed.deadlines.Load(); got != armed {
		t.Fatalf("a wake that read nothing armed %d read deadlines, want none", got-armed)
	}

	conn.SetReadDeadline(time.Now().Add(2 * idle))
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("reaped connection: read %v, want EOF", err)
	}
	reaped := time.Now()
	if reaped.Before(sent.Add(idle)) || reaped.After(answered.Add(idle+slack)) {
		t.Fatalf("reaped %v after the last response, want within [%v, %v]", reaped.Sub(answered), idle, idle+slack)
	}
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts == 1 }, "idle reap -> conn_timeouts")
	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 0 }, "reaped conn released")
}

// TestParkShutdownThousandsParked: Shutdown with a thousand-plus parked
// connections must drain clean — nil error, every peer sees EOF, zero
// conn_timeouts, zero leaked goroutines — with no session ever leased for
// them.
func TestParkShutdownThousandsParked(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _ := startGovernedServer(t, Config{IdleTimeout: time.Hour})

	const n = 1200
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, conn)
	}
	waitParked(t, srv, n)
	if cs := srv.ConnStats(); cs.BufferPoolBytes != 0 {
		t.Fatalf("buffer_pool_bytes = %d with every conn parked since accept, want 0", cs.BufferPoolBytes)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	if got := srv.ConnStats().ConnTimeouts; got != 0 {
		t.Fatalf("conn_timeouts = %d after drain, want 0", got)
	}
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("conn %d after drain: want EOF, got %v", i, err)
		}
	}
	waitGoroutinesBelow(t, baseline)
}

// TestAllocGateParkWake pins the CI gate on the cycle every batch boundary
// runs — release the session, wait in the netpoller under the idle deadline,
// lease a session, read without waiting, serve, write under the write
// deadline — at 0 allocations amortized, and on the cycle a spurious wake runs
// — lease, read nothing, release, wait again — too: every iteration is one of
// each.
func TestAllocGateParkWake(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{IdleTimeout: time.Minute, ReadTimeout: time.Minute, WriteTimeout: time.Minute})
	probed, conn := serveProbed(t, srv, false)

	req := []byte("get gatekey\r\nset gatekey 0 0 3\r\nval\r\n")
	buf := make([]byte, 256)
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		// One batch -> one flush: read until the STORED terminator.
		got := 0
		for !bytes.HasSuffix(buf[:got], []byte("STORED\r\n")) {
			n, err := conn.Read(buf[got:])
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	cycle := func() {
		roundTrip()
		wakeForNothing(t, srv, probed, conn)
	}

	// Warm up: the first lease builds the session, the scratch buffers size
	// themselves.
	for i := 0; i < 10; i++ {
		cycle()
	}

	allocs := testing.AllocsPerRun(100, cycle)
	if allocs > 0.5 {
		t.Fatalf("release/lease cycle with a spurious wake allocates %.2f/op, want 0 amortized", allocs)
	}
	// The netpoller may add spurious wakes of its own: an edge it reports
	// late, for bytes a batch already read.
	if got := srv.ConnStats().SpuriousWakes; got < 111 {
		t.Fatalf("spurious_wakes = %d, want at least one per cycle (111)", got)
	}
}

// TestParkStatsServed: the front-end gauges travel the whole distance —
// pool and connection counts -> "stats" wire lines -> the client's reader —
// and report a truthful picture while three connections sit parked and a
// fourth is mid-batch asking for the stats.
func TestParkStatsServed(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})

	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprintf(conn, "set statskey%d 0 0 1\r\nx\r\n", i); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	waitParked(t, srv, 3)

	c := dialTest(t, srv)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	gauge := func(name string) int64 {
		t.Helper()
		n, err := stats.Int(name)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := gauge("parked_connections"); n != 3 {
		t.Fatalf("parked_connections = %d, want 3", n)
	}
	// The stats request itself is being served, so its session is leased.
	if n := gauge("active_sessions"); n != 1 {
		t.Fatalf("active_sessions = %d, want 1", n)
	}
	if curr, total := gauge("curr_connections"), gauge("total_connections"); curr != 4 || total != 4 {
		t.Fatalf("curr/total connections = %d/%d, want 4/4", curr, total)
	}
	if n, max := gauge("buffer_pool_bytes"), int64(4*2*sessionBufSize); n < 2*sessionBufSize || n > max {
		t.Fatalf("buffer_pool_bytes = %d, want within [%d, %d]", n, 2*sessionBufSize, max)
	}
	if n := gauge("mem_inuse_bytes"); n <= 0 {
		t.Fatalf("mem_inuse_bytes = %d, want > 0", n)
	}
	if panics, rejected := gauge("conn_panics"), gauge("rejected_connections"); panics != 0 || rejected != 0 {
		t.Fatalf("panics/rejected = %d/%d, want 0/0", panics, rejected)
	}

	// Once the stats client falls silent it parks too.
	waitParked(t, srv, 4)
	if got := srv.ConnStats().ActiveSessions; got != 0 {
		t.Fatalf("active_sessions = %d after the stats client idles, want 0", got)
	}
}
