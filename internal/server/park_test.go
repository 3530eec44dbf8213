package server

// Park/wake torture for the event-driven front end: correctness of the
// state machine under pipelined batches racing park decisions, torn
// commands dribbling across park/wake cycles, tenant stickiness, idle
// reaping through the timer wheel (with a stubbed clock), shutdown with
// thousands of connections parked, and the allocation gate proving a
// park/wake cycle costs nothing amortized.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkedConfig is the standard parked-mode governor config for these tests:
// a small worker pool and a short linger so tests reach the park point fast.
func parkedConfig() Config {
	return Config{
		Workers:    4,
		ParkLinger: 200 * time.Microsecond,
	}
}

// waitParks blocks until the server's lifetime park counter reaches n.
func waitParks(t *testing.T, srv *Server, n int64) {
	t.Helper()
	waitCond(t, func() bool { return srv.parks.Load() >= n }, fmt.Sprintf("parks >= %d", n))
}

// waitParked blocks until exactly n connections are currently parked. This
// is the right pre-send barrier: after a response, the park lands one linger
// later, so "the conn is parked right now" is the state to wait for before
// poking it awake again.
func waitParked(t *testing.T, srv *Server, n int64) {
	t.Helper()
	waitCond(t, func() bool { return srv.parked.Load() == n }, fmt.Sprintf("parked == %d", n))
}

// TestParkWakeBasic: one connection cycles park -> wake -> park across
// requests separated by silence, answering correctly every time, with the
// parked gauge and park counter moving as the model predicts.
func TestParkWakeBasic(t *testing.T) {
	srv, _ := startGovernedServer(t, parkedConfig())

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
		// Quiet period: the connection must park (no goroutine, no session).
		waitParks(t, srv, int64(i))
		waitCond(t, func() bool { return srv.ConnStats().ParkedConnections == 1 }, "parked gauge")
		if got := srv.ConnStats().ActiveSessions; got != 0 {
			t.Fatalf("active_sessions = %d while parked, want 0", got)
		}
		// Wake it: the same session semantics keep working.
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
	if got := srv.ConnStats().WorkerCount; got != 4 {
		t.Fatalf("worker_count = %d, want 4", got)
	}
	if got := srv.ConnStats().BufferPoolBytes; got <= 0 || got > 4*2*sessionBufSize {
		t.Fatalf("buffer_pool_bytes = %d, want (0, %d]", got, 4*2*sessionBufSize)
	}
}

// TestParkTenantStickiness: the tenant a connection selected must survive
// park/wake cycles even though the session serving it is a different pooled
// object each time.
func TestParkTenantStickiness(t *testing.T) {
	srv, st := startGovernedServer(t, parkedConfig())
	if err := st.RegisterTenant("app1", 8<<20); err != nil {
		t.Fatal(err)
	}

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
	waitParked(t, srv, 1) // park with app1 selected
	roundTrip("set sticky 0 0 2\r\nok\r\n", "STORED")
	waitParked(t, srv, 1) // park again

	// The key must be visible in app1 (via the store) and the woken session
	// must still resolve it.
	v, ok, err := st.GetItemView("app1", []byte("sticky"))
	v.Release()
	if err != nil || !ok {
		t.Fatalf("key not in app1: ok=%v err=%v", ok, err)
	}
	if _, ok, err := st.GetItemView("default", []byte("sticky")); err != nil || ok {
		t.Fatalf("key leaked to default tenant: ok=%v err=%v", ok, err)
	}
	roundTrip("get sticky\r\n", "VALUE sticky 0 2")
	r.ReadString('\n')
	r.ReadString('\n')
}

// TestParkTornCommandAcrossWakes dribbles complete commands byte by byte
// with inter-byte gaps far beyond the linger, so every command's first byte
// wakes a parked connection and the remainder arrives while a worker holds
// it mid-command. Every response must be exact and the connection must have
// parked between commands.
func TestParkTornCommandAcrossWakes(t *testing.T) {
	cfg := parkedConfig()
	cfg.ReadTimeout = 10 * time.Second // mid-command dribble must survive
	srv, _ := startGovernedServer(t, cfg)

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
			time.Sleep(2 * time.Millisecond) // >> linger
		}
		line, err := r.ReadString('\n')
		if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
			t.Fatalf("round %d: %q, %v", i, line, err)
		}
	}
	// All values landed intact.
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
// pipelined batches with randomized gaps straddling the linger window, so
// batches land while connections are parking, just-parked, and waking.
// Every response must come back exact, under -race.
func TestParkWakeRaceBatches(t *testing.T) {
	cfg := parkedConfig()
	cfg.ParkLinger = 100 * time.Microsecond
	srv, _ := startGovernedServer(t, cfg)

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
				// Gap straddling the linger: sometimes the next batch lands
				// while still lingering, sometimes just as the park happens,
				// sometimes well after.
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

// TestParkIdleReapStubClock is the satellite bugfix regression: a parked
// connection has no goroutine watching a read deadline, so only the timer
// wheel can enforce IdleTimeout. Advance the stubbed clock past the idle
// deadline and the reaper must close the parked connection and count it in
// conn_timeouts — it must not live forever just because it parked.
func TestParkIdleReapStubClock(t *testing.T) { testParkIdleReap(t, false) }

// TestParkIdleReapNoDataWake: a wake that reads no bytes (spurious readiness)
// halfway through the idle window re-parks the connection under an already
// advanced clock. The idle window runs from the last completed command, so
// the re-park must not restart it.
func TestParkIdleReapNoDataWake(t *testing.T) { testParkIdleReap(t, true) }

func testParkIdleReap(t *testing.T, noDataWake bool) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var fake atomic.Int64
	fake.Store(start.UnixNano())
	cfg := parkedConfig()
	cfg.IdleTimeout = time.Minute
	cfg.now = func() time.Time { return time.Unix(0, fake.Load()) }
	srv, _ := startGovernedServer(t, cfg)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	io.WriteString(conn, "version\r\n")
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version = %q, %v", line, err)
	}
	// The response is out, so the gauge can only reach 1 through the park
	// that follows the command (an earlier accept-time park was undone by
	// the wake that served it).
	waitParked(t, srv, 1)

	// The wheel's deadline for the conn is what the reaper acts on; it must
	// sit one idle window after the version command whatever happens next.
	checkDeadline := func(when string) {
		t.Helper()
		w := &srv.pr.wheel
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.head == nil || w.head != w.tail {
			t.Fatalf("%s: wheel does not hold exactly the one parked conn", when)
		}
		if want := start.Add(cfg.IdleTimeout); !w.head.deadline.Equal(want) {
			t.Fatalf("%s: wheel deadline = %v, want %v", when, w.head.deadline, want)
		}
	}
	checkDeadline("after the command")

	// Not yet expired: half the idle window passes, the conn must survive.
	fake.Add(int64(30 * time.Second))
	if got := srv.pr.wheel.popExpired(srv.clock(), nil); len(got) != 0 {
		t.Fatalf("%d conns expired after half the idle window, want 0", len(got))
	}
	if noDataWake {
		parks := srv.parks.Load()
		srv.pr.mu.Lock()
		var token uint64
		for token = range srv.pr.conns {
		}
		srv.pr.mu.Unlock()
		srv.connReady(srv.pr, token)
		waitParks(t, srv, parks+1)
		checkDeadline("after the no-data wake")
	}

	// Expired: the wheel must reap it even though it parked "just before"
	// its deadline and owns no goroutine.
	fake.Add(int64(31 * time.Second))
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts == 1 }, "wheel reap -> conn_timeouts")
	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 0 }, "reaped conn released")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("reaped connection still open")
	}
}

// TestParkWheelDeadlineOrder: the reaper only looks at the head, so add must
// keep the list in deadline order even when conns arrive out of order (a
// re-park that served nothing carries an old deadline).
func TestParkWheelDeadlineOrder(t *testing.T) {
	base := time.Unix(1000, 0)
	var w parkWheel
	conns := make([]*parkedConn, 5)
	for i, sec := range []int{3, 1, 4, 2, 3} {
		conns[i] = &parkedConn{token: uint64(sec)}
		w.add(conns[i], base.Add(time.Duration(sec)*time.Second))
	}
	w.remove(conns[3]) // unlink from the middle: deadline 2
	var got []uint64
	for _, pc := range w.popExpired(base.Add(3*time.Second), nil) {
		got = append(got, pc.token)
	}
	if fmt.Sprint(got) != "[1 3 3]" {
		t.Fatalf("popExpired order = %v, want [1 3 3]", got)
	}
	if w.head != conns[2] || w.tail != conns[2] || conns[2].prev != nil || conns[2].next != nil {
		t.Fatalf("wheel should hold only the deadline-4 conn")
	}
}

// TestParkShutdownThousandsParked: Shutdown with a thousand-plus parked
// connections must drain clean — nil error, every peer sees EOF, zero
// conn_timeouts, zero leaked goroutines — proving the sweep releases parked
// connections without needing a goroutine per conn to notice the drain.
func TestParkShutdownThousandsParked(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := parkedConfig()
	cfg.ParkLinger = 100 * time.Microsecond
	cfg.IdleTimeout = time.Hour
	srv, _ := startGovernedServer(t, cfg)

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
	waitCond(t, func() bool { return srv.ConnStats().ParkedConnections == n }, "all conns parked")
	// The whole fleet is parked on the poller: no per-conn goroutines. The
	// runtime floor is workers + reaper + poller + accept + test plumbing.
	if g := runtime.NumGoroutine(); g > baseline+16 {
		t.Fatalf("%d goroutines with %d conns parked, want O(workers)", g, n)
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

// TestAllocGateParkWake pins the satellite CI gate: a full park/wake cycle —
// linger timeout, poller re-arm, readiness wake, session lease, serve, park
// again — allocates nothing amortized. The reaper is off (IdleTimeout 0) so
// the measurement isn't polluted by ticker wakeups, and the conn is forced
// through a real park (parks counter) every iteration.
func TestAllocGateParkWake(t *testing.T) {
	cfg := parkedConfig()
	cfg.Workers = 1
	cfg.ParkLinger = 100 * time.Microsecond
	srv, _ := startGovernedServer(t, cfg)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

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
	awaitPark := func() {
		for srv.parked.Load() != 1 {
			time.Sleep(20 * time.Microsecond)
		}
	}

	// Warm up: first wake materializes the session, first park registers
	// with the poller, the ready queue and scratch buffers size themselves.
	for i := 0; i < 10; i++ {
		awaitPark()
		roundTrip()
	}

	allocs := testing.AllocsPerRun(100, func() {
		awaitPark() // previous iteration's conn must actually park
		roundTrip() // poller wake -> lease session -> serve batch
	})
	if allocs > 0.5 {
		t.Fatalf("park/wake cycle allocates %.2f/op, want 0 amortized", allocs)
	}
}

// TestParkStatsServed: the front-end gauges travel the whole distance —
// server atomics -> "stats" wire lines -> the client's reader — and
// report a truthful picture while three connections sit parked and a fourth
// is mid-session asking for the stats.
func TestParkStatsServed(t *testing.T) {
	srv, _ := startGovernedServer(t, parkedConfig())

	idle := make([]net.Conn, 3)
	for i := range idle {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// A round trip forces the conn through admission and onto a
		// worker; the following silence parks it.
		if _, err := fmt.Fprintf(conn, "set statskey%d 0 0 1\r\nx\r\n", i); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
		idle[i] = conn
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
	// The stats request itself is being served, so its session is live.
	if n := gauge("active_sessions"); n < 1 {
		t.Fatalf("active_sessions = %d, want >= 1", n)
	}
	if n := gauge("worker_count"); n != 4 {
		t.Fatalf("worker_count = %d, want 4", n)
	}
	if curr, total := gauge("curr_connections"), gauge("total_connections"); curr != 4 || total != 4 {
		t.Fatalf("curr/total connections = %d/%d, want 4/4", curr, total)
	}
	if n, max := gauge("buffer_pool_bytes"), int64(4*2*sessionBufSize); n < 0 || n > max {
		t.Fatalf("buffer_pool_bytes = %d, want within [0, %d]", n, max)
	}
	if n := gauge("mem_inuse_bytes"); n <= 0 {
		t.Fatalf("mem_inuse_bytes = %d, want > 0", n)
	}
	if panics, rejected := gauge("conn_panics"), gauge("rejected_connections"); panics != 0 || rejected != 0 {
		t.Fatalf("panics/rejected = %d/%d, want 0/0", panics, rejected)
	}

	// Once the stats client falls silent it parks too and the pool holds
	// every released buffer.
	waitParked(t, srv, 4)
	if got := srv.parked.Load(); got != 4 {
		t.Fatalf("parked gauge = %d after stats client idles, want 4", got)
	}
}
