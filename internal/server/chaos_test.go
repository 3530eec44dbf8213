package server

// The chaos suite (run by `make chaos` under GOMAXPROCS=4 -race) drives the
// connection governor and graceful drain through injected faults — resets
// mid-payload, slow-loris dribbles, half-closed sockets, accept storms,
// poisoned handlers — and asserts the robustness contract: the daemon never
// panics, never leaks a session goroutine, keeps the arena conservation
// audit exact, and healthy clients sharing the server with a chaotic cohort
// complete with zero failed requests. Each scenario runs as the subtest
// "parked": its connections wait for every batch in the netpoller holding no
// session, as every connection the server serves does.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cliffhanger/internal/chaos"
	"cliffhanger/internal/client"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/store"
)

// startGovernedServer boots a server with the given governor config over a
// fresh cliffhanger-mode store. The caller owns shutdown (srv.Close is still
// registered as a backstop, it is idempotent).
func startGovernedServer(t *testing.T, cfg Config) (*Server, *store.Store) {
	t.Helper()
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger})
	if err := st.RegisterTenant("default", 32<<20); err != nil {
		t.Fatal(err)
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	srv := New(cfg, st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.serve(ln)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, st
}

// waitGoroutinesBelow asserts the goroutine count settles back to at most
// want, dumping all stacks on failure — the leak check behind satellite 1.
func waitGoroutinesBelow(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosStormHealthyCohort is the headline acceptance test: a chaotic
// cohort hammers the server through a fault-injecting proxy (latency,
// single-digit-byte partial writes, connections torn mid-payload by a byte
// budget) while a healthy cohort runs the same mixed workload directly.
// The healthy cohort must finish with zero failed requests, the server must
// neither panic nor leak goroutines, and the arena conservation audit must
// balance to the byte afterwards.
func TestChaosStormHealthyCohort(t *testing.T) {
	t.Run("parked", chaosStormHealthyCohort)
}

func chaosStormHealthyCohort(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, st := startGovernedServer(t, Config{
		MaxConns:    128,
		IdleTimeout: 2 * time.Second, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second,
	})

	proxy := chaos.New(chaos.Config{
		Target:          srv.Addr(),
		Latency:         200 * time.Microsecond,
		Jitter:          300 * time.Microsecond,
		ChunkSize:       7,
		ResetAfterBytes: 2048,
		Seed:            1,
	})
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	const (
		chaoticWorkers = 8
		healthyWorkers = 4
		opsPerWorker   = 60
	)
	var wg sync.WaitGroup
	healthyErrs := make(chan error, healthyWorkers)

	// Chaotic cohort: each worker keeps one client whose proxied link dies
	// mid-stream every 2 KiB; errors are expected and the client's
	// poison-and-reconnect discipline dials a fresh (equally doomed) link.
	for w := 0; w < chaoticWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(proxy.Addr(), 2*time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			for op := 0; op < opsPerWorker; op++ {
				key := fmt.Sprintf("chaos-%d-%d", w, op%16)
				c.Set(key, bytes.Repeat([]byte{byte('a' + w)}, 64+op))
				c.Get(key)
			}
		}(w)
	}
	// Healthy cohort: direct connections, retries enabled; every request
	// must succeed even while the chaotic cohort tears connections.
	for w := 0; w < healthyWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialOptions(srv.Addr(), client.Options{
				DialTimeout: 2 * time.Second,
				OpTimeout:   2 * time.Second,
				MaxRetries:  3,
			})
			if err != nil {
				healthyErrs <- fmt.Errorf("healthy dial: %w", err)
				return
			}
			defer c.Close()
			for op := 0; op < opsPerWorker; op++ {
				key := fmt.Sprintf("healthy-%d-%d", w, op%16)
				val := bytes.Repeat([]byte{byte('A' + w)}, 128)
				if err := c.Set(key, val); err != nil {
					healthyErrs <- fmt.Errorf("healthy set %s: %w", key, err)
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					healthyErrs <- fmt.Errorf("healthy get %s: ok=%v err=%v", key, ok, err)
					return
				}
			}
			healthyErrs <- nil
		}(w)
	}
	wg.Wait()
	for i := 0; i < healthyWorkers; i++ {
		if err := <-healthyErrs; err != nil {
			t.Errorf("healthy cohort failure: %v", err)
		}
	}

	proxy.Close()
	if proxy.Resets() == 0 {
		t.Fatal("chaos proxy injected no resets; the storm tested nothing")
	}

	// Traffic quiesced: the arena must balance to the byte.
	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 0 }, "connections to drain")
	if err := st.AuditConservation("default"); err != nil {
		t.Fatalf("arena conservation after chaos storm: %v", err)
	}
	stats := srv.ConnStats()
	if stats.ConnPanics != 0 {
		t.Fatalf("conn_panics = %d after storm, want 0", stats.ConnPanics)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	waitGoroutinesBelow(t, baseline)
}

// tornStorageCommand is the wire image of a complete storage command; the
// torn-command tests replay every proper prefix of it.
const tornStorageCommand = "set tornkey 0 0 5\r\nhello\r\n"

// TestChaosTornStorageEveryByteBoundary tears a storage command at every
// byte boundary — header, mid-header, mid-payload, mid-terminator — by
// writing the prefix and slamming the connection shut with an RST. The
// server must survive every one of them and keep serving.
func TestChaosTornStorageEveryByteBoundary(t *testing.T) {
	t.Run("parked", chaosTornStorageEveryByteBoundary)
}

func chaosTornStorageEveryByteBoundary(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, st := startGovernedServer(t, Config{IdleTimeout: time.Second, ReadTimeout: time.Second})

	for i := 0; i < len(tornStorageCommand); i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if _, err := io.WriteString(conn, tornStorageCommand[:i]); err != nil {
				t.Fatalf("prefix %d: %v", i, err)
			}
		}
		// RST rather than FIN on odd boundaries: both teardown shapes must
		// be survivable.
		if i%2 == 1 {
			conn.(*net.TCPConn).SetLinger(0)
		}
		conn.Close()
	}

	// The server is still healthy: a full round trip works and the torn key
	// never landed.
	c := dialTest(t, srv)
	if _, ok, err := c.Get("tornkey"); err != nil || ok {
		t.Fatalf("torn set must not land: ok=%v err=%v", ok, err)
	}
	if err := c.Set("after-torture", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 0 }, "torn conns to drain")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	waitGoroutinesBelow(t, baseline)
}

// TestChaosTornMidPayloadViaProxy replays a full workload through the chaos
// proxy with a byte budget landing mid-payload, proving the proxy-shaped
// tear (partial data block forwarded, then RST) is as survivable as the raw
// one.
func TestChaosTornMidPayloadViaProxy(t *testing.T) {
	t.Run("parked", chaosTornMidPayloadViaProxy)
}

func chaosTornMidPayloadViaProxy(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{IdleTimeout: time.Second, ReadTimeout: time.Second})

	// Budgets chosen to tear inside the header, at the header/payload seam,
	// and inside the data block.
	for _, budget := range []int64{3, 17, 19, 22, 24} {
		proxy := chaos.New(chaos.Config{Target: srv.Addr(), ResetAfterBytes: budget, ChunkSize: 1})
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(conn, tornStorageCommand)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		io.Copy(io.Discard, conn) // wait for the tear
		conn.Close()
		waitCond(t, func() bool { return proxy.Resets() == 1 }, "proxy reset")
		proxy.Close()
	}

	c := dialTest(t, srv)
	defer c.Close()
	if _, ok, err := c.Get("tornkey"); err != nil || ok {
		t.Fatalf("torn set must not land: ok=%v err=%v", ok, err)
	}
	if err := c.Set("proxy-torture", []byte("alive")); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSlowLoris proves the per-command read deadline is absolute: a
// client dribbling a storage command one byte at a time — each byte well
// inside any per-read window — is torn down once the whole command overruns
// ReadTimeout, freeing the session goroutine and counting a conn timeout.
func TestChaosSlowLoris(t *testing.T) {
	t.Run("parked", chaosSlowLoris)
}

func chaosSlowLoris(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, st := startGovernedServer(t, Config{IdleTimeout: 5 * time.Second, ReadTimeout: 300 * time.Millisecond})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	var torn bool
	for i := 0; i < len(tornStorageCommand); i++ {
		if _, err := io.WriteString(conn, tornStorageCommand[i:i+1]); err != nil {
			torn = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !torn {
		// Writes may keep succeeding into socket buffers after the server
		// closed; the read surfaces the teardown.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("slow-loris connection survived; read deadline never fired")
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("teardown took %v, want roughly ReadTimeout", elapsed)
	}
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts >= 1 }, "conn_timeouts")
	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 0 }, "session teardown")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	waitGoroutinesBelow(t, baseline)
}

// TestChaosIdleTimeout proves a connection that completes a command and then
// goes silent is reaped by the idle deadline (and only then).
func TestChaosIdleTimeout(t *testing.T) {
	t.Run("parked", chaosIdleTimeout)
}

func chaosIdleTimeout(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{IdleTimeout: 250 * time.Millisecond})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "version\r\n"); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version = %q, %v", line, err)
	}
	// Now idle. The server must close the connection around IdleTimeout.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("idle connection was never reaped")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle reap took %v, want about 250ms", elapsed)
	}
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts == 1 }, "conn_timeouts")
}

// TestChaosAcceptStormMaxConns floods a MaxConns-capped server: the excess
// connections must be answered "SERVER_ERROR too many connections" and
// counted, the admitted ones must keep working, and a freed slot must be
// reusable.
func TestChaosAcceptStormMaxConns(t *testing.T) {
	t.Run("parked", chaosAcceptStormMaxConns)
}

func chaosAcceptStormMaxConns(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{MaxConns: 2, IdleTimeout: 10 * time.Second})

	// Fill both slots with round-tripped (therefore registered) sessions.
	admitted := make([]*client.Client, 2)
	for i := range admitted {
		c := dialTest(t, srv)
		if _, err := c.Version(); err != nil {
			t.Fatal(err)
		}
		admitted[i] = c
	}

	// Storm the full server: every extra connection must be shed with the
	// in-band error, never left hanging.
	const storm = 16
	for i := 0; i < storm; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatalf("storm conn %d: %v", i, err)
		}
		if strings.TrimRight(line, "\r\n") != "SERVER_ERROR too many connections" {
			t.Fatalf("storm conn %d: got %q", i, line)
		}
		conn.Close()
	}
	if got := srv.ConnStats().RejectedConnections; got != storm {
		t.Fatalf("rejected_connections = %d, want %d", got, storm)
	}
	// The admitted sessions were untouched by the storm.
	for _, c := range admitted {
		if _, err := c.Version(); err != nil {
			t.Fatalf("admitted conn broken by storm: %v", err)
		}
	}
	// A freed slot readmits.
	admitted[0].Close()
	waitCond(t, func() bool {
		c, err := client.Dial(srv.Addr(), time.Second)
		if err != nil {
			return false
		}
		defer c.Close()
		_, err = c.Version()
		return err == nil
	}, "slot to free after close")
	admitted[1].Close()
}

// TestChaosPanicRecovery plants a panicking handler behind one magic key:
// the session serving it must die alone — counted in conn_panics — while
// the daemon and every other connection keep working.
func TestChaosPanicRecovery(t *testing.T) {
	t.Run("parked", chaosPanicRecovery)
}

func chaosPanicRecovery(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})
	srv.testHookCommand = func(cmd *protocol.Command) {
		if len(cmd.Keys) == 1 && string(cmd.Keys[0]) == "boom" {
			panic("injected handler fault")
		}
	}

	bystander := dialTest(t, srv)
	defer bystander.Close()
	if err := bystander.Set("safe", []byte("v")); err != nil {
		t.Fatal(err)
	}

	victim, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	io.WriteString(victim, "get boom\r\n")
	victim.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := victim.Read(make([]byte, 64)); err == nil {
		t.Fatal("poisoned session answered instead of dying")
	}

	waitCond(t, func() bool { return srv.ConnStats().ConnPanics == 1 }, "conn_panics")
	// The daemon survived: the bystander session still works, and so do new
	// connections.
	if v, ok, err := bystander.Get("safe"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("bystander get after panic = %q %v %v", v, ok, err)
	}
	fresh := dialTest(t, srv)
	defer fresh.Close()
	if _, err := fresh.Version(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosHalfClosedSocket wedges a half-closed socket into the server via
// the proxy's FIN-swallowing fault: the client is gone but the server never
// sees EOF. Only the idle deadline can free the session — and it must.
func TestChaosHalfClosedSocket(t *testing.T) {
	t.Run("parked", chaosHalfClosedSocket)
}

func chaosHalfClosedSocket(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{IdleTimeout: 300 * time.Millisecond})

	proxy := chaos.New(chaos.Config{Target: srv.Addr(), HalfClose: true})
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(conn, "set half 0 0 2\r\nok\r\n")
	r := bufio.NewReader(conn)
	if line, err := r.ReadString('\n'); err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
		t.Fatalf("set through proxy = %q, %v", line, err)
	}
	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 1 }, "session registration")
	// Client goes away; the proxy swallows the FIN so the server-side socket
	// stays half-open.
	conn.(*net.TCPConn).CloseWrite()
	defer conn.Close()

	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 0 }, "idle reap of half-closed socket")
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts == 1 }, "conn_timeouts")
}

// TestChaosShutdownDrainsInFlight pins the drain guarantee: a pipelined
// batch already accepted when Shutdown begins is answered in full — every
// response, then a clean EOF — and Shutdown returns nil well inside its
// deadline.
func TestChaosShutdownDrainsInFlight(t *testing.T) {
	t.Run("parked", chaosShutdownDrainsInFlight)
}

func chaosShutdownDrainsInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _ := startGovernedServer(t, Config{IdleTimeout: 30 * time.Second})

	// Gate the first command of the batch so Shutdown provably begins while
	// the batch is in flight: the hook signals when the session is mid-
	// dispatch, and holds it there until the drain has started.
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	srv.testHookCommand = func(*protocol.Command) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const batch = 16
	var req bytes.Buffer
	for i := 0; i < batch; i++ {
		fmt.Fprintf(&req, "set drain-%d 0 0 4\r\nv%03d\r\n", i, i)
	}
	req.WriteString("version\r\n")
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Only start the drain once the session is provably mid-batch.
	<-entered
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	// Give Shutdown time to stop the listener and flip the drain flag while
	// the batch is still gated, then release it.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < batch; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d lost in drain: %v", i, err)
		}
		if strings.TrimRight(line, "\r\n") != "STORED" {
			t.Fatalf("response %d = %q, want STORED", i, line)
		}
	}
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("final batch response = %q, %v", line, err)
	}
	// Every in-flight response was answered; now the connection must close.
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("after drain want EOF, got %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want nil (clean drain)", err)
	}
	waitGoroutinesBelow(t, baseline)
}

// TestChaosShutdownWakesIdleConns: sessions parked waiting for their next
// command must not stall the drain — Shutdown wakes and retires them
// immediately, without counting them as timeouts.
func TestChaosShutdownWakesIdleConns(t *testing.T) {
	t.Run("parked", chaosShutdownWakesIdleConns)
}

func chaosShutdownWakesIdleConns(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _ := startGovernedServer(t, Config{IdleTimeout: time.Hour})

	conns := make([]net.Conn, 4)
	for i := range conns {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		io.WriteString(conn, "version\r\n")
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	waitCond(t, func() bool { return srv.ConnStats().CurrConnections == 4 }, "sessions idle")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain of idle conns took %v, want immediate wake", elapsed)
	}
	if n := srv.ConnStats().ConnTimeouts; n != 0 {
		t.Fatalf("conn_timeouts = %d after drain, want 0 (drain wake is not a fault)", n)
	}
	for _, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("idle conn after drain: want EOF, got %v", err)
		}
	}
	waitGoroutinesBelow(t, baseline)
}

// TestChaosShutdownForcesStragglers: a session wedged writing to a client
// that never reads cannot drain; the ctx deadline must force it closed and
// Shutdown must report the forced exit.
func TestChaosShutdownForcesStragglers(t *testing.T) {
	t.Run("parked", chaosShutdownForcesStragglers)
}

func chaosShutdownForcesStragglers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _ := startGovernedServer(t, Config{IdleTimeout: time.Hour})

	// Store one value big enough that a deep pipelined GET overfills the
	// socket buffers of a non-reading client, wedging the session in a write.
	seed := dialTest(t, srv)
	big := bytes.Repeat([]byte("x"), 512<<10)
	if err := seed.Set("big", big); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 16; i++ {
		if _, err := io.WriteString(conn, "get big\r\n"); err != nil {
			t.Fatal(err)
		}
	}
	// Never read. Wait until the session is provably wedged mid-write.
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded (forced teardown)", err)
	}
	waitGoroutinesBelow(t, baseline)
}
