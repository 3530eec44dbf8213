package client_test

// Resilience tests for the client's failure discipline, driven by scripted
// fake servers that misbehave in controlled ways: poisoned connections are
// never reused (the mid-pipeline desync regression), idempotent reads retry
// across reconnects, storage verbs never do, tenant selection costs no round
// trip of its own and is replayed on every redial, and per-op deadlines fire.

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/protocol"
)

// connScript handles one accepted connection of a fake server. Scripts run
// on background goroutines, so they report failures with t.Errorf.
type connScript func(t *testing.T, conn net.Conn)

// startFake runs a fake server that applies scripts[i] to the i'th accepted
// connection (the last script repeats for any extra connections). It returns
// the address and a live count of accepted connections.
func startFake(t *testing.T, scripts ...connScript) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int32
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			script := scripts[len(scripts)-1]
			if i < len(scripts) {
				script = scripts[i]
			}
			go func() {
				defer conn.Close()
				script(t, conn)
			}()
		}
	}()
	return ln.Addr().String(), &accepted
}

func readCmdLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		return ""
	}
	return strings.TrimRight(line, "\r\n")
}

// readSegment returns what one Read on the server side of conn delivers: a
// request the client flushed once arrives as one segment, a request that
// took two round trips cannot.
func readSegment(conn net.Conn) string {
	buf := make([]byte, 64<<10)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _ := conn.Read(buf)
	return string(buf[:n])
}

// serveSegments answers, on one connection, each expected segment with its
// response in a single Write, and reports the first segment that differs.
func serveSegments(exchange ...[2]string) connScript {
	return func(t *testing.T, conn net.Conn) {
		for i, x := range exchange {
			if got := readSegment(conn); got != x[0] {
				t.Errorf("segment %d = %q, want %q", i, got, x[0])
				return
			}
			conn.Write([]byte(x[1]))
		}
	}
}

const (
	getK       = "get k\r\n"
	valueK     = "VALUE k 0 2\r\nhi\r\nEND\r\n"
	tenantGetK = "tenant app2\r\n" + getK
	ackValueK  = "TENANT\r\n" + valueK
)

func wantHi(t *testing.T, c *client.Client) {
	t.Helper()
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "hi" {
		t.Fatalf("get k = %q %v %v, want hi", v, ok, err)
	}
}

// TestClientPoisonedConnNotReused is the satellite-2 regression test: a
// response torn mid-payload leaves the stream desynced, and the old client
// would keep reading the leftover bytes on the next call, misattributing
// them. The fixed client poisons the connection and redials, so the second
// Get sees a fresh, correct stream.
func TestClientPoisonedConnNotReused(t *testing.T) {
	addr, accepted := startFake(t,
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			if got := readCmdLine(t, r); got != "get a" {
				t.Errorf("conn1 got %q, want get a", got)
			}
			// Announce 5 bytes, deliver 2, hang up: torn mid-payload.
			conn.Write([]byte("VALUE a 0 5\r\nab"))
		},
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			if got := readCmdLine(t, r); got != "get a" {
				t.Errorf("conn2 got %q, want get a (desynced stream reused?)", got)
			}
			conn.Write([]byte("VALUE a 0 1\r\nZ\r\nEND\r\n"))
		},
	)

	c, err := client.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get("a"); err == nil {
		t.Fatal("torn response should surface an error")
	}
	v, ok, err := c.Get("a")
	if err != nil || !ok || string(v) != "Z" {
		t.Fatalf("get after poison = %q %v %v, want Z over a fresh conn", v, ok, err)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("accepted %d conns, want 2 (poisoned conn must not be reused)", n)
	}
}

// TestClientIdempotentRetry: with retries enabled, a GET whose connection
// dies mid-round-trip reconnects and succeeds transparently.
func TestClientIdempotentRetry(t *testing.T) {
	addr, accepted := startFake(t,
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			readCmdLine(t, r) // swallow the get, then die without answering
		},
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			if got := readCmdLine(t, r); got != "get k" {
				t.Errorf("retried conn got %q, want get k", got)
			}
			conn.Write([]byte("VALUE k 0 2\r\nhi\r\nEND\r\n"))
		},
	)

	c, err := client.DialOptions(addr, client.Options{
		DialTimeout: 2 * time.Second,
		MaxRetries:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "hi" {
		t.Fatalf("retried get = %q %v %v", v, ok, err)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("accepted %d conns, want 2 (one failure, one retry)", n)
	}
}

// TestClientStorageNeverRetried: a SET whose connection dies after the bytes
// went out must surface the error — its fate is ambiguous and a retry could
// double-apply — even with retries enabled. The next operation then
// reconnects, proving the failure still poisoned the connection.
func TestClientStorageNeverRetried(t *testing.T) {
	addr, accepted := startFake(t,
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			readCmdLine(t, r) // set header
			readCmdLine(t, r) // payload
			// Die without answering: the client cannot know if it applied.
		},
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			if got := readCmdLine(t, r); got != "version" {
				t.Errorf("conn2 got %q, want version", got)
			}
			conn.Write([]byte("VERSION fake\r\n"))
		},
	)

	c, err := client.DialOptions(addr, client.Options{
		DialTimeout: 2 * time.Second,
		MaxRetries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Set("k", []byte("abc"))
	if err == nil {
		t.Fatal("ambiguous set must surface its error")
	}
	if !client.IsRetryable(err) {
		t.Fatalf("set error %v should classify as retryable transport failure", err)
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("accepted %d conns after failed set, want 1 (storage must not auto-retry)", n)
	}
	if v, err := c.Version(); err != nil || v != "fake" {
		t.Fatalf("version after poisoned set = %q %v, want reconnect + fake", v, err)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("accepted %d conns, want 2 (poisoned conn redialed)", n)
	}
}

// TestClientTenantReplayOnReconnect: a selected tenant must be re-selected
// on every redial, before any retried command goes out.
func TestClientTenantReplayOnReconnect(t *testing.T) {
	addr, _ := startFake(t,
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			if got := readCmdLine(t, r); got != "tenant app2" {
				t.Errorf("conn1 got %q, want tenant app2", got)
			}
			conn.Write([]byte("TENANT\r\n"))
			readCmdLine(t, r) // get k — die without answering
		},
		func(t *testing.T, conn net.Conn) {
			r := bufio.NewReader(conn)
			if got := readCmdLine(t, r); got != "tenant app2" {
				t.Errorf("reconnect sent %q first, want replayed tenant app2", got)
			}
			conn.Write([]byte("TENANT\r\n"))
			if got := readCmdLine(t, r); got != "get k" {
				t.Errorf("conn2 got %q after tenant, want get k", got)
			}
			conn.Write([]byte("VALUE k 0 2\r\nok\r\nEND\r\n"))
		},
	)

	c, err := client.DialOptions(addr, client.Options{
		DialTimeout: 2 * time.Second,
		MaxRetries:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SelectTenant("app2"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "ok" {
		t.Fatalf("get across tenant replay = %q %v %v", v, ok, err)
	}
}

// TestClientOpDeadline: a server that accepts and never answers must not
// hang the client past OpTimeout, and the timeout classifies as retryable.
func TestClientOpDeadline(t *testing.T) {
	addr, _ := startFake(t, func(t *testing.T, conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n')
		time.Sleep(5 * time.Second) // never answer
	})

	c, err := client.DialOptions(addr, client.Options{
		DialTimeout: 2 * time.Second,
		OpTimeout:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, _, err = c.Get("k")
	if err == nil {
		t.Fatal("get against a mute server should time out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("op deadline took %v to fire, want about 100ms", elapsed)
	}
	if !client.IsRetryable(err) {
		t.Fatalf("op timeout %v should classify as retryable", err)
	}
}

// TestClientStreamingNoReplayAfterDelivery: once a streaming get has handed
// values to its callback, a mid-stream transport failure must NOT be
// retried — replaying would re-invoke the callback for values it already
// consumed. The error surfaces instead, marked non-retryable.
func TestClientStreamingNoReplayAfterDelivery(t *testing.T) {
	addr, accepted := startFake(t, func(t *testing.T, conn net.Conn) {
		r := bufio.NewReader(conn)
		readCmdLine(t, r)
		// Deliver one full value, then tear before END.
		conn.Write([]byte("VALUE a 0 1\r\nA\r\n"))
	})

	c, err := client.DialOptions(addr, client.Options{
		DialTimeout: 2 * time.Second,
		MaxRetries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var calls int
	err = c.GetMultiFunc([]string{"a", "b"}, false, func(key []byte, _ uint32, _ uint64, value []byte) {
		calls++
	})
	if err == nil {
		t.Fatal("torn stream should surface an error")
	}
	if client.IsRetryable(err) {
		t.Fatalf("mid-stream failure after delivery should be permanent, got retryable %v", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly 1 (no replay)", calls)
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("accepted %d conns, want 1 (no retry after delivery)", n)
	}
}

// TestClientRemoteErrorsNotRetryable: in-band server errors ride a healthy
// connection; they must classify as fatal so retries don't hammer the
// server with known-bad requests.
func TestClientRemoteErrorsNotRetryable(t *testing.T) {
	if client.IsRetryable(nil) {
		t.Fatal("nil must not be retryable")
	}
	if client.IsRetryable(protocol.ErrRemote) {
		t.Fatal("in-band server errors must not be retryable")
	}
}

// TestClientTenantRidesNextFlush: a selection costs no round trip. The
// tenant line reaches the server in the same segment as the command behind
// it and both answers are read from one; re-selecting the current tenant
// sends nothing; of two selections in a row only the last is sent; the empty
// name is refused and changes nothing.
func TestClientTenantRidesNextFlush(t *testing.T) {
	addr, accepted := startFake(t, serveSegments(
		[2]string{tenantGetK, ackValueK},
		[2]string{getK, valueK},
		[2]string{"tenant b\r\n" + getK, ackValueK},
		[2]string{getK, valueK},
	))
	c, err := client.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, names := range [][]string{{"app2"}, {"app2"}, {"a", "b"}} {
		for _, name := range names {
			if err := c.SelectTenant(name); err != nil {
				t.Fatal(err)
			}
		}
		wantHi(t, c)
	}
	if err := c.SelectTenant(""); err == nil {
		t.Fatal("the empty tenant name must be refused")
	}
	wantHi(t, c)
	if n := accepted.Load(); n != 1 {
		t.Fatalf("accepted %d conns, want 1", n)
	}
}

// TestClientTenantBadAck: anything but TENANT in answer to the tenant line
// means the stream is not where the client thinks it is. The operation that
// carried the line fails with a fatal error (no retry, even with retries
// on), the connection is poisoned, and the next operation redials and tells
// the new connection the tenant again.
func TestClientTenantBadAck(t *testing.T) {
	for _, bad := range []string{"ERROR\r\n", valueK} {
		addr, accepted := startFake(t,
			serveSegments([2]string{tenantGetK, bad}),
			serveSegments([2]string{tenantGetK, ackValueK}),
		)
		c, err := client.DialOptions(addr, client.Options{DialTimeout: 2 * time.Second, MaxRetries: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SelectTenant("app2")
		_, _, err = c.Get("k")
		if err == nil || client.IsRetryable(err) {
			t.Fatalf("ack %q: get = %v, want a fatal error", bad, err)
		}
		if n := accepted.Load(); n != 1 {
			t.Fatalf("ack %q: accepted %d conns after the bad ack, want 1 (not retried)", bad, n)
		}
		wantHi(t, c)
		if n := accepted.Load(); n != 2 {
			t.Fatalf("ack %q: accepted %d conns, want 2 (poisoned conn redialed)", bad, n)
		}
	}
}

// TestClientTenantSelectedOnDeadConn: the connection dies between
// SelectTenant and the operation. An idempotent Get with retries on succeeds
// on the new tenant over a fresh connection; a Set surfaces its error
// unretried, and the operation after it lands on the new tenant.
func TestClientTenantSelectedOnDeadConn(t *testing.T) {
	hangUp := func(*testing.T, net.Conn) {}
	opts := client.Options{DialTimeout: 2 * time.Second, MaxRetries: 2}

	addr, accepted := startFake(t, hangUp, serveSegments([2]string{tenantGetK, ackValueK}))
	c, err := client.DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SelectTenant("app2")
	wantHi(t, c)
	if n := accepted.Load(); n != 2 {
		t.Fatalf("accepted %d conns, want 2 (one dead, one retry)", n)
	}

	addr, accepted = startFake(t, hangUp, serveSegments([2]string{tenantGetK, ackValueK}))
	c, err = client.DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SelectTenant("app2")
	if err := c.Set("k", []byte("abc")); err == nil || !client.IsRetryable(err) {
		t.Fatalf("set on a dead conn = %v, want its transport error", err)
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("accepted %d conns after the failed set, want 1 (storage must not auto-retry)", n)
	}
	wantHi(t, c)
}

// TestClientTenantAcrossClose: Close and the redial behind it forget what
// the old connection had been told and what it still owed, so the first
// operation on the new one sends the current selection once — whether the
// old connection had heard it or not.
func TestClientTenantAcrossClose(t *testing.T) {
	addr, _ := startFake(t,
		serveSegments([2]string{"tenant a\r\n" + getK, ackValueK}),
		serveSegments([2]string{"tenant a\r\n" + getK, ackValueK}),
		serveSegments([2]string{tenantGetK, ackValueK}, [2]string{getK, valueK}),
	)
	c, err := client.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SelectTenant("a")
	wantHi(t, c)
	c.Close()
	wantHi(t, c)
	c.SelectTenant("b")
	c.Close()
	c.SelectTenant("app2")
	wantHi(t, c)
	wantHi(t, c)
}
