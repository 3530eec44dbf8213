//go:build linux

package netpoll

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns a connected client/server TCP pair on loopback.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	<-done
	if cerr != nil || err != nil {
		t.Fatalf("dial: %v accept: %v", cerr, err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func rawConn(t *testing.T, c net.Conn) syscall.RawConn {
	t.Helper()
	rc, err := c.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// withPoller runs the test, as the subtest "platform", against the poller New
// builds.
func withPoller(t *testing.T, fn func(t *testing.T, mk func(func(uint64)) Poller)) {
	t.Run("platform", func(t *testing.T) {
		fn(t, func(cb func(uint64)) Poller {
			p, err := New(cb)
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
	})
}

func waitToken(t *testing.T, ch <-chan uint64, want uint64) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("ready token = %d, want %d", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no readiness event for token %d", want)
	}
}

func expectQuiet(t *testing.T, ch <-chan uint64, d time.Duration) {
	t.Helper()
	select {
	case got := <-ch:
		t.Fatalf("unexpected readiness event for token %d", got)
	case <-time.After(d):
	}
}

func TestPollerWakeOnData(t *testing.T) {
	withPoller(t, func(t *testing.T, mk func(func(uint64)) Poller) {
		ready := make(chan uint64, 16)
		p := mk(func(tok uint64) { ready <- tok })
		client, server := tcpPair(t)
		const token = 42
		if err := p.Add(rawConn(t, server), token); err != nil {
			t.Fatal(err)
		}
		// No data yet: the registration must stay quiet.
		expectQuiet(t, ready, 50*time.Millisecond)

		client.Write([]byte("x"))
		waitToken(t, ready, token)
		// One-shot: more data without a re-arm delivers nothing.
		client.Write([]byte("y"))
		expectQuiet(t, ready, 50*time.Millisecond)

		// Re-arm with bytes still pending: fires immediately
		// (level-triggered), so the park/arm race cannot lose a wake.
		if err := p.Arm(token); err != nil {
			t.Fatal(err)
		}
		waitToken(t, ready, token)

		if err := p.Remove(token); err != nil {
			t.Fatal(err)
		}
		server.Close()
		client.Close()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPollerWakeOnPeerClose(t *testing.T) {
	withPoller(t, func(t *testing.T, mk func(func(uint64)) Poller) {
		ready := make(chan uint64, 16)
		p := mk(func(tok uint64) { ready <- tok })
		client, server := tcpPair(t)
		const token = 7
		if err := p.Add(rawConn(t, server), token); err != nil {
			t.Fatal(err)
		}
		client.Close() // EOF must surface as readiness so the server can reap
		waitToken(t, ready, token)
		p.Remove(token)
		server.Close()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPollerManyTokens(t *testing.T) {
	withPoller(t, func(t *testing.T, mk func(func(uint64)) Poller) {
		ready := make(chan uint64, 64)
		p := mk(func(tok uint64) { ready <- tok })
		const n = 16
		clients := make([]net.Conn, n)
		servers := make([]net.Conn, n)
		for i := 0; i < n; i++ {
			clients[i], servers[i] = tcpPair(t)
			// Tokens deliberately exercise both halves of the packed
			// uint64 so the Fd/Pad round trip is covered.
			if err := p.Add(rawConn(t, servers[i]), uint64(i)<<33|uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			clients[i].Write([]byte("x"))
		}
		for i := 0; i < n; i++ {
			select {
			case tok := <-ready:
				if seen[tok] {
					t.Fatalf("token %d delivered twice", tok)
				}
				seen[tok] = true
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d/%d readiness events", len(seen), n)
			}
		}
		for i := 0; i < n; i++ {
			tok := uint64(i)<<33 | uint64(i)
			if !seen[tok] {
				t.Fatalf("token %d never delivered", tok)
			}
			p.Remove(tok)
			servers[i].Close()
			clients[i].Close()
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPollerClosedOps(t *testing.T) {
	withPoller(t, func(t *testing.T, mk func(func(uint64)) Poller) {
		p := mk(func(uint64) {})
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		_, server := tcpPair(t)
		if err := p.Add(rawConn(t, server), 1); err != ErrClosed {
			t.Fatalf("Add after Close = %v, want ErrClosed", err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("second Close = %v", err)
		}
	})
}
