package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestGovernedDeadlinesStayExact: the governor moves a deadline only when the
// armed one would fire late, so on a busy connection the armed read and write
// deadlines are mostly stale, earlier than the ones owed. Each event row keeps
// a connection busy for about 1.5 of its periods, which leaves the armed
// deadline stale, then checks that one event fires no earlier than it is owed
// and within slack of that: an idle reap timed from the last response, a
// slow-loris cut timed from the first byte, and a write to a peer that stops
// reading timed from that write's start. The last row keeps a connection busy
// across three idle periods: it is never reaped, and over 1 000 round trips
// it arms a handful of deadlines, not one or two per round trip. The rows run
// as the subtest "parked", on connections that wait in the netpoller.
func TestGovernedDeadlinesStayExact(t *testing.T) {
	const (
		period = 300 * time.Millisecond
		slack  = 150 * time.Millisecond
		// handful bounds the deadlines armed over three busy periods: about
		// one read and one write deadline per period, plus the first of each.
		handful = 12
	)
	rows := []struct {
		name string
		cfg  Config
		// busy is one round trip of the busy phase.
		busy func(*testing.T, net.Conn, *bufio.Reader)
		// event starts the event and returns when it fired. It is owed a
		// period after some moment in [from, to].
		event func(*testing.T, *Server, net.Conn, *bufio.Reader) (from, to, fired time.Time)
	}{
		{"idle reap", Config{IdleTimeout: period, ReadTimeout: period, WriteTimeout: period}, versionTrip, idleReap},
		{"slow-loris cut", Config{IdleTimeout: 10 * period, ReadTimeout: period}, tornSetTrip, slowLorisCut},
		{"stalled write", Config{IdleTimeout: 10 * period, WriteTimeout: period}, versionTrip, stalledWrite},
		{"command behind a command", Config{IdleTimeout: 10 * period, ReadTimeout: period}, versionTrip, commandBehindCut},
	}
	t.Run("parked", func(t *testing.T) {
		for _, row := range rows {
			t.Run(row.name, func(t *testing.T) {
				srv, _ := startGovernedServer(t, row.cfg)
				_, conn := serveProbed(t, srv)
				r := bufio.NewReader(conn)
				for start := time.Now(); time.Since(start) < period*3/2; {
					row.busy(t, conn, r)
				}
				from, to, fired := row.event(t, srv, conn, r)
				if early, late := from.Add(period), to.Add(period+slack); fired.Before(early) || fired.After(late) {
					t.Fatalf("fired %v after the event began, want within [%v, %v]",
						fired.Sub(from), period, to.Sub(from)+period+slack)
				}
			})
		}

		t.Run("busy across three periods", func(t *testing.T) {
			srv, _ := startGovernedServer(t, Config{IdleTimeout: period, ReadTimeout: period, WriteTimeout: period})
			probed, conn := serveProbed(t, srv)
			r := bufio.NewReader(conn)
			const trips = 1000
			start := time.Now()
			for i := 0; i < trips; i++ {
				time.Sleep(time.Until(start.Add(3 * period * time.Duration(i) / trips)))
				versionTrip(t, conn, r)
			}
			if n := srv.ConnStats().ConnTimeouts; n != 0 {
				t.Fatalf("conn_timeouts = %d on a busy connection, want 0", n)
			}
			reads, writes := probed.deadlines.Load(), probed.writeDeadlines.Load()
			if reads+writes > handful {
				t.Fatalf("%d round trips over %v armed %d read and %d write deadlines, want at most %d in all",
					trips, time.Since(start), reads, writes, handful)
			}
		})
	})
}

func versionTrip(t *testing.T, conn net.Conn, r *bufio.Reader) {
	t.Helper()
	if _, err := io.WriteString(conn, "version\r\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version = %q, %v", line, err)
	}
}

// tornSetTrip sends a set in two segments, so its data block is read under
// the command deadline, which the governor then arms.
func tornSetTrip(t *testing.T, conn net.Conn, r *bufio.Reader) {
	t.Helper()
	if _, err := io.WriteString(conn, "set busy 0 0 1\r\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if _, err := io.WriteString(conn, "x\r\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := r.ReadString('\n'); err != nil || line != "STORED\r\n" {
		t.Fatalf("set = %q, %v", line, err)
	}
}

// awaitClose reads from conn until the server closes it, failing if that
// takes longer than limit, and returns when it did.
func awaitClose(t *testing.T, conn net.Conn, r *bufio.Reader, limit time.Duration) time.Time {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(limit))
	_, err := r.ReadByte()
	closed := time.Now()
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("connection still open after %v: read %v", limit, err)
	}
	return closed
}

// idleReap is owed a period after the last batch boundary, which comes
// between the last request and its response.
func idleReap(t *testing.T, srv *Server, conn net.Conn, r *bufio.Reader) (from, to, fired time.Time) {
	from = time.Now()
	versionTrip(t, conn, r)
	to = time.Now()
	fired = awaitClose(t, conn, r, 5*time.Second)
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts == 1 }, "conn_timeouts")
	return from, to, fired
}

// slowLorisCut dribbles a set one byte every sixth of a period: the cut is
// owed a period after the server reads the first byte.
func slowLorisCut(t *testing.T, srv *Server, conn net.Conn, r *bufio.Reader) (from, to, fired time.Time) {
	const cmd = "set loris 0 0 5\r\nhello\r\n"
	stop, done := make(chan struct{}), make(chan struct{})
	from = time.Now()
	if _, err := io.WriteString(conn, cmd[:1]); err != nil {
		t.Fatal(err)
	}
	to = time.Now()
	go func() {
		defer close(done)
		for i := 1; i < len(cmd); i++ {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := io.WriteString(conn, cmd[i:i+1]); err != nil {
				return
			}
		}
	}()
	fired = awaitClose(t, conn, r, 5*time.Second)
	close(stop)
	<-done
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts == 1 }, "conn_timeouts")
	return from, to, fired
}

// commandBehindCut sends a command with the start of a second behind it in one
// segment, then nothing. The second command's first bytes arrived with the
// first, so the read for its rest is owed the command deadline, not the idle
// one: the cut is owed a period after the server reads the segment.
func commandBehindCut(t *testing.T, srv *Server, conn net.Conn, r *bufio.Reader) (from, to, fired time.Time) {
	from = time.Now()
	if _, err := io.WriteString(conn, "version\r\nget b"); err != nil {
		t.Fatal(err)
	}
	to = time.Now()
	fired = awaitClose(t, conn, r, 5*time.Second)
	waitCond(t, func() bool { return srv.ConnStats().ConnTimeouts == 1 }, "conn_timeouts")
	return from, to, fired
}

// stalledWrite asks for 8 MiB of responses and reads none of them. The write
// that stalls starts once the socket buffers are full, a moment after the
// request goes out, and is owed a period from its start; the connection
// closes when it times out.
func stalledWrite(t *testing.T, srv *Server, conn net.Conn, _ *bufio.Reader) (from, to, fired time.Time) {
	if err := srv.store.SetItemBytes("default", []byte("big"), bytes.Repeat([]byte("x"), 512<<10), 0, 0); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	req := strings.Repeat("get big\r\n", 16)
	from = time.Now()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	to = time.Now()
	for deadline := to.Add(5 * time.Second); srv.ConnStats().CurrConnections != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a write to a peer that stopped reading never timed out")
		}
	}
	return from, to, time.Now()
}
