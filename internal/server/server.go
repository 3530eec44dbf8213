// Package server exposes the multi-tenant cache store over TCP using the
// memcached-style text protocol from internal/protocol. One goroutine serves
// each connection and responses are written pipelined: the handler parses
// ahead while client data is buffered and flushes once per batch, so a
// pipelining client pays one syscall per batch instead of one per command.
// The store shards each tenant's values under striped locks, so connections
// hitting the same hot application still proceed in parallel, mirroring how
// one Cliffhanger instance serves many applications on a Memcachier server.
//
// A connection holds a session (two 64 KiB bufio buffers, the parser and the
// response scratch) only while it has a batch to serve. At each batch
// boundary its goroutine puts the session back in a pool and waits for the
// next byte in the runtime's netpoller through the connection's
// syscall.RawConn, so an idle connection costs its goroutine (a few KiB of
// stack) and its connection state, not 128 KiB of buffers. Every connection
// waits there: one whose descriptor cannot be had is logged and closed, not
// served. The pool grows to the most batches served at once and shrinks as
// connections close, so there are never more sessions than connections once
// one has closed. The stats gauges parked_connections and active_sessions
// count the connections waiting without a session and the sessions leased.
// At depth 1 a batch costs three syscalls (a peek that finds nothing before
// the wait, the read after the wake, the write) and, in the steady state, no
// deadline move: see governedConn and await.
//
// The request path is allocation-free in the steady state: each batch runs
// on a session with a zero-copy protocol.Parser (one reusable Command, keys
// as []byte), a response scratch buffer that VALUE headers and numeric
// replies are assembled into with strconv.Append*, and GET responses are
// streamed one VALUE block at a time as keys are looked up (no []Value
// buffering). Keys cross into the store as []byte: every verb but delete,
// whose string key does not escape the store, has a byte-keyed entry point.
// A get or gets is served with every following command of the same verb
// already whole in the read buffer as one run (handleGet): the lines are scanned
// once (Parser.NextGet), the tenant is resolved once (store.BeginRead) and
// the arena epoch is pinned once, at the run's first hit, and each command
// still gets the answer it would get alone. Value bytes live in the store's
// recycled slab-arena chunks and are streamed zero-copy: the run writes each
// borrowed chunk view straight into the connection writer and releases the
// pin after its last VALUE block is queued — epoch-based quarantine
// guarantees no chunk the run read can be recycled while the pin is held —
// and a SET copies the parse buffer into a recycled chunk, so the only
// steady-state allocation anywhere on the path is the interned key string of
// a first-time SET. The TestAllocGate tests pin this with
// testing.AllocsPerRun.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cliffhanger/internal/metrics"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/store"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:11211". Use ":0" to
	// pick an ephemeral port (the chosen address is available via Addr()).
	Addr string
	// DefaultTenant is the tenant used before a connection issues the
	// tenant verb. It must be registered on the store.
	DefaultTenant string
	// Logger receives error messages; nil discards them.
	Logger *log.Logger

	// MaxConns caps simultaneously served connections (memcached's -c). An
	// accept past the cap is answered "SERVER_ERROR too many connections"
	// and closed, counted in rejected_connections; the listener keeps
	// accepting, so the governor sheds load instead of letting the backlog
	// time clients out invisibly. 0 means unlimited.
	MaxConns int
	// IdleTimeout bounds how long a connection may sit between commands
	// waiting for the first byte of the next one. An expired wait closes
	// the connection and counts in conn_timeouts, freeing its goroutine.
	// 0 disables the idle check.
	IdleTimeout time.Duration
	// ReadTimeout bounds delivery of a single command once its first byte
	// has arrived: the rest of the line and any storage data block must
	// land within it. This is the slow-loris guard — a client dribbling a
	// storage payload one byte at a time tears only its own connection.
	// 0 disables the per-command bound (IdleTimeout, if set, still applies
	// to the read that starts the command).
	ReadTimeout time.Duration
	// WriteTimeout bounds each write toward the client, so a stuck reader
	// (zero-window peer) cannot pin a session goroutine and its buffered
	// responses forever. 0 disables it.
	WriteTimeout time.Duration

	// Workers is ignored: there is one front end. It stays because the
	// benchmark under bench/ still sets it.
	Workers int
}

// Server serves the memcached-style protocol over TCP.
type Server struct {
	cfg   Config
	store *store.Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// closing marks an intentional listener teardown (Close/Shutdown), so
	// the accept loop classifies its error as a clean exit. draining is the
	// graceful-shutdown signal: sessions finish the in-flight pipelined
	// batch, flush, and exit at the next batch boundary.
	closing  atomic.Bool
	draining atomic.Bool

	// Connection-governor counters (memcached-parity stats).
	curr     atomic.Int64
	total    atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64
	spurious atomic.Int64

	// sessions holds the sessions no connection is serving a batch on.
	sessions sessionPool

	// testHookCommand, when set by a test, runs after dispatch accounting
	// for every command. It exists so the per-connection panic recovery can
	// be exercised without planting a bug in a real handler.
	testHookCommand func(*protocol.Command)

	// Latency and throughput instrumentation (Tables 6 and 7). The
	// histograms hold a sample (latencySampleEvery); Ops lags by at most the
	// batch each session is in the middle of.
	GetLatency *metrics.LatencyHistogram
	SetLatency *metrics.LatencyHistogram
	Ops        *metrics.Throughput
}

// ConnStats is a snapshot of the connection governor's counters, served by
// the stats verb with memcached's field names.
type ConnStats struct {
	// CurrConnections is the number of connections being served right now.
	CurrConnections int64
	// TotalConnections counts every connection ever admitted.
	TotalConnections int64
	// RejectedConnections counts accepts refused at the MaxConns cap.
	RejectedConnections int64
	// ConnTimeouts counts connections closed by the idle or per-command
	// read deadline.
	ConnTimeouts int64
	// ConnPanics counts sessions torn down by the per-connection panic
	// recovery (each one would previously have killed the daemon).
	ConnPanics int64
	// ParkedConnections is the number of connections waiting for their
	// next command without a session.
	ParkedConnections int64
	// SpuriousWakes counts netpoller wakes whose read found nothing: the
	// connection leased a session for nothing and went back to waiting.
	SpuriousWakes int64
	// ActiveSessions is the number of sessions leased to connections.
	ActiveSessions int64
	// BufferPoolBytes is the footprint of every session built, leased or
	// pooled: two 64 KiB bufio buffers each.
	BufferPoolBytes int64
}

// ConnStats returns the governor's counter snapshot. The session gauges are
// derived from the pool and the connection count, so serving a batch updates
// no counter for them.
func (s *Server) ConnStats() ConnStats {
	s.sessions.mu.Lock()
	built, pooled := s.sessions.built, int64(len(s.sessions.free))
	s.sessions.mu.Unlock()
	curr := s.curr.Load()
	return ConnStats{
		CurrConnections:     curr,
		TotalConnections:    s.total.Load(),
		RejectedConnections: s.rejected.Load(),
		ConnTimeouts:        s.timeouts.Load(),
		ConnPanics:          s.panics.Load(),
		ParkedConnections:   max(curr-(built-pooled), 0),
		SpuriousWakes:       s.spurious.Load(),
		ActiveSessions:      built - pooled,
		BufferPoolBytes:     built * 2 * sessionBufSize,
	}
}

// New creates a server for the given store.
func New(cfg Config, st *store.Store) *Server {
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	return &Server{
		cfg:        cfg,
		store:      st,
		conns:      make(map[net.Conn]struct{}),
		GetLatency: &metrics.LatencyHistogram{},
		SetLatency: &metrics.LatencyHistogram{},
		Ops:        metrics.NewThroughput(),
	}
}

// Start begins listening and serving in background goroutines.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.serve(ln)
	return nil
}

// serve accepts connections from ln in the background.
func (s *Server) serve(ln net.Listener) {
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

// Addr returns the listener address (useful with ":0").
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener and abruptly closes every connection. In-flight
// commands are torn; use Shutdown for a graceful drain. Close is idempotent
// and safe after Shutdown.
func (s *Server) Close() error {
	s.closing.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting, signals every
// session to finish answering its in-flight pipelined batch, wakes
// connections blocked waiting for their next command, and waits for the
// sessions to exit. If ctx expires first, the stragglers are torn down. The
// store is then flushed and closed so bookkeeping settles — queues, stats
// and arena accounting reflect every answered request. Shutdown returns
// ctx's error when the drain deadline forced connections closed, nil on a
// clean drain. It is idempotent and safe to race with Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.draining.Store(true)
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	if !alreadyClosed && s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()
	// Wake connections waiting for their next command: the expired deadline
	// ends the wait as a timeout, which a drain does not count (responses
	// already queued are flushed on the way out). Sessions mid-batch notice
	// the drain flag at their next batch boundary instead and are not torn.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.store.Flush()
	if err := s.store.Close(); err != nil {
		return err
	}
	return forced
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// A closed listener is how Close/Shutdown stop this loop:
			// classify it as a clean exit, not an error to surface.
			if errors.Is(err, net.ErrClosed) || s.closing.Load() {
				return
			}
			// Transient accept pressure (EMFILE during an accept storm):
			// back off briefly instead of spinning or abandoning the
			// listener.
			s.logf("server: accept: %v", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.rejected.Add(1)
			s.wg.Add(1)
			go s.rejectConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.total.Add(1)
		s.curr.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// rejectConn tells a client the governor is shedding it and hangs up. The
// write gets its own short deadline so a peer that never reads cannot pin
// the goroutine.
func (s *Server) rejectConn(conn net.Conn) {
	defer s.wg.Done()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	io.WriteString(conn, "SERVER_ERROR too many connections\r\n")
	conn.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// governedConn enforces the governor's deadlines at the transport layer, so
// neither the parser nor the handlers need to know about time. The wait for a
// batch's first byte (await) is owed the idle deadline, last batch boundary +
// idle; once that byte has arrived, the rest of the command (line and data
// block) is owed an absolute per-command deadline, first byte + read —
// re-arming per read would let a slow-loris client stay alive forever at one
// byte per interval. A command whose first bytes arrived behind another's is
// owed read from the first read for its rest. Each Write is owed its own
// start + write.
//
// Deadlines are armed lazily. Moving one is a timer-heap operation in the
// runtime, and at the shipped defaults every batch would move two, so the
// connection remembers the deadlines it last armed and moves one only when
// it would fire late: none is armed, or the armed one is later than owed. An
// armed deadline that fires early (a busy connection's stale idle deadline,
// say) surfaces as a timeout that never leaves governedConn: it arms the one
// owed and reads or writes on. A busy connection so arms about one deadline
// of each kind per period instead of two per batch, and no deadline fires
// before it is owed.
//
// The connection's goroutine is the only reader and writer, so the fields
// need no locking; nothing here allocates, which keeps the governed path
// inside the hot-path alloc gates.
type governedConn struct {
	net.Conn
	srv   *Server
	idle  time.Duration
	read  time.Duration
	write time.Duration
	// rc is the descriptor await waits on.
	rc        syscall.RawConn
	inCommand bool
	// owed is the read deadline the current wait or command is owed; rd and
	// wd are the read and write deadlines last armed. Zero means none.
	owed, rd, wd time.Time
	// looked says await's readiness callback has made its one peek. woken
	// says await has just returned: the batch's first read does not wait.
	// spurious says that read found nothing, so the next wait keeps owed.
	looked, woken, spurious bool
	// lookFn and readFn are look and readNow, bound once so that a wait and a
	// read through rc allocate nothing; buf, n and err carry readNow's buffer
	// and result across the callback.
	lookFn, readFn func(uintptr) bool
	buf            []byte
	n              int
	err            error
}

// newGovernedConn wraps conn, with its descriptor rc, in the server's
// deadlines.
func (s *Server) newGovernedConn(conn net.Conn, rc syscall.RawConn) *governedConn {
	g := &governedConn{
		Conn:  conn,
		srv:   s,
		idle:  s.cfg.IdleTimeout,
		read:  s.cfg.ReadTimeout,
		write: s.cfg.WriteTimeout,
		rc:    rc,
	}
	g.lookFn, g.readFn = g.look, g.readNow
	return g
}

// after returns the deadline d from now, or none for d = 0.
func after(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// armLate arms owed if the armed read deadline would fire late.
func (g *governedConn) armLate() {
	if !g.owed.IsZero() && (g.rd.IsZero() || g.rd.After(g.owed)) {
		g.armRead(g.owed)
	}
}

// armRead moves the read deadline to t. Shutdown wakes a wait for a command's
// first byte by expiring its deadline; if the drain began after the
// connection's last look at the flag, the arm just erased that wake-up, so it
// is expired again.
func (g *governedConn) armRead(t time.Time) {
	g.Conn.SetReadDeadline(t)
	g.rd = t
	if !g.inCommand && g.srv.draining.Load() {
		g.rd = time.Now()
		g.Conn.SetReadDeadline(g.rd)
	}
}

// early reports whether err is an armed read deadline that fired before the
// one owed, and if so arms owed, so the caller reads again. A drain's expired
// deadline is never early.
func (g *governedConn) early(err error) bool {
	if !errors.Is(err, os.ErrDeadlineExceeded) || g.srv.draining.Load() {
		return false
	}
	if !g.owed.IsZero() && !time.Now().Before(g.owed) {
		return false
	}
	g.armRead(g.owed)
	return true
}

// Read is the batch's first read after a wake, which starts a command, or a
// read for more of a command: outside one, the read buffer already holds the
// start of the next command, so its rest is owed the command deadline.
func (g *governedConn) Read(p []byte) (int, error) {
	if !g.inCommand && !g.woken {
		g.inCommand = true
		g.owed = after(g.read)
	}
	for {
		g.armLate()
		var n int
		var err error
		if g.woken {
			g.buf = p
			err = g.rc.Read(g.readFn)
			if err == nil {
				n, err = g.n, g.err
			}
			g.buf = nil // p is the session's buffer, which the pool may drop
		} else {
			n, err = g.Conn.Read(p)
		}
		if err != nil && g.early(err) {
			continue
		}
		if g.woken {
			g.woken = false
			if err == errSpuriousWake {
				g.spurious = true
				g.srv.spurious.Add(1)
			}
		}
		if n > 0 && !g.inCommand {
			g.inCommand = true
			g.owed = after(g.read)
		}
		return n, err
	}
}

// errSpuriousWake is the batch's first read after a netpoller wake that
// found nothing to read: step ends the batch and the connection waits again.
var errSpuriousWake = errors.New("server: woken with nothing to read")

// readNow is the RawConn.Read callback of the batch's first read: one read(2)
// that never waits, since a wake that finds nothing must not hold the
// session while it waits again.
func (g *governedConn) readNow(fd uintptr) bool {
	n, err := syscall.Read(int(fd), g.buf)
	for err == syscall.EINTR {
		n, err = syscall.Read(int(fd), g.buf)
	}
	switch {
	case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
		g.n, g.err = 0, errSpuriousWake
	case err != nil:
		g.n, g.err = 0, os.NewSyscallError("read", err)
	case n == 0:
		g.n, g.err = 0, io.EOF
	default:
		g.n, g.err = n, nil
	}
	return true
}

// Write arms start + write only once the armed write deadline has passed.
// Until then the armed one is earlier, and if it fires first Write arms its
// own and carries on with the bytes not yet written. That has to happen here,
// below bufio, whose write errors are sticky.
func (g *governedConn) Write(p []byte) (int, error) {
	if g.write <= 0 {
		return g.Conn.Write(p)
	}
	start := time.Now()
	owed := start.Add(g.write)
	if !start.Before(g.wd) {
		g.armWrite(owed)
	}
	n := 0
	for {
		m, err := g.Conn.Write(p[n:])
		n += m
		if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) || !time.Now().Before(owed) {
			return n, err
		}
		g.armWrite(owed)
	}
}

func (g *governedConn) armWrite(t time.Time) {
	g.Conn.SetWriteDeadline(t)
	g.wd = t
}

// session is the state a connection serves a batch with: the buffered
// reader/writer, the zero-copy parser with its reusable Command, the selected
// tenant and the response scratch buffer. Value bytes are never copied into
// the session: GET streams them from an epoch-pinned arena view. Everything a
// command needs in the steady state is reused across commands and, through
// the pool, across connections, so the request path does not allocate.
type session struct {
	srv    *Server
	r      *bufio.Reader
	w      *bufio.Writer
	parser *protocol.Parser
	tenant string
	// gc is the governed transport under r and w; nil for in-memory
	// sessions (tests). step toggles its command/idle phase.
	gc      *governedConn
	scratch []byte
	// ops counts commands handled since the last batch boundary, where
	// publishOps adds them to the server's meter: one shared atomic per
	// batch, not per command.
	ops int64
	// getSample and setSample pick the commands whose store calls are timed
	// into Server.GetLatency and Server.SetLatency.
	getSample, setSample sampler
}

// latencySampleEvery is the sampling period of the latency histograms: per
// session and per histogram, the store calls of one command in this many are
// timed. Timing every key cost a pipelined GET two clock reads and three
// shared atomics, a tenth of the daemon's CPU at depth 64.
const latencySampleEvery = 64

// sampler counts a session's commands of one kind and picks those to time.
type sampler uint32

// next reports whether the command now starting is to be timed: the first,
// and every latencySampleEvery-th after it.
func (s *sampler) next() bool {
	n := *s
	*s++
	return n%latencySampleEvery == 0
}

// startTimer returns the start time of a store call if it is to be timed,
// else 0.
func startTimer(timed bool) time.Duration {
	if timed {
		return nowNano()
	}
	return 0
}

// stopTimer records in h the latency of a store call that startTimer timed.
func stopTimer(h *metrics.LatencyHistogram, start time.Duration) {
	if start != 0 {
		h.Record(nowNano() - start)
	}
}

// publishOps moves the session's command count into the server's meter.
func (c *session) publishOps() {
	c.srv.Ops.Add(c.ops)
	c.ops = 0
}

// newSession builds a session over the given buffered reader and writer.
func newSession(s *Server, r *bufio.Reader, w *bufio.Writer) *session {
	return &session{
		srv:    s,
		r:      r,
		w:      w,
		parser: protocol.NewParser(r),
		tenant: s.cfg.DefaultTenant,
	}
}

// sessionBufSize is the per-direction bufio size of a session.
const sessionBufSize = 64 << 10

// sessionPool holds the sessions no connection is serving a batch on, the
// most recently released on top, whose buffers are the likeliest to be in
// cache. A lease from an empty pool builds a session, so it never waits; a
// closing connection drops pooled sessions while more exist than connections.
type sessionPool struct {
	mu   sync.Mutex
	free []*session
	// built counts the sessions that exist, leased or pooled.
	built int64
}

// lease hands the connection behind g a session with tenant selected.
func (s *Server) lease(g *governedConn, tenant string) *session {
	p := &s.sessions
	var c *session
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		p.built++
	}
	p.mu.Unlock()
	if c == nil {
		c = newSession(s, bufio.NewReaderSize(g, sessionBufSize), bufio.NewWriterSize(g, sessionBufSize))
	} else {
		c.r.Reset(g)
		c.w.Reset(g)
	}
	c.gc, c.tenant = g, tenant
	return c
}

// release puts c back in the pool. Whatever c still buffers is discarded by
// the next lease.
func (s *Server) release(c *session) {
	s.sessions.mu.Lock()
	s.sessions.free = append(s.sessions.free, c)
	s.sessions.mu.Unlock()
}

// retire is release for a connection that has closed (and left
// curr_connections): it pools c, if the connection held one, then drops
// pooled sessions while more exist than connections. The sessions a burst of
// concurrent batches built so go with the connections that made them.
func (s *Server) retire(c *session) {
	p := &s.sessions
	p.mu.Lock()
	defer p.mu.Unlock()
	if c != nil {
		p.free = append(p.free, c)
	}
	for n := len(p.free); n > 0 && p.built > s.curr.Load(); n-- {
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.built--
	}
}

// serveConn serves one connection on its own goroutine, leasing a session
// for each batch and waiting for the next one without it.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var c *session
	// One poisoned session must never take the daemon down: recover, count,
	// log, and close the connection. Other sessions and the store are
	// untouched — the panicking goroutine held no lock here (store-internal
	// locks are released before values cross the API boundary) — and the
	// session is safe to pool again, since a lease resets its buffers and the
	// parser resets per command.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.logf("server: panic serving %v: %v\n%s", conn.RemoteAddr(), r, debug.Stack())
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.curr.Add(-1)
		s.retire(c)
		conn.Close()
	}()

	rc, err := rawConn(conn)
	if err != nil {
		s.logf("server: %v: %v; closing it", conn.RemoteAddr(), err)
		return
	}
	g := s.newGovernedConn(conn, rc)
	tenant := s.cfg.DefaultTenant
	for s.await(g) {
		c = s.lease(g, tenant)
		if !c.serveBatch() {
			return
		}
		tenant = c.tenant
		s.release(c)
		c = nil
	}
}

// errNoDescriptor is why serveConn closes a connection it cannot wait on.
var errNoDescriptor = errors.New("no descriptor to wait on")

// rawConn returns the descriptor await waits on.
func rawConn(conn net.Conn) (syscall.RawConn, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil, errNoDescriptor
	}
	return sc.SyscallConn()
}

// await parks the connection's goroutine in the runtime's netpoller, holding
// no session, until a byte (or EOF, or an error) is there to read, under the
// idle deadline owed from this batch boundary. RawConn.Read clears the
// readiness the netpoller recorded before it calls look, so look peeks once,
// for bytes that landed since the last read; after a wake it returns at once
// and the batch's first read, which does not wait, takes what woke it. The
// netpoller is edge-triggered and may report bytes the last batch already
// read: that read then finds nothing (errSpuriousWake, counted in
// spurious_wakes), the session goes back to the pool and the connection waits
// here again, still owed the deadline of its last batch boundary. await
// reports false when the deadline, a drain or Close ends the wait; an idle
// expiry outside a drain counts in conn_timeouts. This is the one place the
// idle deadline is armed.
func (s *Server) await(g *governedConn) bool {
	g.inCommand = false
	if g.spurious {
		g.spurious = false
	} else {
		g.owed = after(g.idle)
	}
	for {
		g.armLate()
		g.looked = false
		err := g.rc.Read(g.lookFn)
		if err == nil {
			g.woken = true
			return true
		}
		if g.early(err) {
			continue
		}
		if ne, ok := asNetError(err); ok && ne.Timeout() && !s.draining.Load() {
			s.timeouts.Add(1)
		}
		return false
	}
}

// look is await's RawConn.Read callback: on its first call it reports
// whether the socket is readable, and on the call after a wake it reports
// true without looking.
func (g *governedConn) look(fd uintptr) bool {
	if g.looked {
		return true
	}
	g.looked = true
	return readable(fd)
}

// readable reports whether a read on the non-blocking socket fd would return
// at once: a byte waiting, EOF or an error. It peeks, so it consumes nothing,
// and it does not allocate. A wait calls it once, before it parks, and again
// only after re-arming a deadline that fired early; a wake does not call it.
func readable(fd uintptr) bool {
	var b [1]byte
	n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
	return n > 0 || (err != syscall.EAGAIN && err != syscall.EWOULDBLOCK)
}

// serveBatch runs commands to the batch boundary (every response flushed,
// nothing buffered, no command in flight) and reports whether the
// connection stays open.
func (c *session) serveBatch() bool {
	for c.step() {
		if c.r.Buffered() == 0 {
			return true
		}
	}
	return false
}

// step reads and executes one command, reporting whether the connection
// should keep being served. Responses are written pipelined (memcached
// style): while more client data is already buffered, parsing continues and
// responses queue up; the writer is flushed only once the batch is exhausted,
// i.e. right before the next read could block. A closed-loop client (one
// request at a time) still gets a flush per request.
func (c *session) step() bool {
	if c.gc != nil {
		// Command boundary: a conn read from here on is for the rest of a
		// command whose start is already buffered.
		c.gc.inCommand = false
	}
	cmd, err := c.parser.ReadCommand()
	if err != nil {
		if errors.Is(err, errSpuriousWake) {
			// Nothing was read and nothing is buffered, so serveBatch ends
			// the batch here and the connection waits again.
			return true
		}
		if errors.Is(err, protocol.ErrQuit) || errors.Is(err, io.EOF) {
			return false
		}
		netErr, isNet := asNetError(err)
		if isNet && netErr.Timeout() {
			// A governor deadline fired — a slow-loris command, or the
			// shutdown wake-up. Nothing useful can be said to the peer (it
			// may be gone, and the parser may be mid-command), but
			// responses already queued for answered commands are flushed
			// on the way out so a drain never drops them.
			if c.srv.draining.Load() {
				c.w.Flush()
			} else {
				c.srv.timeouts.Add(1)
			}
			return false
		}
		if writeErr := protocol.WriteLine(c.w, "CLIENT_ERROR "+err.Error()); writeErr != nil {
			return false
		}
		if err := c.w.Flush(); err != nil {
			return false
		}
		// A line past MaxLineLength may have been — and an unparseable
		// <bytes> field definitely was — a storage command whose announced
		// data block is still in the stream; parsing on would execute
		// payload bytes as commands, so the connection must close.
		if errors.Is(err, protocol.ErrLineTooLong) || errors.Is(err, protocol.ErrBadDataSize) {
			return false
		}
		// Unknown commands are recoverable; IO errors are not.
		return !isNet
	}
	if err := c.srv.handle(c, cmd); err != nil {
		c.publishOps()
		c.srv.logf("server: %v", err)
		return false
	}
	if c.r.Buffered() == 0 {
		c.publishOps()
		if err := c.w.Flush(); err != nil {
			return false
		}
		// Batch answered and flushed: if a graceful shutdown is in
		// progress, this is the drain point — exit before blocking on a
		// next command that may never come.
		if c.srv.draining.Load() {
			return false
		}
	}
	return true
}

// asNetError is errors.As(err, &netErr) with a fast path: transport errors
// arrive from the net package unwrapped, so a direct type assertion almost
// always suffices. The errors.As fallback (whose target escapes, costing an
// allocation) only runs for wrapped errors, which keeps the hot error paths
// allocation-free.
func asNetError(err error) (net.Error, bool) {
	if ne, ok := err.(net.Error); ok {
		return ne, true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return ne, true
	}
	return nil, false
}

// count accounts for one command about to be executed.
func (s *Server) count(c *session, cmd *protocol.Command) {
	c.ops++
	if s.testHookCommand != nil {
		s.testHookCommand(cmd)
	}
}

// handle executes one command and writes its response.
func (s *Server) handle(c *session, cmd *protocol.Command) error {
	s.count(c, cmd)
	switch cmd.Name {
	case protocol.VerbTenant:
		// The verb cannot fail: an unknown name is stored like any other and
		// answers SERVER_ERROR from the next command on. A multi-tenant
		// client switches ahead of almost every command, so a switch between
		// registered tenants must not allocate: TenantName hands back the
		// registry's own string for them.
		if string(cmd.Tenant) != c.tenant {
			c.tenant = s.store.TenantName(cmd.Tenant)
		}
		return protocol.WriteLine(c.w, "TENANT")
	case protocol.VerbGet, protocol.VerbGets:
		return s.handleGet(c, cmd)
	case protocol.VerbSet, protocol.VerbAdd, protocol.VerbReplace,
		protocol.VerbAppend, protocol.VerbPrepend, protocol.VerbCas:
		return s.handleSet(c, cmd)
	case protocol.VerbTouch:
		return s.handleTouch(c, cmd)
	case protocol.VerbIncr, protocol.VerbDecr:
		return s.handleIncrDecr(c, cmd)
	case protocol.VerbDelete:
		return s.handleDelete(c, cmd)
	case protocol.VerbStats:
		return s.handleStats(c, cmd)
	case protocol.VerbFlushAll:
		// cmd.ExpTime carries the optional delay: 0 flushes immediately, a
		// future deadline invalidates items last written before it once it
		// passes (memcached flush_all semantics).
		err := s.store.FlushAll(c.tenant, cmd.ExpTime)
		if cmd.NoReply {
			return nil
		}
		if err != nil {
			return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
		}
		return protocol.WriteLine(c.w, "OK")
	case protocol.VerbTenantCreate, protocol.VerbTenantResize, protocol.VerbTenantDelete:
		return s.handleTenantAdmin(c, cmd)
	case protocol.VerbVersion:
		return protocol.WriteLine(c.w, "VERSION cliffhanger-1.0")
	default:
		return protocol.WriteLine(c.w, "ERROR")
	}
}

// MaxTenantMB bounds a tenant reservation given in megabytes — the admin
// verbs' size argument and the daemon's -tenants flag — so the MB→bytes shift
// can never overflow int64 (2^30 MB is 1 PiB — far past any real
// reservation).
const MaxTenantMB = 1 << 30

// handleTenantAdmin executes the runtime tenant lifecycle verbs. create and
// resize carry the reservation in cmd.Delta (megabytes); delete takes just a
// name. Each replies OK on success; lifecycle errors (duplicate create,
// unknown tenant) come back as SERVER_ERROR without dropping the connection.
func (s *Server) handleTenantAdmin(c *session, cmd *protocol.Command) error {
	var err error
	name := string(cmd.Tenant)
	switch cmd.Name {
	case protocol.VerbTenantCreate, protocol.VerbTenantResize:
		if cmd.Delta > MaxTenantMB {
			return protocol.WriteLine(c.w, "CLIENT_ERROR tenant size out of range")
		}
		bytes := int64(cmd.Delta) << 20
		if cmd.Name == protocol.VerbTenantCreate {
			err = s.store.RegisterTenant(name, bytes)
		} else {
			err = s.store.ResizeTenant(name, bytes)
		}
	case protocol.VerbTenantDelete:
		err = s.store.DeleteTenant(name)
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	return protocol.WriteLine(c.w, "OK")
}

// maxRunKeys bounds the keys a run of GETs (handleGet) reads under one
// epoch pin: a run stops taking buffered commands once it has served this
// many keys.
const maxRunKeys = 1024

// handleGet serves cmd and, as one run, every following command of the same
// verb that is already whole in the read buffer in its canonical form
// (protocol.Parser.NextGet): the tenant is resolved once (store.BeginRead)
// and the arena epoch is pinned once, at the run's first hit, and released
// after the run's last VALUE block is queued. Each command gets the answer it
// would get alone: its VALUE blocks in key order, streamed as each key is
// looked up — no []Value is buffered — and its END, or one SERVER_ERROR when
// the tenant is unknown. The value bytes are written zero-copy from the
// pinned arena chunk; the VALUE header is assembled into the session scratch
// with strconv appends.
func (s *Server) handleGet(c *session, cmd *protocol.Command) error {
	r, rerr := s.store.BeginRead(c.tenant)
	defer r.End()
	for n := 0; ; {
		if err := s.serveGet(c, &r, rerr, cmd); err != nil {
			return err
		}
		if n += len(cmd.Keys); n >= maxRunKeys {
			return nil
		}
		if cmd = c.parser.NextGet(); cmd == nil {
			return nil
		}
		s.count(c, cmd)
	}
}

// serveGet answers one command of a run of GETs read through r; rerr is the
// error BeginRead returned for the run, if any.
func (s *Server) serveGet(c *session, r *store.Reader, rerr error, cmd *protocol.Command) error {
	withCAS := cmd.Name == protocol.VerbGets
	timed := c.getSample.next()
	if rerr != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+rerr.Error())
	}
	for _, key := range cmd.Keys {
		start := startTimer(timed)
		view, ok := r.Get(key)
		stopTimer(s.GetLatency, start)
		if !ok {
			continue
		}
		c.scratch = protocol.AppendValueHeader(c.scratch[:0], key, view.Flags, len(view.Value), view.CAS, withCAS)
		if _, err := c.w.Write(c.scratch); err != nil {
			return err
		}
		if _, err := c.w.Write(view.Value); err != nil {
			return err
		}
		if _, err := c.w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	_, err := c.w.WriteString("END\r\n")
	return err
}

func (s *Server) handleSet(c *session, cmd *protocol.Command) error {
	key := cmd.Keys[0]
	start := startTimer(c.setSample.next())
	var (
		stored bool
		err    error
	)
	// Every storage verb copies the parser-owned data block into an arena
	// chunk under the shard lock, and interns the key only for a fresh
	// record, so the reusable parse buffer can be passed through without
	// cloning.
	switch cmd.Name {
	case protocol.VerbSet:
		err = s.store.SetItemBytes(c.tenant, key, cmd.Data, cmd.Flags, cmd.ExpTime)
		stored = err == nil
	case protocol.VerbAdd:
		stored, err = s.store.Add(c.tenant, key, cmd.Data, cmd.Flags, cmd.ExpTime)
	case protocol.VerbReplace:
		stored, err = s.store.Replace(c.tenant, key, cmd.Data, cmd.Flags, cmd.ExpTime)
	case protocol.VerbAppend:
		stored, err = s.store.AppendBytes(c.tenant, key, cmd.Data)
	case protocol.VerbPrepend:
		stored, err = s.store.PrependBytes(c.tenant, key, cmd.Data)
	case protocol.VerbCas:
		res, cerr := s.store.CompareAndSwap(c.tenant, key, cmd.Data, cmd.Flags, cmd.ExpTime, cmd.CAS)
		stopTimer(s.SetLatency, start)
		if cmd.NoReply {
			return nil
		}
		if cerr != nil {
			return protocol.WriteLine(c.w, "SERVER_ERROR "+cerr.Error())
		}
		switch res {
		case store.CASStored:
			return protocol.WriteLine(c.w, "STORED")
		case store.CASExists:
			return protocol.WriteLine(c.w, "EXISTS")
		default:
			return protocol.WriteLine(c.w, "NOT_FOUND")
		}
	}
	stopTimer(s.SetLatency, start)
	if cmd.NoReply {
		return nil
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if !stored {
		return protocol.WriteLine(c.w, "NOT_STORED")
	}
	return protocol.WriteLine(c.w, "STORED")
}

func (s *Server) handleTouch(c *session, cmd *protocol.Command) error {
	start := startTimer(c.setSample.next())
	found, err := s.store.Touch(c.tenant, cmd.Keys[0], cmd.ExpTime)
	stopTimer(s.SetLatency, start)
	if cmd.NoReply {
		return nil
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if !found {
		return protocol.WriteLine(c.w, "NOT_FOUND")
	}
	return protocol.WriteLine(c.w, "TOUCHED")
}

func (s *Server) handleIncrDecr(c *session, cmd *protocol.Command) error {
	var (
		val   uint64
		found bool
		err   error
	)
	start := startTimer(c.setSample.next())
	if cmd.Name == protocol.VerbIncr {
		val, found, err = s.store.Incr(c.tenant, cmd.Keys[0], cmd.Delta)
	} else {
		val, found, err = s.store.Decr(c.tenant, cmd.Keys[0], cmd.Delta)
	}
	stopTimer(s.SetLatency, start)
	if cmd.NoReply {
		return nil
	}
	if errors.Is(err, store.ErrNotNumeric) {
		return protocol.WriteLine(c.w, "CLIENT_ERROR cannot increment or decrement non-numeric value")
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if !found {
		return protocol.WriteLine(c.w, "NOT_FOUND")
	}
	c.scratch = strconv.AppendUint(c.scratch[:0], val, 10)
	c.scratch = append(c.scratch, '\r', '\n')
	_, werr := c.w.Write(c.scratch)
	return werr
}

func (s *Server) handleDelete(c *session, cmd *protocol.Command) error {
	deleted, err := s.store.Delete(c.tenant, string(cmd.Keys[0]))
	if cmd.NoReply {
		return nil
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if deleted {
		return protocol.WriteLine(c.w, "DELETED")
	}
	return protocol.WriteLine(c.w, "NOT_FOUND")
}

// errUnknownStats is Stats' answer to a group it does not render; the stats
// verb replies ERROR to it, like memcached.
var errUnknownStats = errors.New("server: unknown stats group")

// Stats renders one group of the stats verb as the wire carries it, in order.
// With no args it is tenant's plain group; "slabs" is tenant's arena by slab
// class; "arbiter" is every tenant's arbitration state (tenant is not read);
// "cliffhanger" is the paper's algorithm state of tenant, or of the tenant
// named by a second argument. This is the one place a stats field is named:
// the stats verb writes the list, cmd/cliffhangerd's log line and -stats-json
// read it, and the client returns it as a map. An unknown group is
// errUnknownStats and a tenant that is not registered the store's error.
func (s *Server) Stats(tenant string, args ...string) ([]protocol.Stat, error) {
	switch {
	case len(args) == 0:
		return s.plainStats(tenant)
	case args[0] == "cliffhanger" && len(args) <= 2:
		if len(args) == 2 {
			tenant = args[1]
		}
		return s.cliffhangerStats(tenant)
	case args[0] == "slabs" && len(args) == 1:
		return s.slabStats(tenant)
	case args[0] == "arbiter" && len(args) == 1:
		return s.arbiterStats(), nil
	}
	return nil, errUnknownStats
}

func (s *Server) handleStats(c *session, cmd *protocol.Command) error {
	args := make([]string, len(cmd.Keys))
	for i, k := range cmd.Keys {
		args[i] = string(k)
	}
	stats, err := s.Stats(c.tenant, args...)
	if errors.Is(err, errUnknownStats) {
		return protocol.WriteLine(c.w, "ERROR")
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	return protocol.WriteStats(c.w, stats)
}

// statList is a stats group being rendered, in wire order.
type statList []protocol.Stat

func (l *statList) add(name, value string) {
	*l = append(*l, protocol.Stat{Name: name, Value: value})
}

func (l *statList) num(name string, v int64) { l.add(name, strconv.FormatInt(v, 10)) }

// ratio writes a fraction with four decimals.
func (l *statList) ratio(name string, v float64) { l.add(name, strconv.FormatFloat(v, 'f', 4, 64)) }

// plainStats is the plain "stats" group: the tenant's request counters, the
// process-wide connection governor and front-end gauges (memcached field
// names), the tenant's arena, reclamation, page-pool and arbitration state,
// the sampled latency p99s, and a hit rate per slab class.
func (s *Server) plainStats(tenant string) (statList, error) {
	st, err := s.store.Stats(tenant)
	if err != nil {
		return nil, err
	}
	// Arena occupancy: total carved bytes and the fraction backing resident
	// values (chunks in use over chunks carved).
	var arenaBytes, usedChunkBytes, totalChunkBytes int64
	if classes, err := s.store.SlabStats(tenant); err == nil {
		arenaBytes, usedChunkBytes, totalChunkBytes = store.SumArenaStats(classes)
	}
	occupancy := 0.0
	if totalChunkBytes > 0 {
		occupancy = float64(usedChunkBytes) / float64(totalChunkBytes)
	}
	rs, _ := s.store.ReclaimStats(tenant)
	ps := s.store.PageStats()
	cs := s.ConnStats()
	as := s.store.ArbiterStats()
	at := as.Tenants[tenant]
	// Heap+stack in use lets a harness compute the front end's bytes per
	// connection from one stats call (mem_inuse_bytes / curr_connections).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var l statList
	l.add("tenant", tenant)
	l.num("cmd_get", st.Requests)
	l.num("get_hits", st.Hits)
	// The part of get_hits served within the hit window: keys still in their
	// queue's front segment, whose hits emitted no event.
	l.num("get_hits_unpromoted", st.HitsUnpromoted)
	l.num("get_misses", st.Misses)
	l.ratio("hit_rate", st.HitRate())
	l.num("cmd_set", st.Sets)
	l.num("cmd_touch", st.Touches)
	l.num("touch_hits", st.TouchHits)
	l.num("expired", st.Expired)
	// Averaged since the server started, not over a recent window.
	l.add("ops_per_sec", strconv.FormatFloat(s.Ops.Rate(), 'f', 0, 64))
	l.num("curr_connections", cs.CurrConnections)
	l.num("total_connections", cs.TotalConnections)
	l.num("rejected_connections", cs.RejectedConnections)
	l.num("conn_timeouts", cs.ConnTimeouts)
	l.num("conn_panics", cs.ConnPanics)
	l.num("parked_connections", cs.ParkedConnections)
	l.num("spurious_wakes", cs.SpuriousWakes)
	l.num("active_sessions", cs.ActiveSessions)
	l.num("buffer_pool_bytes", cs.BufferPoolBytes)
	l.add("mem_inuse_bytes", strconv.FormatUint(ms.HeapInuse+ms.StackInuse, 10))
	l.num("arena_bytes", arenaBytes)
	l.ratio("arena_occupancy", occupancy)
	// Epoch-based reclamation: the global epoch, chunks in quarantine
	// awaiting recycle, and the lifetime count of frees deferred through it.
	l.add("epoch_current", strconv.FormatUint(rs.Epoch, 10))
	l.num("epoch_quarantined_chunks", rs.QuarantinedChunks)
	l.num("epoch_deferred_frees", rs.DeferredFrees)
	// The process-wide page pool and this tenant's lease from it.
	l.num("page_pool_total", ps.TotalPages)
	l.num("page_pool_free", ps.FreePages)
	l.num("lease_pages", ps.Leases[tenant])
	// What the arbiter sees: the floor it honours, the reservation it is
	// converging to, and the signal it ranks the tenant by.
	l.num("reserved_pages", at.ReservedPages)
	l.num("target_bytes", at.TargetBytes)
	l.add("marginal_hit_per_byte", strconv.FormatFloat(at.MarginalHitPerByte, 'g', -1, 64))
	l.num("arbiter_moves", as.Moves)
	// Sampled (latencySampleEvery) store-call latencies, process-wide.
	l.num("get_p99_us", s.GetLatency.Quantile(0.99).Microseconds())
	l.num("set_p99_us", s.SetLatency.Quantile(0.99).Microseconds())
	for _, cl := range st.Classes {
		hr := 0.0
		if cl.Requests > 0 {
			hr = float64(cl.Hits) / float64(cl.Requests)
		}
		l.ratio(fmt.Sprintf("class_%d_hit_rate", cl.Class), hr)
	}
	return l, nil
}

// arbiterStats is "stats arbiter": the process-wide move count and last
// move, then every tenant's arbitration-facing state ("<tenant>:<field>") —
// lease/reserved pages, the reservation target, the two hit-rate-per-byte
// estimates, and whether the tenant participates in arbitration at all.
// Tenants come in sorted order so an operator can watch memory migrate
// between them with a watch loop.
func (s *Server) arbiterStats() statList {
	as := s.store.ArbiterStats()
	var l statList
	l.num("arbiter_moves", as.Moves)
	l.add("arbiter_last_move", as.LastMove)
	names := make([]string, 0, len(as.Tenants))
	for n := range as.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := as.Tenants[n]
		l.add(n+":arbitrated", strconv.FormatBool(t.Arbitrated))
		l.num(n+":lease_pages", t.LeasePages)
		l.num(n+":reserved_pages", t.ReservedPages)
		l.num(n+":target_bytes", t.TargetBytes)
		l.add(n+":marginal_hit_per_byte", strconv.FormatFloat(t.MarginalHitPerByte, 'g', -1, 64))
		l.add(n+":hit_density_per_byte", strconv.FormatFloat(t.HitDensityPerByte, 'g', -1, 64))
	}
	return l
}

// cliffhangerStats is "stats cliffhanger [tenant]": the paper's algorithm
// state for one tenant, otherwise visible only to tests. First the part of
// the reservation that no class queue has been granted yet, in whole pages
// and in bytes — while there is any, the tenant is not under memory pressure
// and must neither evict nor move a cliff pointer — then one
// "<queue>:<field>" group per class queue that has seen traffic: its
// hill-climbing capacity and credit balance, the cliff-scaling split (request
// ratio, both pointers, both partitions' applied capacities) and the event
// counters that moved them. It is read under the bookkeeper's lock like
// "stats" and costs the request path nothing. A tenant in another allocation
// mode has no queues to show.
func (s *Server) cliffhangerStats(tenant string) (statList, error) {
	queues, freeBytes, err := s.store.QueueSnapshots(tenant)
	if err != nil {
		return nil, err
	}
	var l statList
	l.add("tenant", tenant)
	l.num("free_pages", freeBytes/s.store.PageStats().PageSize)
	l.num("free_bytes", freeBytes)
	for _, q := range queues {
		if q.Stats.Requests == 0 && q.Items == 0 {
			continue
		}
		num := func(field string, v int64) { l.num(q.ID+":"+field, v) }
		split := int64(0)
		if q.Split {
			split = 1
		}
		num("capacity", q.Capacity)
		num("applied_capacity", q.AppliedCapacity)
		num("used", q.Used)
		num("items", int64(q.Items))
		num("credits", q.Credits)
		num("split", split)
		l.ratio(q.ID+":ratio", q.Ratio)
		num("left_pointer", q.LeftPointer)
		num("right_pointer", q.RightPointer)
		num("left_capacity", q.LeftCapacity)
		num("right_capacity", q.RightCapacity)
		num("requests", q.Stats.Requests)
		num("hits", q.Stats.Hits)
		num("shadow_hits", q.Stats.ShadowHits)
		num("cliff_shadow_hits", q.Stats.CliffShadowHits)
		num("left_tail_events", q.Stats.LeftTailEvents)
		num("right_tail_events", q.Stats.RightTailEvents)
		num("left_cliff_events", q.Stats.LeftCliffEvents)
		num("right_cliff_events", q.Stats.RightCliffEvents)
		num("stale_pointer_events", q.Stats.StalePointerEvents)
		num("relax_events", q.Stats.RelaxEvents)
		num("resizes", q.Stats.Resizes)
		num("evictions", q.Stats.Evictions)
	}
	return l, nil
}

// slabStats is memcached's "stats slabs" from the tenant's arena accounting:
// per active class the chunk size, leased pages and used/free/quarantined/
// uncarved chunk counts, then the cross-class page count and total arena
// bytes (memcached's active_slabs / total_malloced footer).
func (s *Server) slabStats(tenant string) (statList, error) {
	classes, err := s.store.SlabStats(tenant)
	if err != nil {
		return nil, err
	}
	var l statList
	active := 0
	var totalBytes, totalPages int64
	for _, cl := range classes {
		if cl.Pages == 0 {
			continue
		}
		active++
		totalPages += cl.Pages
		totalBytes += cl.ArenaBytes()
		prefix := strconv.Itoa(cl.Class) + ":"
		l.num(prefix+"chunk_size", cl.ChunkSize)
		l.num(prefix+"total_pages", cl.Pages)
		l.num(prefix+"total_chunks", cl.TotalChunks)
		l.num(prefix+"used_chunks", cl.UsedChunks)
		l.num(prefix+"free_chunks", cl.FreeChunks)
		l.num(prefix+"quarantined_chunks", cl.QuarantinedChunks)
		l.num(prefix+"uncarved_chunks", cl.UncarvedChunks)
		l.num(prefix+"mem_requested", cl.UsedChunks*cl.ChunkSize)
	}
	l.num("active_slabs", int64(active))
	l.num("total_pages", totalPages)
	l.num("total_malloced", totalBytes)
	return l, nil
}
