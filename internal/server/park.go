package server

import (
	"bufio"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cliffhanger/internal/netpoll"
)

// The event-driven front end (Config.Workers > 0) breaks the one-goroutine-
// one-connection coupling: a connection with no pending bytes is PARKED —
// its worker goroutine and 64 KiB session buffers go back to their pools and
// the bare connection is registered with the netpoll poller — so steady-state
// front-end memory is O(active connections), not O(connections). When bytes
// arrive the poller wakes the connection onto the ready queue, a worker
// leases a session, and the existing pipelined batch loop runs unchanged to
// the batch-boundary flush, which is the natural park point PR 8 established
// as the drain point. Idle reaping moves off the per-connection deadline onto
// a timer wheel scanned by a reaper goroutine, because a parked connection
// has no goroutine left to observe a deadline.
//
// Each connection's lifecycle is a small atomic state machine:
//
//	ACTIVE -> PARKED  (worker: batch done, linger expired with no data)
//	PARKED -> WAKING  (poller: bytes or EOF arrived; conn enters ready queue)
//	WAKING -> ACTIVE  (worker: leased a session, serving again)
//	PARKED -> CLOSED  (reaper: idle deadline; shutdown sweep)
//	ACTIVE -> CLOSED  (worker: EOF, error, drain)
//
// Every transition is a CAS, so a reaper expiring a connection, the poller
// waking it, and a shutdown sweeping it can race freely: exactly one wins,
// and the losers see the state move under them and stand down.
const (
	connStateActive int32 = iota
	connStateParked
	connStateWaking
	connStateClosed
)

// sessionBufSize is the per-direction bufio size of a session. In parked
// mode sessions are pooled, so this is paid per worker, not per connection.
const sessionBufSize = 64 << 10

// defaultParkLinger is how long a worker waits at an empty batch boundary
// for the next command before parking the connection. Long enough that a
// closed-loop client's next pipelined batch (one RTT away) keeps the
// blocking fast path; short enough that a quiet connection releases its
// worker and buffers almost immediately.
const defaultParkLinger = 200 * time.Microsecond

// parkedConn is the per-connection state that survives parking: the bare
// connection, its governed transport, the poller token, and the tenant the
// session selected (tenant stickiness across park/wake). At ~200 bytes it is
// what an idle connection costs instead of a goroutine plus 128 KiB of
// session buffers.
type parkedConn struct {
	conn       net.Conn
	rc         syscall.RawConn
	gc         governedConn
	token      uint64
	tenant     string
	state      atomic.Int32
	registered atomic.Bool

	// Timer-wheel links, guarded by the wheel's mutex: one list kept in
	// deadline order (see parkWheel.add).
	prev, next *parkedConn
	deadline   time.Time
	inWheel    bool
}

// parkedRuntime owns the shared machinery of the event-driven front end.
type parkedRuntime struct {
	poll     netpoll.Poller
	linger   time.Duration
	workers  int
	readyq   readyQueue
	sessions sessionPool
	wheel    parkWheel

	mu        sync.Mutex
	conns     map[uint64]*parkedConn // token -> conn, for poller callbacks
	nextToken uint64

	reaperStop chan struct{}
	stopOnce   sync.Once
	closeOnce  sync.Once
}

// startParkedRuntime builds the poller, the worker pool and the reaper.
// Called from Start when Config.Workers > 0.
func (s *Server) startParkedRuntime() error {
	workers := s.cfg.Workers
	bufs := s.cfg.ConnBuffers
	if bufs <= 0 {
		bufs = workers
	}
	linger := s.cfg.ParkLinger
	if linger <= 0 {
		linger = defaultParkLinger
	}
	pr := &parkedRuntime{
		linger:     linger,
		workers:    workers,
		conns:      make(map[uint64]*parkedConn),
		reaperStop: make(chan struct{}),
	}
	pr.readyq.cond = sync.NewCond(&pr.readyq.mu)
	pr.sessions.init(s, bufs)
	// The callback captures pr rather than reading s.pr: everything in pr
	// except poll is initialized before New spawns the poller goroutine, so
	// goroutine creation orders those fields; poll itself is published under
	// pr.mu below and fetched under it on the callback path (releaseConn).
	poll, err := netpoll.New(func(token uint64) { s.connReady(pr, token) })
	if err != nil {
		return err
	}
	pr.mu.Lock()
	pr.poll = poll
	pr.mu.Unlock()
	s.pr = pr
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	if s.cfg.IdleTimeout > 0 {
		s.wg.Add(1)
		go s.reaperLoop()
	}
	return nil
}

// stopParkedRuntime begins shutdown of the parked front end: every parked
// connection is closed (it sits at a command boundary with nothing buffered
// in either direction, so this IS its graceful drain), the reaper is
// stopped, and the ready queue is closed — workers serve what is already
// queued, then exit. Idempotent; shared by Close and Shutdown.
func (s *Server) stopParkedRuntime() {
	pr := s.pr
	if pr == nil {
		return
	}
	pr.stopOnce.Do(func() {
		pr.mu.Lock()
		swept := make([]*parkedConn, 0, len(pr.conns))
		for _, pc := range pr.conns {
			swept = append(swept, pc)
		}
		pr.mu.Unlock()
		for _, pc := range swept {
			if pc.state.CompareAndSwap(connStateParked, connStateClosed) {
				s.parked.Add(-1)
				pr.wheel.remove(pc)
				s.releaseConn(pr, pc)
			}
		}
		close(pr.reaperStop)
		pr.readyq.close()
	})
}

// closePoller shuts the poller down. Must run after wg.Wait: by then every
// connection has been released, which is what unblocks the fallback
// poller's watcher goroutines.
func (s *Server) closePoller() {
	pr := s.pr
	if pr == nil {
		return
	}
	pr.closeOnce.Do(func() { pr.poll.Close() })
}

// admitParked hands a freshly accepted connection to the parked front end:
// it is pushed onto the ready queue as ACTIVE so a worker greets it, serves
// any immediate commands, and parks it when it goes quiet. The accept loop
// has already registered the conn in s.conns and bumped the counters.
func (s *Server) admitParked(conn net.Conn) {
	sc, ok := conn.(syscall.Conn)
	var rc syscall.RawConn
	var err error
	if ok {
		rc, err = sc.SyscallConn()
	}
	var fd uintptr
	if err == nil && rc != nil {
		err = rc.Control(func(f uintptr) { fd = f })
	}
	if !ok || err != nil {
		// Not a pollable descriptor; serve it the classic way.
		s.wg.Add(1)
		go s.serveConn(conn)
		return
	}
	pr := s.pr
	pc := &parkedConn{conn: conn, rc: rc, tenant: s.cfg.DefaultTenant}
	pc.gc = governedConn{
		Conn:   conn,
		srv:    s,
		idle:   s.cfg.IdleTimeout,
		read:   s.cfg.ReadTimeout,
		write:  s.cfg.WriteTimeout,
		linger: pr.linger,
		// A connection that never completes a command idles from its accept.
		lastCmd: s.clock(),
		// The raw fd backs the linger's non-blocking MSG_PEEK probe. It is
		// only ever peeked while a worker owns the connection, so it cannot
		// be closed (and its number reused) under the probe.
		fd: fd,
	}
	pr.mu.Lock()
	pr.nextToken++
	pc.token = pr.nextToken
	pr.conns[pc.token] = pc
	pr.mu.Unlock()
	if !pr.readyq.push(pc) {
		// Raced a shutdown: the sweep cannot see an ACTIVE conn, so close
		// it here.
		if pc.state.CompareAndSwap(connStateActive, connStateClosed) {
			s.releaseConn(pr, pc)
		}
	}
}

// connReady is the poller callback: bytes (or EOF) arrived for a parked
// connection. It runs on the poller's goroutine, so it only flips state and
// queues the conn for a worker. Stale wakes — the token already removed, or
// the conn no longer PARKED because a reaper or shutdown won the race — are
// dropped here, which is what makes late poller callbacks harmless.
func (s *Server) connReady(pr *parkedRuntime, token uint64) {
	pr.mu.Lock()
	pc := pr.conns[token]
	pr.mu.Unlock()
	if pc == nil {
		return
	}
	if !pc.state.CompareAndSwap(connStateParked, connStateWaking) {
		return
	}
	s.parked.Add(-1)
	pr.wheel.remove(pc)
	if !pr.readyq.push(pc) {
		if pc.state.CompareAndSwap(connStateWaking, connStateClosed) {
			s.releaseConn(pr, pc)
		}
	}
}

func (s *Server) workerLoop() {
	defer s.wg.Done()
	// Each worker owns one ReadWaiter for its linger waits; workers serve
	// one connection at a time, so one per worker is exactly enough.
	waiter, err := netpoll.NewReadWaiter()
	if err != nil {
		// Degraded but correct: lingerWait falls back to a single probe, so
		// quiet connections just park a little more eagerly.
		waiter = nil
	} else {
		defer waiter.Close()
	}
	for {
		pc := s.pr.readyq.pop()
		if pc == nil {
			return
		}
		s.serveWake(pc, waiter)
	}
}

// serveWake leases a session onto a woken (or freshly accepted) connection
// and serves pipelined batches until the connection parks again or closes.
// A handler panic tears only this connection — the session itself is safe
// to re-pool because bind resets the buffers and the parser resets per
// command.
func (s *Server) serveWake(pc *parkedConn, waiter netpoll.ReadWaiter) {
	pc.state.Store(connStateActive)
	// Lease this worker's waiter to the connection for the serve. No clear
	// afterwards: the field is only read while a worker owns the conn, and
	// the next lease overwrites it — a deferred clear here would race the
	// next worker if the conn parks and wakes before this frame unwinds.
	pc.gc.waiter = waiter
	c := s.pr.sessions.get()
	s.activeSessions.Add(1)
	park := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
				s.logf("server: panic serving %v: %v\n%s", pc.conn.RemoteAddr(), r, debug.Stack())
				park = false
			}
		}()
		c.bind(pc)
		park = c.runBatches()
	}()
	c.unbind(pc)
	s.activeSessions.Add(-1)
	s.pr.sessions.put(c)
	if park {
		s.park(pc)
		return
	}
	if pc.state.CompareAndSwap(connStateActive, connStateClosed) {
		s.releaseConn(s.pr, pc)
	}
}

// runBatches drives the ordinary step loop and reports whether the
// connection should be parked (true) or closed (false). step signals a park
// by setting wantPark when the boundary linger deadline expires with no
// bytes read; any other exit means EOF, error, or drain.
func (c *session) runBatches() bool {
	for {
		for c.step() {
		}
		if !c.wantPark {
			return false
		}
		c.wantPark = false
		if c.r.Buffered() != 0 {
			// Bytes raced in between the timeout and here; keep serving —
			// parking would discard them.
			continue
		}
		return !c.srv.draining.Load() && !c.srv.closing.Load()
	}
}

// park transitions ACTIVE -> PARKED and registers the connection with the
// poller. The session and its buffers are already back in their pools; from
// here until the next wake the connection costs only its parkedConn.
func (s *Server) park(pc *parkedConn) {
	pr := s.pr
	// A stale read deadline (from a mid-command arm) would make the
	// fallback poller's readiness wait fire spuriously; clear it before
	// registering. The boundary read already cleared it on the way to the
	// park decision, so this is free on the steady park/wake cycle.
	if pc.gc.armed {
		pc.conn.SetReadDeadline(time.Time{})
		pc.gc.armed = false
	}
	if !pc.state.CompareAndSwap(connStateActive, connStateParked) {
		return
	}
	s.parked.Add(1)
	s.parks.Add(1)
	if pc.gc.idle > 0 {
		// Idle runs from the last completed command, not from this park: a
		// wake that read nothing (spurious readiness) must not restart it.
		pr.wheel.add(pc, pc.gc.lastCmd.Add(pc.gc.idle))
	}
	var err error
	if pc.registered.Load() {
		err = pr.poll.Arm(pc.token)
	} else {
		err = pr.poll.Add(pc.rc, pc.token)
		if err == nil {
			pc.registered.Store(true)
		}
	}
	if err != nil || s.draining.Load() || s.closing.Load() {
		// Registration failed, or shutdown began while we were parking and
		// its sweep may already have passed this connection. Unpark and
		// close; if the poller got armed first, a concurrent wake may win
		// the CAS instead, and the drained ready queue closes it then.
		if pc.state.CompareAndSwap(connStateParked, connStateClosed) {
			s.parked.Add(-1)
			pr.wheel.remove(pc)
			s.releaseConn(pr, pc)
		}
	}
}

// releaseConn finally closes a connection that reached CLOSED: deregisters
// it from the poller and both connection tables, and mirrors the classic
// serveConn cleanup accounting.
func (s *Server) releaseConn(pr *parkedRuntime, pc *parkedConn) {
	// Fetch poll under pr.mu: on the poller-callback path this goroutine may
	// predate the pr.poll assignment, and the mutex supplies the ordering.
	pr.mu.Lock()
	poll := pr.poll
	delete(pr.conns, pc.token)
	pr.mu.Unlock()
	if pc.registered.Load() {
		poll.Remove(pc.token)
	}
	s.mu.Lock()
	delete(s.conns, pc.conn)
	s.mu.Unlock()
	s.curr.Add(-1)
	pc.conn.Close()
}

// reaperLoop enforces IdleTimeout for parked connections: it ticks on real
// time but compares wheel deadlines against the stubbable server clock, so
// tests can age parked connections without sleeping. An expired connection
// counts in conn_timeouts exactly like a classic idle-deadline close.
func (s *Server) reaperLoop() {
	defer s.wg.Done()
	pr := s.pr
	tick := s.cfg.IdleTimeout / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var expired []*parkedConn
	for {
		select {
		case <-pr.reaperStop:
			return
		case <-t.C:
		}
		expired = pr.wheel.popExpired(s.clock(), expired[:0])
		for _, pc := range expired {
			if pc.state.CompareAndSwap(connStateParked, connStateClosed) {
				s.parked.Add(-1)
				s.timeouts.Add(1)
				s.releaseConn(pr, pc)
			}
		}
	}
}

// parkWheel tracks parked connections' idle deadlines in one intrusive list
// kept in deadline order: the reaper pops expired heads and wake unlinks from
// anywhere in O(1). Every deadline is last-command time plus the same
// IdleTimeout, so a connection parking right after its batch belongs at the
// tail and add is O(1); only a connection re-parking without having served
// anything (its old deadline stands) walks further in.
type parkWheel struct {
	mu         sync.Mutex
	head, tail *parkedConn
}

func (w *parkWheel) add(pc *parkedConn, deadline time.Time) {
	w.mu.Lock()
	pc.deadline = deadline
	pc.inWheel = true
	after := w.tail
	for after != nil && after.deadline.After(deadline) {
		after = after.prev
	}
	pc.prev = after
	if after != nil {
		pc.next = after.next
		after.next = pc
	} else {
		pc.next = w.head
		w.head = pc
	}
	if pc.next != nil {
		pc.next.prev = pc
	} else {
		w.tail = pc
	}
	w.mu.Unlock()
}

func (w *parkWheel) remove(pc *parkedConn) {
	w.mu.Lock()
	if pc.inWheel {
		w.unlink(pc)
	}
	w.mu.Unlock()
}

func (w *parkWheel) unlink(pc *parkedConn) {
	if pc.prev != nil {
		pc.prev.next = pc.next
	} else {
		w.head = pc.next
	}
	if pc.next != nil {
		pc.next.prev = pc.prev
	} else {
		w.tail = pc.prev
	}
	pc.prev, pc.next = nil, nil
	pc.inWheel = false
}

// popExpired unlinks and returns every connection whose deadline has
// passed, appending to buf so the reaper can reuse one slice.
func (w *parkWheel) popExpired(now time.Time, buf []*parkedConn) []*parkedConn {
	w.mu.Lock()
	for w.head != nil && !w.head.deadline.After(now) {
		pc := w.head
		w.unlink(pc)
		buf = append(buf, pc)
	}
	w.mu.Unlock()
	return buf
}

// readyQueue hands woken connections to workers. The backing slice is
// reused (head index instead of re-slicing away the front), so a park/wake
// cycle pushes and pops without allocating.
type readyQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*parkedConn
	head   int
	closed bool
}

// push enqueues pc, reporting false if the queue is closed (the caller must
// close the connection itself — workers are gone or leaving).
func (q *readyQueue) push(pc *parkedConn) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, pc)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pop blocks for the next connection. After close it drains what is queued
// — those conns still get served, which is what lets a graceful drain
// answer wakes that were already in flight — then returns nil.
func (q *readyQueue) pop() *parkedConn {
	q.mu.Lock()
	for q.head >= len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head < len(q.items) {
		pc := q.items[q.head]
		q.items[q.head] = nil
		q.head++
		if q.head == len(q.items) {
			q.items = q.items[:0]
			q.head = 0
		}
		q.mu.Unlock()
		return pc
	}
	q.mu.Unlock()
	return nil
}

func (q *readyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// sessionPool is the budgeted buffer pool: at most max sessions (each two
// 64 KiB bufio buffers plus parser state) ever exist, built lazily and
// recycled LIFO for cache warmth. get blocks when all sessions are leased,
// which is what bounds front-end memory at O(ConnBuffers) no matter how
// many connections wake at once.
type sessionPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	free    []*session
	created int
	max     int
	srv     *Server
}

func (p *sessionPool) init(s *Server, max int) {
	p.srv = s
	p.max = max
	p.cond = sync.NewCond(&p.mu)
}

func (p *sessionPool) get() *session {
	p.mu.Lock()
	for {
		if n := len(p.free); n > 0 {
			c := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return c
		}
		if p.created < p.max {
			p.created++
			p.mu.Unlock()
			return newSession(p.srv,
				bufio.NewReaderSize(nil, sessionBufSize),
				bufio.NewWriterSize(nil, sessionBufSize))
		}
		p.cond.Wait()
	}
}

func (p *sessionPool) put(c *session) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
	p.cond.Signal()
}

// bytes reports the pool's buffer footprint for the buffer_pool_bytes stat.
func (p *sessionPool) bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.created) * 2 * sessionBufSize
}

// bind points a pooled session at a connection: the bufio pair is reset
// onto the governed transport (no allocation) and the connection's sticky
// tenant selection is restored.
func (c *session) bind(pc *parkedConn) {
	c.gc = &pc.gc
	c.tenant = pc.tenant
	c.r.Reset(c.gc)
	c.w.Reset(c.gc)
}

// unbind saves per-connection state back onto the parkedConn before the
// session returns to the pool.
func (c *session) unbind(pc *parkedConn) {
	pc.tenant = c.tenant
	c.gc = nil
}
