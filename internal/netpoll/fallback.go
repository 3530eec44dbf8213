package netpoll

import (
	"sync"
	"syscall"
)

// goPoller is the portable fallback: one watcher goroutine per registration,
// blocked inside the runtime's own read-readiness wait (the RawConn.Read
// return-false-once trick observes readability without consuming a byte).
// It costs a goroutine per registration — the thing the epoll poller exists
// to avoid — but it needs nothing platform-specific, so darwin builds and the
// package's tests can run against it.
type goPoller struct {
	onReady func(uint64)

	mu     sync.Mutex
	regs   map[uint64]*goReg
	closed bool
	wg     sync.WaitGroup
}

type goReg struct {
	rc   syscall.RawConn
	arm  chan struct{} // capacity 1: a pending re-arm waits here
	stop chan struct{}
}

func newGoPoller(onReady func(uint64)) *goPoller {
	return &goPoller{
		onReady: onReady,
		regs:    make(map[uint64]*goReg),
	}
}

func (p *goPoller) Add(rc syscall.RawConn, token uint64) error {
	reg := &goReg{
		rc:   rc,
		arm:  make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.regs[token] = reg
	p.wg.Add(1)
	p.mu.Unlock()
	go p.watch(reg, token)
	return nil
}

func (p *goPoller) Arm(token uint64) error {
	p.mu.Lock()
	reg := p.regs[token]
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if reg == nil {
		return syscall.ENOENT
	}
	select {
	case reg.arm <- struct{}{}:
	default:
		// Already armed; the caller's state machine should make this
		// impossible, but a duplicate arm is harmless either way.
	}
	return nil
}

func (p *goPoller) Remove(token uint64) error {
	p.mu.Lock()
	reg := p.regs[token]
	delete(p.regs, token)
	p.mu.Unlock()
	if reg != nil {
		close(reg.stop)
	}
	return nil
}

func (p *goPoller) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	for token, reg := range p.regs {
		close(reg.stop)
		delete(p.regs, token)
	}
	p.mu.Unlock()
	// Watchers parked in the readiness wait only unblock when their
	// connection closes — the package contract requires the caller to have
	// closed or removed every registration before Close, so this wait is
	// bounded.
	p.wg.Wait()
	return nil
}

func (p *goPoller) watch(reg *goReg, token uint64) {
	defer p.wg.Done()
	for {
		// Wait for readability without consuming bytes. The runtime's
		// readiness wait is edge-triggered and RawConn.Read resets the
		// pending-edge flag on entry, so an edge that fired before this
		// call (data arriving between a wake and the re-arm) would be
		// lost — peek the socket first to recover level-triggered
		// semantics, and only block for the next edge when the buffer is
		// truly empty.
		checked := false
		err := reg.rc.Read(func(fd uintptr) bool {
			if checked {
				return true
			}
			checked = true
			return dataPending(fd)
		})
		select {
		case <-reg.stop:
			return
		default:
		}
		if err != nil {
			// The fd was closed or errored underneath us. Deliver one last
			// wake — the caller's own read surfaces the real error — then
			// wait for teardown instead of spinning.
			p.onReady(token)
			<-reg.stop
			return
		}
		p.onReady(token)
		select {
		case <-reg.arm:
		case <-reg.stop:
			return
		}
	}
}

// dataPending reports whether a read on the (non-blocking) fd would not
// block: buffered bytes, EOF, or a socket error all count as readable. The
// peek consumes nothing, so the watcher can probe a socket without
// perturbing the byte stream. It never allocates.
func dataPending(fd uintptr) bool {
	var buf [1]byte
	n, _, err := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK)
	if n > 0 {
		return true
	}
	if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK {
		return false
	}
	return true
}
