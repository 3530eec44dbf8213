//go:build linux

package netpoll

import (
	"sync"
	"syscall"
)

// epollPoller is the Linux implementation: one epoll instance, one event-loop
// goroutine, zero goroutines per registration. Registrations are one-shot
// (EPOLLONESHOT): after a readiness event is delivered the fd stays in the
// interest list but disarmed until Arm issues EPOLL_CTL_MOD. Level-triggered
// semantics mean a re-arm with bytes already pending fires immediately, so a
// wake can never be lost to the race between a read and the re-arm.
//
// The token travels inside the epoll event itself, packed into the Fd+Pad
// fields of the user-data union, so the event loop needs no lookup to
// dispatch. A self-pipe registered under a sentinel token unblocks EpollWait
// for shutdown.
type epollPoller struct {
	onReady func(uint64)

	mu     sync.Mutex
	fds    map[uint64]int32 // token -> fd, for Arm/Remove
	ev     syscall.EpollEvent
	closed bool

	epfd     int
	wakeR    int
	wakeW    int
	loopDone chan struct{}
}

// wakeToken marks the self-pipe's events; real tokens must never use it.
const wakeToken = ^uint64(0)

func newPlatformPoller(onReady func(uint64)) (Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	p := &epollPoller{
		onReady:  onReady,
		fds:      make(map[uint64]int32),
		epfd:     epfd,
		wakeR:    pipe[0],
		wakeW:    pipe[1],
		loopDone: make(chan struct{}),
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN}
	packToken(&ev, wakeToken)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pipe[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(pipe[0])
		syscall.Close(pipe[1])
		return nil, err
	}
	go p.loop()
	return p, nil
}

func packToken(ev *syscall.EpollEvent, token uint64) {
	ev.Fd = int32(uint32(token))
	ev.Pad = int32(uint32(token >> 32))
}

func unpackToken(ev *syscall.EpollEvent) uint64 {
	return uint64(uint32(ev.Fd)) | uint64(uint32(ev.Pad))<<32
}

const armedEvents = syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT

func (p *epollPoller) Add(rc syscall.RawConn, token uint64) error {
	var fd int32
	if err := rc.Control(func(f uintptr) { fd = int32(f) }); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.fds[token] = fd
	// p.ev is reused under the lock so registering allocates nothing; the
	// kernel copies the event out during the syscall.
	p.ev = syscall.EpollEvent{Events: armedEvents}
	packToken(&p.ev, token)
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, int(fd), &p.ev); err != nil {
		delete(p.fds, token)
		return err
	}
	return nil
}

func (p *epollPoller) Arm(token uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	fd, ok := p.fds[token]
	if !ok {
		return syscall.ENOENT
	}
	p.ev = syscall.EpollEvent{Events: armedEvents}
	packToken(&p.ev, token)
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, int(fd), &p.ev)
}

func (p *epollPoller) Remove(token uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	fd, ok := p.fds[token]
	if !ok {
		return nil
	}
	delete(p.fds, token)
	// EBADF/ENOENT mean the fd was already closed (the kernel dropped the
	// registration itself) — not an error worth surfacing.
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil); err != nil &&
		err != syscall.EBADF && err != syscall.ENOENT {
		return err
	}
	return nil
}

func (p *epollPoller) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.loopDone
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	// Poke the self-pipe so the event loop notices the flag and exits; the
	// loop owns closing the fds so no EpollWait can race a reused fd number.
	syscall.Write(p.wakeW, []byte{0})
	<-p.loopDone
	return nil
}

func (p *epollPoller) loop() {
	defer close(p.loopDone)
	events := make([]syscall.EpollEvent, 128)
	var drain [64]byte
	for {
		n, err := syscall.EpollWait(p.epfd, events, -1)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			break
		}
		for i := 0; i < n; i++ {
			token := unpackToken(&events[i])
			if token == wakeToken {
				for {
					if c, _ := syscall.Read(p.wakeR, drain[:]); c <= 0 {
						break
					}
				}
				continue
			}
			p.onReady(token)
		}
		p.mu.Lock()
		done := p.closed
		p.mu.Unlock()
		if done {
			break
		}
	}
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}
