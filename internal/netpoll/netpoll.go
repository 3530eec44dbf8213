// Package netpoll is a minimal one-shot readiness notifier. It is kept
// for the benchmark under bench/, whose netpoll.wake_us and
// netpoll.rearm_ns rows time it; the server waits for its connections in the
// runtime's own netpoller and does not use it. A caller hands it a
// connection's syscall.RawConn plus an opaque token; when the peer sends data
// (or half-closes), the poller calls the onReady callback with that token and
// disarms the registration until Arm re-arms it (one-shot semantics, so a
// wake is delivered exactly once per arm).
//
// The implementation is a raw epoll instance (EPOLLIN|EPOLLRDHUP,
// EPOLLONESHOT) driven by one event-loop goroutine, so a registration costs
// one epoll entry and zero goroutines. It is Linux only: elsewhere New
// returns errors.ErrUnsupported. The benchmark reads /proc, so it runs only
// on Linux anyway.
//
// Contract with the caller:
//   - Add registers and arms in one step; Arm re-arms after a delivered wake.
//   - onReady runs on the poller's own goroutine: keep it tiny and
//     non-blocking, and be prepared for a late call racing Remove/Close —
//     the caller's own state machine must make stale wakes harmless.
//   - Remove before closing the connection when possible; a registration
//     whose fd is closed underneath it is cleaned up by the kernel, but
//     Remove keeps the poller's table exact.
package netpoll

import (
	"errors"
	"syscall"
)

// Poller delivers one readiness event per armed registration.
type Poller interface {
	// Add registers the connection under token and arms it for one
	// readiness event.
	Add(rc syscall.RawConn, token uint64) error
	// Arm re-arms a registration after its event was delivered. Pending
	// data counts: if bytes arrived between the wake and the re-arm, the
	// event fires again immediately (level-triggered).
	Arm(token uint64) error
	// Remove unregisters the token. A wake already in flight may still be
	// delivered.
	Remove(token uint64) error
	// Close stops the poller and releases its resources.
	Close() error
}

// ErrClosed is returned by operations on a closed poller.
var ErrClosed = errors.New("netpoll: poller closed")

// New builds the poller: epoll on Linux, errors.ErrUnsupported elsewhere.
func New(onReady func(token uint64)) (Poller, error) {
	return newPlatformPoller(onReady)
}
