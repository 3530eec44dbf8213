package workload

import "time"

// Pacer schedules an open-loop request stream at a fixed aggregate rate. A
// closed-loop driver's offered load collapses to whatever the server
// sustains, and server-side queueing hides from its latency numbers
// (coordinated omission); an open-loop driver instead injects on a
// wall-clock schedule and measures each request's latency from its scheduled
// send time, so queueing delay under load shows up in the tail. The pacer is
// the schedule: one goroutine (cliffbench's feeder) reserves slots for each
// batch it hands out, and workers sleep until — or measure from — the
// returned deadline.
type Pacer struct {
	start    time.Time
	interval time.Duration
	issued   int64
}

// NewPacer returns a pacer issuing perSecond requests per second starting at
// start. It panics on a non-positive rate (a flag-validation bug in the
// caller).
func NewPacer(start time.Time, perSecond float64) *Pacer {
	if perSecond <= 0 {
		panic("workload: pacer rate must be positive")
	}
	return &Pacer{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// Next reserves the next n slots of the schedule and returns the send
// deadline of the first. The caller sleeps until the deadline (or sends
// immediately when already behind) and records latency from it. Not safe for
// concurrent use; the single feeder goroutine owns the pacer.
func (p *Pacer) Next(n int) time.Time {
	due := p.start.Add(time.Duration(p.issued) * p.interval)
	p.issued += int64(n)
	return due
}
