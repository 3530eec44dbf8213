package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// lateLimit is how late, measured from its due time, a paced call may finish
// before its commands count as late. Late is not failed: the box stalls for
// longer than this now and then, whatever the daemon does, and a failed
// command has to mean that the daemon answered wrongly or not at all.
const lateLimit = 100 * time.Millisecond

// unknownSize marks a key whose last store failed: what the daemon holds for
// it is undefined, so a later hit is not compared.
const unknownSize = math.MaxUint32

// counters are the commands one connection attempted and how they ended.
type counters struct {
	gets, hits, sets, deletes, fills int64
	// failed counts commands that hit a transport error, a timeout, an
	// in-band server error or corrupt bytes.
	failed int64
	// corrupt counts hits whose bytes were not the key's pattern at the
	// size this connection last stored. Each is also in failed.
	corrupt int64
	// late counts the commands of paced calls that finished more than
	// lateLimit after their due time. They were answered correctly.
	late int64
}

// ops is every command sent, read-through fills included.
func (c counters) ops() int64 { return c.gets + c.sets + c.deletes + c.fills }

func (c counters) minus(o counters) counters {
	return counters{c.gets - o.gets, c.hits - o.hits, c.sets - o.sets, c.deletes - o.deletes,
		c.fills - o.fills, c.failed - o.failed, c.corrupt - o.corrupt, c.late - o.late}
}

func (c counters) plus(o counters) counters {
	return counters{c.gets + o.gets, c.hits + o.hits, c.sets + o.sets, c.deletes + o.deletes,
		c.fills + o.fills, c.failed + o.failed, c.corrupt + o.corrupt, c.late + o.late}
}

// conn drives one connection: it sends the calls it is given, fills GET
// misses with a SET as a read-through application would, and checks every
// hit against the key's pattern.
type conn struct {
	p   *plan
	c   *client.Client
	app uint16

	// Reused per call: the key arguments, which of them hit, and the
	// requests being answered (for the value callback).
	keys    []string
	hit     []bool
	cur     []request
	onValue client.IndexedValueFunc

	// stored is the charged size this connection last stored under each key
	// it owns; 0 means it holds nothing there (never stored, or deleted).
	stored []uint32
	cnt    counters

	// getLat and setLat receive the current phase's latencies; nil drops
	// them. tr, when set, records spans around the calls into the client.
	getLat, setLat *recorder
	tr             *tracer
	reqID          int64
}

func dialConn(p *plan, addr string) (*conn, error) {
	c, err := client.DialOptions(addr, client.Options{DialTimeout: 5 * time.Second, OpTimeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	d := &conn{p: p, c: c, stored: make([]uint32, len(p.keys))}
	d.onValue = func(i int, _ []byte, _ uint32, _ uint64, value []byte) {
		r := d.cur[i]
		d.hit[i] = true
		if st := d.stored[r.key]; st != unknownSize && !bytes.Equal(value, p.value(r.key, st)) {
			d.cnt.corrupt++
			d.cnt.failed++
		}
	}
	return d, nil
}

func (d *conn) begin(name string, parent int32) int32 {
	if d.tr == nil {
		return -1
	}
	return d.tr.begin(name, parent, d.reqID)
}

func (d *conn) end(id int32, count int) {
	if d.tr != nil {
		d.tr.end(id, count)
	}
}

// do sends one call. due is its scheduled send time in the open-loop phase
// and the zero time elsewhere; latencies are measured from it, so a stall
// charges the calls queued behind it.
func (d *conn) do(reqs []request, cl call, due time.Time) {
	rs := reqs[cl.lo:cl.hi]
	start := due
	if due.IsZero() {
		start = time.Now()
	}
	d.reqID++
	root := d.begin("loadgen.call", -1)

	switch {
	case d.selectApp(rs[0].app) != nil:
		d.count(rs)
		d.cnt.failed += int64(len(rs))
	case rs[0].op == trace.OpGet:
		d.get(rs, start, root)
	case rs[0].op == trace.OpSet:
		d.cnt.sets++
		d.set(rs[0], start, root)
	default:
		d.cnt.deletes++
		d.del(rs[0], root)
	}
	d.end(root, len(rs))
	if !due.IsZero() && time.Since(due) > lateLimit {
		d.cnt.late += int64(len(rs))
	}
}

// count books the commands of a call that could not be sent.
func (d *conn) count(rs []request) {
	for _, r := range rs {
		switch r.op {
		case trace.OpGet:
			d.cnt.gets++
		case trace.OpSet:
			d.cnt.sets++
		default:
			d.cnt.deletes++
		}
	}
}

func (d *conn) selectApp(app uint16) error {
	if !d.p.multiTenant || app == d.app {
		return nil
	}
	if err := d.c.SelectTenant(workload.TenantName(int(app))); err != nil {
		return err
	}
	d.app = app
	return nil
}

func (d *conn) get(rs []request, start time.Time, root int32) {
	gen := d.begin("loadgen.gen", root)
	d.keys, d.hit = d.keys[:0], d.hit[:0]
	for _, r := range rs {
		d.keys = append(d.keys, d.p.keys[r.key])
		d.hit = append(d.hit, false)
	}
	d.cur = rs
	d.end(gen, len(rs))
	d.cnt.gets += int64(len(rs))

	sp := d.begin("client.get", root)
	err := d.c.PipelineGetFunc(d.keys, d.onValue)
	d.end(sp, len(rs))
	if d.getLat != nil {
		d.getLat.add(time.Since(start))
	}
	if err != nil {
		d.cnt.failed += int64(len(rs))
		return
	}
	for i, r := range rs {
		if d.hit[i] {
			d.cnt.hits++
			continue
		}
		d.cnt.fills++
		d.set(r, time.Now(), root)
	}
}

func (d *conn) set(r request, start time.Time, root int32) {
	sp := d.begin("client.set", root)
	err := d.c.SetWithOptions(d.p.keys[r.key], d.p.value(r.key, r.size), 0, 0)
	d.end(sp, 1)
	if d.setLat != nil {
		d.setLat.add(time.Since(start))
	}
	if err != nil {
		d.cnt.failed++
		d.stored[r.key] = unknownSize
		return
	}
	d.stored[r.key] = r.size
}

func (d *conn) del(r request, root int32) {
	sp := d.begin("client.delete", root)
	_, err := d.c.Delete(d.p.keys[r.key])
	d.end(sp, 1)
	if err != nil {
		d.cnt.failed++
		d.stored[r.key] = unknownSize
		return
	}
	d.stored[r.key] = 0
}

// closed runs a phase closed loop to its end, recording nothing: the warm
// and settle phases of set-up.
func closed(conns []*conn, ph *phase) {
	var wg sync.WaitGroup
	for c, d := range conns {
		wg.Add(1)
		go func(c int, d *conn) {
			defer wg.Done()
			for _, cl := range ph.calls[c] {
				d.do(ph.reqs[c], cl, time.Time{})
			}
		}(c, d)
	}
	wg.Wait()
}

func total(conns []*conn) counters {
	var t counters
	for _, d := range conns {
		t = t.plus(d.cnt)
	}
	return t
}

// waitUntil returns at or just after t. On the benchmark box a sleeping
// thread wakes half a millisecond late (Go's timers round to the epoll
// millisecond, and a halted virtual CPU is slow to resume), which is ten
// times a request's round trip, so the wait (never more than a few
// milliseconds) is a busy one. Gosched lets the other sender's response be
// picked up by this thread meanwhile. Tried and dropped, all less steady
// here: sched_yield (stalls of tens of milliseconds), nanosleep with a 1 ns
// timer slack, SCHED_IDLE spinners that keep the CPUs awake under sleeping
// senders, niced senders, and a single busy-waiting pacer handing calls to
// sleeping senders (the hand-over wakes a thread per call and falls behind
// at a third of R).
func waitUntil(t time.Time) {
	for time.Until(t) > 0 {
		runtime.Gosched()
	}
}

// pacedSeg is one segment of the open-loop phase. The samples pool both
// connections.
type pacedSeg struct {
	get, set, lag []int64
}

// pacedResult is what the open-loop phase recorded.
type pacedResult struct {
	segs []pacedSeg
	cnt  counters
}

// The open-loop phase is recorded in pacedSegments stretches of equal call
// count, so that a stall moves the stretch it falls in and not the phase's
// median; a stretch starts its senders pacedLead ahead of its first due time.
const (
	pacedSegments = 8
	pacedLead     = 5 * time.Millisecond
)

// runPaced sends ph open loop at the frozen rate: connection c sends one
// call every dur/n, n being the number of calls it owns, so each connection
// owns its share of one schedule and both finish together. Every call is
// sent. A connection that falls behind sends at once and the delay shows in
// the latency of every call it held up.
func runPaced(conns []*conn, ph *phase, dur time.Duration) pacedResult {
	var res pacedResult
	before := total(conns)
	for s := 0; s < pacedSegments; s++ {
		var lag [nConns]*recorder
		start := time.Now().Add(pacedLead)
		var wg sync.WaitGroup
		for c, d := range conns {
			interval := dur / time.Duration(len(ph.calls[c]))
			calls := ph.calls[c][len(ph.calls[c])*s/pacedSegments : len(ph.calls[c])*(s+1)/pacedSegments]
			reqs := int(calls[len(calls)-1].hi - calls[0].lo)
			d.getLat, d.setLat = newRecorder(len(calls)), newRecorder(reqs+len(calls)) // a SET per call or a fill per request
			lag[c] = newRecorder(len(calls))
			wg.Add(1)
			go func(c int, d *conn) {
				defer wg.Done()
				for k, cl := range calls {
					due := start.Add(time.Duration(k) * interval)
					waitUntil(due)
					lag[c].add(time.Since(due))
					d.do(ph.reqs[c], cl, due)
				}
			}(c, d)
		}
		wg.Wait()
		var seg pacedSeg
		for c, d := range conns {
			seg.get = append(seg.get, d.getLat.ns...)
			seg.set = append(seg.set, d.setLat.ns...)
			seg.lag = append(seg.lag, lag[c].ns...)
			d.getLat, d.setLat = nil, nil
		}
		res.segs = append(res.segs, seg)
	}
	res.cnt = total(conns).minus(before)
	return res
}

// sustained reports whether the generator kept its schedule: false when the
// second half of the calls went out, at the median, more than lateLimit
// late, which is a system that cannot serve R at all rather than a box that
// stalled for a moment.
func (r *pacedResult) sustained() (bool, time.Duration) {
	var lags []int64
	for _, seg := range r.segs[len(r.segs)/2:] {
		lags = append(lags, seg.lag...)
	}
	lag := time.Duration(quantile(sortedCopy(lags), 0.5))
	return lag <= lateLimit, lag
}

// satSlice is one slice of the closed-loop phase.
type satSlice struct {
	seconds float64
	ops     int64
	rssMiB  float64 // daemon resident memory at its end
	// full says both connections sent from the slice's start to its end; the
	// rates come from full slices only. The full slices come first: once a
	// connection has sent its last call, no later slice is full.
	full bool
}

func (s satSlice) opsPerS() float64 { return float64(s.ops) / s.seconds }

// satResult is what the closed-loop phase measured.
type satResult struct {
	cnt    counters
	slices []satSlice
	// refs are the reference slices: refs[i] ran before slices[i] and, when
	// that one is full, refs[i+1] after it.
	refs []refSlice
	wall time.Duration
	// ticks is the daemon's CPU over the whole phase. The reference slices
	// lie inside it: the daemon is idle then but for the bookkeeping the
	// slice before left behind, which belongs to the phase's commands.
	ticks int64
	// sent is how many of its requests each connection got to: all of them,
	// unless the phase ran into its limit.
	sent [nConns]int
	// tracedRate and untracedRate compare the stretch of calls that
	// recorded spans with the rest; zero when nothing was traced.
	tracedRate, untracedRate float64
}

// The closed-loop phase alternates slices of the daemon with shorter slices
// of the reference.
const (
	satSliceLen = 200 * time.Millisecond
	satRefSlice = 100 * time.Millisecond
)

// runSat sends ph closed loop, every connection keeping one call in flight,
// until both connections have sent all of their calls, or until limit has
// passed, which only a system several times slower than the one the phase
// was sized on reaches. When tracers is non-nil, connection c records spans
// into tracers[c] for the calls in [len/2, len/2+traceCalls).
func runSat(conns []*conn, ph *phase, d *daemon, limit time.Duration, ref *reference, tracers []*tracer) (satResult, error) {
	var res satResult
	before := total(conns)
	// mark is a connection's busy time and commands so far, taken where its
	// traced stretch begins and ends.
	type mark struct {
		busy time.Duration
		ops  int64
	}
	var (
		pos   [nConns]int
		busy  [nConns]time.Duration
		base  [nConns]int64
		marks [nConns][2]mark
	)
	for c, cd := range conns {
		base[c] = cd.cnt.ops()
	}
	unsent := func() (n int) {
		for c := range conns {
			n += len(ph.calls[c]) - pos[c]
		}
		return n
	}
	first, err := ref.slice(satRefSlice)
	if err != nil {
		return res, err
	}
	res.refs = append(res.refs, first)
	ticks0, err := d.cpuTicks()
	if err != nil {
		return res, err
	}
	start := time.Now()
	for unsent() > 0 && time.Since(start) <= limit {
		sl := satSlice{full: true}
		sliceStart := time.Now()
		deadline := sliceStart.Add(satSliceLen)
		var wg sync.WaitGroup
		for c, cd := range conns {
			wg.Add(1)
			go func(c int, cd *conn) {
				defer wg.Done()
				calls := ph.calls[c]
				on, off := len(calls), len(calls)
				if tracers != nil {
					on = len(calls) / 2
					off = min(on+traceCalls, len(calls))
				}
				for pos[c] < len(calls) && time.Now().Before(deadline) {
					switch pos[c] {
					case on:
						marks[c][0] = mark{busy[c] + time.Since(sliceStart), cd.cnt.ops() - base[c]}
						cd.tr = tracers[c]
					case off:
						cd.tr = nil
						marks[c][1] = mark{busy[c] + time.Since(sliceStart), cd.cnt.ops() - base[c]}
					}
					cd.do(ph.reqs[c], calls[pos[c]], time.Time{})
					res.sent[c] = int(calls[pos[c]].hi)
					pos[c]++
				}
				cd.tr = nil
				busy[c] += time.Since(sliceStart)
			}(c, cd)
		}
		wg.Wait()
		sl.seconds = time.Since(sliceStart).Seconds()
		if sl.rssMiB, err = d.rssMiB(); err != nil {
			return res, err
		}
		for c := range conns {
			sl.full = sl.full && pos[c] < len(ph.calls[c])
		}
		now := total(conns).minus(before)
		sl.ops = now.ops() - res.cnt.ops()
		res.cnt = now
		res.slices = append(res.slices, sl)
		if sl.full {
			after, err := ref.slice(satRefSlice)
			if err != nil {
				return res, err
			}
			res.refs = append(res.refs, after)
		}
	}
	res.wall = time.Since(start)
	ticks1, err := d.cpuTicks()
	if err != nil {
		return res, err
	}
	res.ticks = ticks1 - ticks0
	if tracers != nil {
		for c, cd := range conns {
			m, all := marks[c], cd.cnt.ops()-base[c]
			if m[1].busy == 0 { // stopped before the traced stretch ended
				continue
			}
			res.tracedRate += float64(m[1].ops-m[0].ops) / (m[1].busy - m[0].busy).Seconds()
			res.untracedRate += float64(all-(m[1].ops-m[0].ops)) / (busy[c] - (m[1].busy - m[0].busy)).Seconds()
		}
	}
	return res, nil
}

// traceCalls bounds how many calls per connection record spans, which
// bounds the span file.
const traceCalls = 8192

// setUp starts a daemon, connects, stores the warm phase and, for the hit_*
// workloads, sends settle windows until every GET of one hits. It returns
// how long that took and how many windows it sent.
func setUp(bin string, p *plan) (d *daemon, conns []*conn, took time.Duration, passes int, err error) {
	start := time.Now()
	if d, err = startDaemon(bin, p.tenants); err != nil {
		return nil, nil, 0, 0, err
	}
	fail := func(err error) (*daemon, []*conn, time.Duration, int, error) {
		closeConns(conns)
		d.kill()
		return nil, nil, 0, 0, err
	}
	conns = make([]*conn, nConns)
	for c := range conns {
		if conns[c], err = dialConn(p, d.addr); err != nil {
			return fail(err)
		}
	}
	closed(conns, &p.warm)
	if p.spec.settle {
		settled := false
		for ; passes < len(p.settle) && !settled; passes++ {
			before := total(conns)
			closed(conns, &p.settle[passes])
			got := total(conns).minus(before)
			settled = got.hits == got.gets
		}
		if !settled {
			return fail(fmt.Errorf("%s: a window of %d GETs still misses after %d passes", p.spec.name, settleWindow, passes))
		}
	}
	return d, conns, time.Since(start), passes, nil
}

func closeConns(conns []*conn) {
	for _, d := range conns {
		if d != nil {
			d.c.Close()
		}
	}
}
