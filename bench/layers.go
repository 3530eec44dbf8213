package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/sim"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// The traced run times calls into each package's public functions from here,
// outside the daemon, on a sample of the same request sequence the wire run
// sent. Every loop is repeated and the median kept, because the box stalls.
const (
	sampleOps   = 32768 // requests of the workload the layer loops replay
	layerRounds = 5     // repetitions of a loop; the median is reported
	rttCalls    = 3000  // round trips behind each socket median
	batchOps    = 64    // requests per span of a sub-microsecond layer
	drainEvery  = 8     // batches between two bookkeeper drains in the replay
)

// layers carries what the per-layer measurements share.
type layers struct {
	p        *plan
	reqs     []request // the sample: connection 0's paced requests
	keyBytes [][]byte
	tenant   []string // tenant name by app
	out      map[string]metric
	notes    []string
	// wireNs is what a command costs outside parse, store and respond: the
	// client, the kernel and the front end, at the workload's depth.
	wireNs float64
}

func (l *layers) set(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// nsPerOp runs fn, which performs n operations, layerRounds times and
// returns the median nanoseconds per operation.
func nsPerOp(n int, fn func()) float64 { return nsPerOpThen(n, fn, func() {}) }

// nsPerOpThen is nsPerOp with an untimed step after every round.
func nsPerOpThen(n int, fn, then func()) float64 {
	per := make([]float64, layerRounds)
	for i := range per {
		start := time.Now()
		fn()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
		then()
	}
	return median(per)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measureLayers fills out with every per-layer metric that does not need the
// wire, writes the span file, and returns notes for the reader.
func measureLayers(w *wireRun, out map[string]metric, traceOut string) ([]string, error) {
	p := w.plan
	l := &layers{p: p, out: out, reqs: p.paced.reqs[0]}
	if len(l.reqs) > sampleOps {
		l.reqs = l.reqs[:sampleOps]
	}
	l.keyBytes = make([][]byte, len(p.keys))
	for i, k := range p.keys {
		l.keyBytes[i] = []byte(k)
	}
	l.tenant = []string{"default", "default"}
	for _, a := range p.apps {
		for len(l.tenant) <= a.ID {
			l.tenant = append(l.tenant, "")
		}
		l.tenant[a.ID] = workload.TenantName(a.ID)
	}
	replay, err := l.tracedReplay()
	if err != nil {
		return nil, err
	}
	// Producing a request (Source.Next, interning) plus encoding it.
	l.set("loadgen.gen_ns_per_req", float64(p.genNs)/float64(len(p.seq))+replay.selfTimes()["loadgen.gen"].nsPerOp(), "ns")
	if err := writeSpans(traceOut, append(append([]*tracer(nil), w.tracers...), replay)); err != nil {
		return nil, err
	}
	l.notes = append(l.notes, "spans written to "+traceOut)
	steps := []func() error{l.protocol, l.storeData, l.accounting, l.algorithm, l.lifecycle, l.netpoll, l.sockets}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if err := l.simulate(w); err != nil {
		return nil, err
	}
	l.ledger(w, replay)
	return l.notes, nil
}

// newStore builds a store with the plan's tenants.
func (l *layers) newStore(mode store.AllocationMode, syncBookkeeping bool) (*store.Store, error) {
	st := store.New(store.Config{DefaultMode: mode, DefaultPolicy: cache.PolicyLRU, SyncBookkeeping: syncBookkeeping})
	for _, spec := range strings.Split(l.p.tenants, ",") {
		name, mb, _ := strings.Cut(spec, ":")
		n, err := strconv.ParseInt(mb, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant spec %q: %v", spec, err)
		}
		if err := st.RegisterTenant(name, n<<20); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// apply performs r against st as the server would for a read-through client:
// a GET that misses is followed by the SET that fills it. It returns whether
// a GET hit and how many store calls were made.
func (l *layers) apply(st *store.Store, r request) (hit bool, calls int, err error) {
	tenant, key := l.tenant[r.app], l.keyBytes[r.key]
	switch r.op {
	case trace.OpGet:
		v, ok, err := st.GetItemView(tenant, key)
		if err != nil {
			return false, 1, err
		}
		if ok {
			v.Release()
			return true, 1, nil
		}
		return false, 2, st.SetItemBytes(tenant, key, l.p.value(r.key, r.size), 0, 0)
	case trace.OpSet:
		return false, 1, st.SetItemBytes(tenant, key, l.p.value(r.key, r.size), 0, 0)
	default:
		_, err := st.Delete(tenant, l.p.keys[r.key])
		return false, 1, err
	}
}

// warm stores the plan's warm phase into st.
func (l *layers) warm(st *store.Store) error {
	for c := range l.p.warm.reqs {
		for _, r := range l.p.warm.reqs[c] {
			if _, _, err := l.apply(st, r); err != nil {
				return err
			}
		}
	}
	st.Flush()
	return nil
}

// encode appends r as the client would write it.
func (l *layers) encode(dst []byte, r request) []byte {
	switch r.op {
	case trace.OpGet:
		dst = append(dst, "get "...)
		dst = append(dst, l.keyBytes[r.key]...)
	case trace.OpSet:
		v := l.p.value(r.key, r.size)
		dst = append(dst, "set "...)
		dst = append(dst, l.keyBytes[r.key]...)
		dst = append(dst, " 0 0 "...)
		dst = strconv.AppendInt(dst, int64(len(v)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, v...)
	default:
		dst = append(dst, "delete "...)
		dst = append(dst, l.keyBytes[r.key]...)
	}
	return append(dst, '\r', '\n')
}

// tracedReplay unrolls the sample in process, a batch of batchOps requests
// at a time, through the layers a request crosses inside the daemon:
// loadgen.gen (encode) -> protocol.parse -> store.get|set|delete ->
// protocol.respond, with bookkeeper.drain (Store.Flush) every drainEvery
// batches. Each layer handles the whole batch before the next one starts, so
// a span covers batchOps calls and the timer's own cost stays below a
// percent; within a batch the GETs therefore run before the SETs and those
// before the DELETEs.
func (l *layers) tracedReplay() (*tracer, error) {
	st, err := l.newStore(store.AllocCliffhanger, false)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := l.warm(st); err != nil {
		return nil, err
	}
	tr := newTracer(time.Now(), 8*len(l.reqs)/batchOps+16)
	var wire []byte
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, 64<<10)
	parser := protocol.NewParser(br)
	resp := bufio.NewWriterSize(io.Discard, 64<<10)
	var hdr []byte
	var sets []request
	hits := make([]bool, 0, batchOps)
	pending := 0
	for lo, batch := 0, int64(0); lo < len(l.reqs); lo, batch = lo+batchOps, batch+1 {
		rs := l.reqs[lo:min(lo+batchOps, len(l.reqs))]
		root := tr.begin("replay.batch", -1, batch)

		sp := tr.begin("loadgen.gen", root, batch)
		wire = wire[:0]
		for _, r := range rs {
			wire = l.encode(wire, r)
		}
		tr.end(sp, len(rs))

		sp = tr.begin("protocol.parse", root, batch)
		rd.Reset(wire)
		br.Reset(rd)
		for range rs {
			if _, err := parser.ReadCommand(); err != nil {
				return nil, fmt.Errorf("replay: parsing the workload's own bytes: %v", err)
			}
		}
		tr.end(sp, len(rs))

		hits, sets = hits[:0], sets[:0]
		n := 0
		sp = tr.begin("store.get", root, batch)
		for _, r := range rs {
			if r.op != trace.OpGet {
				continue
			}
			n++
			v, ok, err := st.GetItemView(l.tenant[r.app], l.keyBytes[r.key])
			if err != nil {
				return nil, err
			}
			if ok {
				v.Release()
			} else {
				sets = append(sets, r)
			}
			hits = append(hits, ok)
		}
		tr.end(sp, n)
		gets := n
		for _, r := range rs {
			if r.op == trace.OpSet {
				sets = append(sets, r)
			}
		}
		sp = tr.begin("store.set", root, batch)
		for _, r := range sets {
			if err := st.SetItemBytes(l.tenant[r.app], l.keyBytes[r.key], l.p.value(r.key, r.size), 0, 0); err != nil {
				return nil, err
			}
		}
		tr.end(sp, len(sets))
		n = 0
		sp = tr.begin("store.delete", root, batch)
		for _, r := range rs {
			if r.op == trace.OpDelete {
				n++
				if _, err := st.Delete(l.tenant[r.app], l.p.keys[r.key]); err != nil {
					return nil, err
				}
			}
		}
		tr.end(sp, n)
		pending += gets + len(sets) + n

		sp = tr.begin("protocol.respond", root, batch)
		i := 0
		for _, r := range rs {
			switch r.op {
			case trace.OpGet:
				if hits[i] {
					v := l.p.value(r.key, r.size)
					hdr = protocol.AppendValueHeader(hdr[:0], l.keyBytes[r.key], 0, len(v), 0, false)
					resp.Write(hdr)
					resp.Write(v)
					resp.WriteString("\r\n")
				}
				resp.WriteString("END\r\n")
				i++
			case trace.OpSet:
				protocol.WriteLine(resp, "STORED")
			default:
				protocol.WriteLine(resp, "DELETED")
			}
		}
		resp.Flush()
		tr.end(sp, len(rs))
		tr.end(root, len(rs))

		if (batch+1)%drainEvery == 0 {
			sp = tr.begin("bookkeeper.drain", -1, batch)
			st.Flush()
			tr.end(sp, pending)
			pending = 0
		}
	}
	return tr, nil
}

// simulate replays everything the measured daemon was sent through
// internal/sim and compares hit rates: the cross-check of hit_rate.
func (l *layers) simulate(w *wireRun) error {
	apps := l.p.apps
	if !l.p.multiTenant {
		_, mb, _ := strings.Cut(l.p.tenants, ":")
		n, _ := strconv.ParseInt(mb, 10, 64)
		apps = []trace.AppSpec{{ID: 1, MemoryMB: n, RequestShare: 1}}
	}
	// What the measured daemon was sent, in sequence order: the warm phase,
	// the settle windows it needed, the open-loop phase, and of the
	// closed-loop phase what each connection got to (all of it, unless the
	// phase ran into its limit).
	n := l.p.n
	pacedStart := n.warm + n.settle
	satStart := pacedStart + n.paced
	var sent []trace.Request
	var seenSat [nConns]int
	for i, r := range l.p.seq {
		c := l.p.owner[r.key]
		switch {
		case i >= satStart:
			if seenSat[c]++; seenSat[c] > w.sat.sent[c] {
				continue
			}
		case i >= pacedStart:
		case i >= n.warm+w.settlePasses*settleWindow:
			continue
		}
		sent = append(sent, trace.Request{App: int(r.app), Key: l.p.keys[r.key], Size: int64(r.size), Op: r.op})
	}
	start := time.Now()
	res, err := sim.Run(sim.Config{Apps: apps, Mode: store.AllocCliffhanger}, trace.NewSliceSource(sent))
	if err != nil {
		return err
	}
	l.set("sim.ns_per_req", float64(time.Since(start).Nanoseconds())/float64(len(sent)), "ns")
	l.set("sim.wire_hit_delta", float64(w.all.hits)/float64(w.all.gets)-res.HitRate(), "ratio")
	l.notes = append(l.notes, fmt.Sprintf("sim: %d requests, sim hit rate %.4f, wire hit rate %.4f over everything the daemon was sent",
		len(sent), res.HitRate(), float64(w.all.hits)/float64(w.all.gets)))
	return nil
}

// ledger adds the layers a command crosses and sets the sum against the
// budget the closed-loop throughput leaves: two CPUs' worth of time per
// command. What the sum does not explain is the residual, its own line.
func (l *layers) ledger(w *wireRun, replay *tracer) {
	self := replay.selfTimes()
	var ops int64
	for _, name := range []string{"store.get", "store.set", "store.delete"} {
		ops += self[name].count
	}
	sum := l.wireNs
	parts := []string{fmt.Sprintf("client+loopback+server.self %.0f", sum)}
	for _, name := range sortedNames(self) {
		if name == "replay.batch" {
			continue
		}
		ns := float64(self[name].self) / float64(ops)
		sum += ns
		parts = append(parts, fmt.Sprintf("%s %.0f", name, ns))
	}
	rawRates, _, _ := w.satRates()
	budget := float64(nConns) * 1e9 / median(rawRates)
	l.set("ledger.sum_ns_per_op", sum, "ns")
	l.set("ledger.residual_pct", 100*(budget-sum)/budget, "%")
	l.notes = append(l.notes, fmt.Sprintf("ledger: budget %.0f ns per command (2 CPUs / raw ops_per_s); ns per command by layer: %s", budget, strings.Join(parts, ", ")))
}
