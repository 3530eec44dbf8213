package main

import (
	"fmt"
	"strconv"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/workload"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setUps is how many times an end-to-end run sets up; setup_s is the median.
// A quick or traced run, which does not report setup_s, sets up once.
const setUps = 3

// wireRun is one workload driven against one daemon over real sockets: the
// source of every end-to-end metric and of the per-layer metrics marked
// "wire".
type wireRun struct {
	plan *plan
	ref  refNominal
	// setupS is how long each of the run's set-ups took.
	setupS []float64
	// settlePasses is how many settle windows the measured daemon was sent.
	settlePasses int
	paced        pacedResult
	sat          satResult
	tracers      []*tracer
	// all is every command sent to the measured daemon since it started,
	// set-up included; daemonHits and daemonGets are the daemon's own
	// structural counts over the same span, from its stats verb.
	all                    counters
	daemonHits, daemonGets int64
	daemonArgs             []string
	problems               []string
}

// runWire performs set-up (setups times, keeping the last daemon), the
// open-loop phase and the closed-loop phase, then reads the daemon's
// counters and drains it.
func runWire(bin string, p *plan, seconds float64, setups int, traced bool) (*wireRun, error) {
	ref, err := startReference(p.spec.refDepth)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	w := &wireRun{plan: p, ref: ref.nom}
	var d *daemon
	var conns []*conn
	for i := 0; i < setups; i++ {
		if d != nil {
			closeConns(conns)
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var dur time.Duration
		if d, conns, dur, w.settlePasses, err = setUp(bin, p); err != nil {
			return nil, err
		}
		w.setupS = append(w.setupS, dur.Seconds())
	}
	defer closeConns(conns)
	w.daemonArgs = d.args
	fail := func(err error) (*wireRun, error) { d.kill(); return nil, err }

	w.paced = runPaced(conns, &p.paced, time.Duration(seconds*pacedShare*float64(time.Second)))
	if ok, lag := w.paced.sustained(); !ok {
		return fail(fmt.Errorf("%s: rate not sustained: the second half of the paced calls went out %v late at the median", p.spec.name, lag))
	}
	if traced {
		for range conns {
			w.tracers = append(w.tracers, newTracer(time.Now(), traceCalls*(3+min(p.spec.depth, 8))))
		}
	}
	limit := time.Duration(4 * seconds * satShare * float64(time.Second))
	if w.sat, err = runSat(conns, &p.sat, d, limit, ref, w.tracers); err != nil {
		return fail(err)
	}
	w.all = total(conns)
	if err := w.readDaemonStats(d.addr); err != nil {
		return fail(err)
	}
	closeConns(conns)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if w.all.corrupt > 0 {
		w.problems = append(w.problems, fmt.Sprintf("%d hits returned bytes other than the key's pattern", w.all.corrupt))
	}
	return w, nil
}

// readDaemonStats sums the daemon's GET counters over every tenant the plan
// uses and fails on a recovered session panic.
func (w *wireRun) readDaemonStats(addr string) error {
	c, err := client.DialOptions(addr, client.Options{DialTimeout: 5 * time.Second, OpTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer c.Close()
	tenants := []string{""}
	if w.plan.multiTenant {
		tenants = tenants[:0]
		for _, a := range w.plan.apps {
			tenants = append(tenants, workload.TenantName(a.ID))
		}
	}
	for _, t := range tenants {
		if t != "" {
			if err := c.SelectTenant(t); err != nil {
				return err
			}
		}
		st, err := c.Stats()
		if err != nil {
			return err
		}
		hits, err1 := strconv.ParseInt(st["get_hits"], 10, 64)
		misses, err2 := strconv.ParseInt(st["get_misses"], 10, 64)
		panics, err3 := strconv.ParseInt(st["conn_panics"], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("stats of tenant %q lack get_hits, get_misses or conn_panics", t)
		}
		w.daemonHits += hits
		w.daemonGets += hits + misses
		if panics > 0 {
			w.problems = append(w.problems, fmt.Sprintf("daemon recovered %d session panics", panics))
		}
	}
	return nil
}

func micros(ns float64) float64 { return ns / 1e3 }

// measured is the commands of the two measured phases.
func (w *wireRun) measured() counters { return w.paced.cnt.plus(w.sat.cnt) }

// pacedQuantile is the median over the open-loop segments of each segment's
// own q-quantile of pick, in µs.
func (w *wireRun) pacedQuantile(pick func(*pacedSeg) []int64, q float64) float64 {
	var per []float64
	for i := range w.paced.segs {
		if s := sortedCopy(pick(&w.paced.segs[i])); len(s) > 0 {
			per = append(per, micros(float64(quantile(s, q))))
		}
	}
	return median(per)
}

func segGet(s *pacedSeg) []int64 { return s.get }
func segSet(s *pacedSeg) []int64 { return s.set }
func segLag(s *pacedSeg) []int64 { return s.lag }

// satRates returns the commands per second of the closed-loop phase's full
// slices: the daemon's, the same normalised by the reference slices on
// either side, averaged, and the reference's own.
func (w *wireRun) satRates() (raw, normalised, reference []float64) {
	for i, s := range w.sat.slices {
		if !s.full {
			break
		}
		ref := (w.sat.refs[i].opsPerS() + w.sat.refs[i+1].opsPerS()) / 2
		raw = append(raw, s.opsPerS())
		normalised = append(normalised, s.opsPerS()*w.ref.opsPerS/ref)
		reference = append(reference, ref)
	}
	return raw, normalised, reference
}

// satCPU returns CPU per command over the closed-loop phase in µs: the
// daemon's, the same normalised by the reference's, and the reference
// responder's own over its slices.
func (w *wireRun) satCPU() (raw, normalised, reference float64) {
	var refTicks, refOps int64
	for _, s := range w.sat.refs {
		refTicks, refOps = refTicks+s.ticks, refOps+s.ops
	}
	raw = float64(w.sat.ticks) * tickMicros / float64(w.sat.cnt.ops())
	reference = float64(refTicks) * tickMicros / float64(refOps)
	return raw, raw * w.ref.cpuUsPerCmd / reference, reference
}

// endToEnd returns the metrics a user of the cache would see. The two timed
// in the closed-loop phase are normalised by the reference (see
// reference.go): measured next to a fixed do-nothing responder and scaled to
// the box's nominal speed. Latency is not among them: see wireLayer.
func (w *wireRun) endToEnd() map[string]metric {
	m := w.measured()
	_, rates, _ := w.satRates()
	_, cpu, _ := w.satCPU()
	return map[string]metric{
		"setup_s":       {median(w.setupS), "s"},
		"ops_per_s":     {median(rates), "1/s"},
		"cpu_us_per_op": {cpu, "us"},
		"hit_rate":      {float64(m.hits) / float64(m.gets), "ratio"},
		"rss_mib":       {w.sat.slices[len(w.sat.slices)-1].rssMiB, "MiB"},
	}
}

func (w *wireRun) pooled(pick func(*pacedSeg) []int64) []int64 {
	var parts [][]int64
	for i := range w.paced.segs {
		parts = append(parts, pick(&w.paced.segs[i]))
	}
	return sortedCopy(parts...)
}

// wireLayer returns the per-layer metrics that only a run over the wire can
// give: the open-loop latencies, which do not repeat well enough on this box
// to be gated, the raw values behind the normalised end-to-end metrics, and
// what the reference measured. The SET latencies are 0 on workloads that
// send no SET while measuring.
func (w *wireRun) wireLayer() map[string]metric {
	overhead := 0.0
	if w.sat.untracedRate > 0 {
		overhead = 100 * (w.sat.untracedRate - w.sat.tracedRate) / w.sat.untracedRate
	}
	structural := 0.0
	if w.daemonGets > 0 {
		structural = float64(w.daemonHits) / float64(w.daemonGets)
	}
	rawRates, _, refRates := w.satRates()
	rawCPU, _, refCPU := w.satCPU()
	return map[string]metric{
		"loadgen.lag_p99_us":               {micros(float64(quantile(w.pooled(segLag), 0.99))), "us"},
		"loadgen.late_ops":                 {float64(w.paced.cnt.late), "count"},
		"loadgen.get_p50_us":               {w.pacedQuantile(segGet, 0.50), "us"},
		"loadgen.get_p99_us":               {w.pacedQuantile(segGet, 0.99), "us"},
		"loadgen.get_p999_us":              {micros(float64(quantile(w.pooled(segGet), 0.999))), "us"},
		"loadgen.set_p50_us":               {w.pacedQuantile(segSet, 0.50), "us"},
		"loadgen.set_p99_us":               {w.pacedQuantile(segSet, 0.99), "us"},
		"loadgen.trace_overhead_pct":       {overhead, "%"},
		"loadgen.raw_ops_per_s":            {median(rawRates), "1/s"},
		"loadgen.raw_cpu_us_per_op":        {rawCPU, "us"},
		"reference.ops_per_s":              {median(refRates), "1/s"},
		"reference.cpu_us_per_cmd":         {refCPU, "us"},
		"store.wire_vs_structural_hit_gap": {float64(w.all.hits)/float64(w.all.gets) - structural, "ratio"},
	}
}

// notes are the raw values behind the normalised metrics, the sample counts
// and the highest percentile each supports, and how the phases went.
func (w *wireRun) notes() []string {
	describe := func(name string, s []int64) string {
		if len(s) == 0 {
			return name + ": no samples"
		}
		line := fmt.Sprintf("%s: n=%d pooled p50=%.1fus", name, len(s), micros(float64(quantile(s, 0.5))))
		if top := topPercentile(len(s)); top > 0 {
			line += fmt.Sprintf(" p%g=%.1fus (highest percentile with 10 samples beyond it)", 100*top, micros(float64(quantile(s, top))))
		}
		return line + fmt.Sprintf(" max=%.1fus", micros(float64(s[len(s)-1])))
	}
	p, s := w.paced.cnt, w.sat.cnt
	var rss []float64
	for _, sl := range w.sat.slices {
		rss = append(rss, sl.rssMiB)
	}
	rawRates, _, refRates := w.satRates()
	rawCPU, _, refCPU := w.satCPU()
	return []string{
		fmt.Sprintf("raw, before normalising by the reference: ops_per_s %.0f, cpu_us_per_op %.3f; reference at depth %d: %.0f ops/s (nominal %.0f), %.3f us CPU per command (nominal %.3f)",
			median(rawRates), rawCPU, w.plan.spec.refDepth, median(refRates), w.ref.opsPerS, refCPU, w.ref.cpuUsPerCmd),
		fmt.Sprintf("setup_s: %d set-ups %.3v", len(w.setupS), w.setupS),
		fmt.Sprintf("paced: %d commands of %d calls scheduled at R=%.0f/s (gets=%d hits=%d sets=%d deletes=%d fills=%d failed=%d, %d answered more than %v after their due time)",
			p.ops(), len(w.plan.paced.calls[0])+len(w.plan.paced.calls[1]), w.plan.spec.pacedRate, p.gets, p.hits, p.sets, p.deletes, p.fills, p.failed, p.late, lateLimit),
		describe("paced get latency per client call", w.pooled(segGet)),
		describe("paced set latency", w.pooled(segSet)),
		describe("generator lag", w.pooled(segLag)),
		fmt.Sprintf("sat: %d commands in %d slices of %v over %.2fs (gets=%d hits=%d sets=%d deletes=%d fills=%d failed=%d); rss_mib after the first slice %.1f, median %.1f, last %.1f",
			s.ops(), len(w.sat.slices), satSliceLen, w.sat.wall.Seconds(), s.gets, s.hits, s.sets, s.deletes, s.fills, s.failed,
			rss[0], median(rss), rss[len(rss)-1]),
	}
}
