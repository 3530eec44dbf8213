// Command cliffbench drives cliffhangerd with any workload the repository
// knows, over the memcached text protocol. -trace selects the request
// source: the classic zipf key-popularity load (now supporting any skew
// s > 0, including the 0.9–1.0 range real cache workloads show), the
// synthetic Memcachier 20-application trace (each application mapped onto a
// server tenant), the Facebook-ETC generator, or a recorded trace file.
// GET misses are demand-filled with a SET of the same key, modelling the
// application's read-through fill; -ttl gives every SET an expiry and
// -mutate mixes in the read-modify verbs (touch, append, incr).
//
// By default the load is closed-loop (each connection keeps one request or
// pipelined batch in flight). -rate N switches to open-loop injection: the
// feeder schedules requests at N req/s on a wall clock and latency is
// measured from each batch's scheduled send time, so server-side queueing
// under load shows up in the tail instead of being hidden by coordinated
// omission.
//
// -verify runs the sim-vs-wire cross-check instead of a load test: the same
// seeded trace is replayed by sim.Replay, the one replay loop, twice: over a
// store called directly and, through workload.Wire, over a real socket
// against an in-process server. It prints per-application hit rates and
// fails unless the two results are equal in every count, per class included;
// -mode picks the allocation mode. The load test fills and deletes through
// the same Wire.
// -print-tenants prints the cliffhangerd -tenants value
// matching the chosen trace.
//
// -conn-rate switches to the connection-scale scenario: ramp -conns
// mostly-idle connections at that many dials per second, keep a -hot cohort
// of closed-loop GET clients running, and report their p50/p99 next to the
// server's resident bytes per connection (from the stats verb). -conns-json
// writes the run as JSON; -conns-gate fails it unless every request
// succeeded and an idle connection cost the server at most 16 KiB.
//
// -chaos <spec> replays the workload through an in-process fault-injecting
// proxy (internal/chaos) between cliffbench and the server: latency, jitter,
// bandwidth caps, partial writes, torn-mid-payload resets, half-closed
// sockets. Pair it with -tolerate-faults, which turns transport failures
// into counted graceful worker stops instead of fatal errors — also the
// right mode when SIGTERMing the daemon under live load to exercise its
// graceful drain.
//
// Examples:
//
//	cliffbench -addr 127.0.0.1:11211 -conns 8 -duration 30s -zipf 0.9
//	cliffbench -addr 127.0.0.1:11211 -conns 10000 -conn-rate 2000 -conns-json conns.json
//	cliffbench -trace memcachier -duration 30s -rate 50000
//	cliffbench -trace memcachier -verify
//	cliffbench -duration 10s -chaos 'latency=1ms,chunk=7,reset-prob=0.0002' -tolerate-faults
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/chaos"
	"cliffhanger/internal/client"
	"cliffhanger/internal/metrics"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/sim"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "server address")
		traceSpec = flag.String("trace", "zipf", "request source: zipf, facebook, memcachier or file:<path>")
		conns     = flag.Int("conns", 8, "concurrent connections")
		duration  = flag.Duration("duration", 10*time.Second, "measurement duration")
		requests  = flag.Int64("requests", 0, "request budget for the trace source (0 = auto)")
		keys      = flag.Int("keys", 0, "key-space size (0 = source default: 100000 for zipf, 1M for facebook)")
		zipfS     = flag.Float64("zipf", 1.1, "zipf skew parameter, any s > 0 (zipf trace)")
		valueSize = flag.Int("value", 256, "value size in bytes (zipf trace)")
		getRatio  = flag.Float64("get-ratio", 0.9, "fraction of operations that are GETs (zipf trace)")
		scale     = flag.Float64("scale", 1.0, "memory/key-space scale (memcachier trace)")
		tenant    = flag.String("tenant", "", "send everything to this tenant instead of mapping trace apps onto app<N> tenants")
		pipeline  = flag.Int("pipeline", 1, "GETs per pipelined batch (1 = plain request/response)")
		warm      = flag.Bool("warm", true, "preload every key before measuring (zipf trace)")
		timeout   = flag.Duration("timeout", 5*time.Second, "dial timeout")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		ttl       = flag.Int64("ttl", 0, "exptime in seconds applied to every SET (0 = never expire)")
		mutate    = flag.Float64("mutate", 0, "fraction of GETs replaced by mutation verbs (touch/append/incr)")
		rate      = flag.Float64("rate", 0, "open-loop injection rate in req/s (0 = closed loop)")
		verify    = flag.Bool("verify", false, "cross-check wire-replay hit rates against internal/sim and exit")
		modeFlag  = flag.String("mode", "cliffhanger", "allocation mode for -verify: default, cliffhanger, global-lru, memshare")
		hitrate   = flag.String("hitrate-json", "", "run the default/cliffhanger/memshare head-to-head over the wire, write per-app + aggregate hit rates to this JSON file, and exit")
		hitGate   = flag.Bool("hitrate-gate", false, "with -hitrate-json: exit non-zero unless sim equals wire in every mode and memshare's wire aggregate beats the cliffhanger static split")
		printTen  = flag.Bool("print-tenants", false, "print the cliffhangerd -tenants value for the chosen trace and exit")
		churn     = flag.Bool("churn", false, "run the tenant-churn lifecycle scenario (create/shrink/recover) and exit")
		tenantMB  = flag.Int64("tenant-mb", 64, "primary tenant reservation in MB; -churn uses it to compute resize targets")
		churnMB   = flag.Int64("churn-mb", 32, "reservation in MB for the tenant -churn creates and deletes")
		connRate  = flag.Float64("conn-rate", 0, "run the connection-scale scenario instead of a load test: ramp -conns mostly-idle connections at this many dials/s (0 disables)")
		hotConns  = flag.Int("hot", 32, "hot-cohort size for -conn-rate: connections doing closed-loop GETs while the rest idle")
		connsJSON = flag.String("conns-json", "", "write the -conn-rate run to this JSON file (empty = log only)")
		connsGate = flag.Bool("conns-gate", false, "with -conn-rate: exit non-zero unless requests all succeeded and the server held <= 16 KiB per connection")
		chaosSpec = flag.String("chaos", "", "replay through an in-process fault proxy with this spec, e.g. latency=1ms,chunk=7,reset-prob=0.0002 (empty disables)")
		tolerate  = flag.Bool("tolerate-faults", false, "count transport failures as graceful worker stops instead of aborting (for -chaos and drain testing)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "cliffbench: ", 0)
	if *zipfS <= 0 {
		logger.Fatal("-zipf must be > 0")
	}
	if *pipeline < 1 {
		*pipeline = 1
	}

	opts := workload.Options{
		Requests:    *requests,
		Seed:        *seed,
		Keys:        *keys,
		ZipfS:       *zipfS,
		ValueSize:   *valueSize,
		GetFraction: *getRatio,
		Scale:       *scale,
	}

	if *printTen {
		wl := open(logger, *traceSpec, opts)
		if wl.Apps == nil {
			logger.Fatalf("trace %s carries no tenant layout", wl.Name)
		}
		fmt.Println(workload.TenantSpec(wl.Apps))
		return
	}

	if *hitrate != "" {
		if opts.Requests <= 0 {
			// Long enough for the arbiter to converge and amortize its
			// migration transients.
			opts.Requests = 500000
		}
		runHitrate(logger, *traceSpec, opts, *hitrate, *hitGate)
		return
	}

	if *verify {
		if opts.Requests <= 0 {
			opts.Requests = 200000
		}
		runVerify(logger, *traceSpec, opts, *modeFlag)
		return
	}

	if *connRate > 0 {
		runConns(logger, connsConfig{
			addr:     *addr,
			conns:    *conns,
			rate:     *connRate,
			hot:      *hotConns,
			keys:     *keys,
			value:    *valueSize,
			duration: *duration,
			timeout:  *timeout,
			seed:     *seed,
			jsonPath: *connsJSON,
			gate:     *connsGate,
		})
		return
	}

	if *churn {
		runChurn(logger, churnConfig{
			addr:     *addr,
			conns:    *conns,
			duration: *duration,
			keys:     *keys,
			zipfS:    *zipfS,
			value:    *valueSize,
			timeout:  *timeout,
			seed:     *seed,
			tenant:   *tenant,
			tenantMB: *tenantMB,
			churnMB:  *churnMB,
		})
		return
	}

	// With -chaos, workers dial a local fault-injecting proxy in front of the
	// server; warmup still goes direct so the cache starts from a known state.
	dialAddr := *addr
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			logger.Fatal(err)
		}
		cfg.Target = *addr
		proxy := chaos.New(cfg)
		if err := proxy.Start(); err != nil {
			logger.Fatalf("chaos proxy: %v", err)
		}
		defer func() {
			proxy.Close()
			logger.Printf("chaos proxy: %d connections, %d injected resets", proxy.Accepted(), proxy.Resets())
		}()
		dialAddr = proxy.Addr()
		logger.Printf("chaos proxy on %s -> %s (%s)", dialAddr, *addr, *chaosSpec)
	}

	wl := open(logger, *traceSpec, opts)
	defer wl.Close()
	// Map multi-app traces onto app<N> server tenants unless the caller
	// pinned a single tenant.
	var tenants map[int]string
	if len(wl.Apps) > 1 && *tenant == "" {
		tenants = make(map[int]string, len(wl.Apps))
		for _, a := range wl.Apps {
			tenants[a.ID] = workload.TenantName(a.ID)
		}
	}

	if *warm && wl.Name == "zipf" {
		nkeys := *keys
		if nkeys <= 0 {
			nkeys = workload.DefaultZipfKeys
		}
		logger.Printf("warming %d keys", nkeys)
		c := dial(logger, *addr, *tenant, *timeout)
		keyspace := make([]string, nkeys)
		for i := range keyspace {
			keyspace[i] = workload.ZipfKey(i)
		}
		// Warm values are sized like the replay's own fills (sim.PadValue:
		// len(key)+len(value) == valueSize), so a warmed key's first re-set
		// charges the same slab class it was warmed into. Runs of keys that
		// share a length share one padded value per pipelined batch.
		const batch = 512
		for lo := 0; lo < len(keyspace); {
			hi := lo
			klen := len(keyspace[lo])
			for hi < len(keyspace) && hi-lo < batch && len(keyspace[hi]) == klen {
				hi++
			}
			v := sim.PadValue(trace.Request{Key: keyspace[lo], Size: int64(*valueSize)})
			if err := c.PipelineSetOptions(keyspace[lo:hi], v, 0, *ttl); err != nil {
				logger.Fatalf("warmup: %v", err)
			}
			lo = hi
		}
		c.Close()
	}

	var (
		ops, hits, misses, fills, mutations, rejected atomic.Int64
		faults                                        atomic.Int64
		lat                                           metrics.LatencyHistogram
		perApp                                        = metrics.NewSummary()
		wg                                            sync.WaitGroup
	)
	batchSize := max(*pipeline, 16)
	batches := make(chan reqBatch, 4**conns)
	stop := make(chan struct{})
	timer := time.AfterFunc(*duration, func() { close(stop) })
	defer timer.Stop()

	// Feeder: the source is single-threaded, so one goroutine reads it and
	// deals batches to the workers; in open-loop mode each batch carries its
	// scheduled send time.
	go func() {
		defer close(batches)
		var pace *workload.Pacer
		if *rate > 0 {
			pace = workload.NewPacer(time.Now(), *rate)
		}
		for {
			b := reqBatch{reqs: make([]trace.Request, 0, batchSize)}
			for len(b.reqs) < batchSize {
				r, ok := wl.Source.Next()
				if !ok {
					break
				}
				b.reqs = append(b.reqs, r)
			}
			if len(b.reqs) == 0 {
				return
			}
			if pace != nil {
				b.due = pace.Next(len(b.reqs))
			}
			select {
			case batches <- b:
			case <-stop:
				return
			}
		}
	}()

	logger.Printf("running %d conns for %v (trace=%s, pipeline=%d, rate=%.0f, ttl=%ds, mutate=%.2f)",
		*conns, *duration, wl.Name, *pipeline, *rate, *ttl, *mutate)
	start := time.Now()
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Under chaos or drain testing the client rides out transient
			// failures on idempotent verbs; a clean run keeps the historic
			// fail-fast single-dial behavior.
			copts := client.Options{DialTimeout: *timeout}
			if *tolerate || *chaosSpec != "" {
				copts.OpTimeout = 2 * *timeout
				copts.MaxRetries = 3
			}
			c := dialOptions(logger, dialAddr, *tenant, copts)
			w := &worker{
				logger:    logger,
				c:         c,
				wire:      workload.NewWire(c, *ttl),
				rng:       rand.New(rand.NewSource(*seed + int64(id))),
				pipeline:  *pipeline,
				tenants:   tenants,
				ttl:       *ttl,
				mutate:    *mutate,
				tolerate:  *tolerate,
				ops:       &ops,
				hits:      &hits,
				misses:    &misses,
				fills:     &fills,
				mutations: &mutations,
				rejected:  &rejected,
				lat:       &lat,
				perApp:    perApp,
			}
			w.onValue = func(i int, _ []byte, _ uint32, _ uint64, _ []byte) { w.hitbuf[i] = true }
			defer w.c.Close()
			for {
				select {
				case <-stop:
					return
				case b, ok := <-batches:
					if !ok {
						return
					}
					if err := w.processBatch(b); err != nil {
						// Transport gave out past the client's retries. Under
						// -tolerate-faults that is an expected outcome of
						// injected chaos or a draining server: count it and
						// retire the worker gracefully.
						if !w.tolerate {
							logger.Fatalf("%v", err)
						}
						faults.Add(1)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := ops.Load()
	h, m := hits.Load(), misses.Load()
	hitRate := 0.0
	if h+m > 0 {
		hitRate = float64(h) / float64(h+m)
	}
	fmt.Printf("ops=%d ops/s=%.0f hit_rate=%.4f fills=%d mutations=%d rejected_sets=%d faulted_workers=%d\n",
		total, float64(total)/elapsed.Seconds(), hitRate, fills.Load(), mutations.Load(), rejected.Load(), faults.Load())
	if *rate > 0 {
		// Demand fills ride along with misses but are not scheduled, so the
		// achieved rate counts trace requests only.
		fmt.Printf("open loop: target=%.0f req/s achieved=%.0f req/s (latency measured from scheduled send times)\n",
			*rate, float64(total-fills.Load())/elapsed.Seconds())
	}
	if tenants != nil {
		for _, label := range perApp.Labels() {
			c := perApp.Counter(label)
			fmt.Printf("%s gets=%d hit_rate=%.4f\n", label, c.Total(), c.HitRate())
		}
	}
	// Client-side tail latency per round trip (a pipelined batch counts as
	// one round trip), so perf changes report their tail, not just
	// throughput.
	fmt.Printf("latency per round trip: n=%d mean=%v p50=%v p95=%v p99=%v\n",
		lat.Count(), lat.Mean(), lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99))
}

// reqBatch is one feeder-to-worker unit of work; due is the open-loop
// scheduled send time (zero in closed-loop mode).
type reqBatch struct {
	reqs []trace.Request
	due  time.Time
}

// worker owns one connection and its reusable batch state. Fills and
// deletes go through wire; pipelined GETs and mutation verbs use c directly.
type worker struct {
	logger   *log.Logger
	c        *client.Client
	wire     *workload.Wire
	rng      *rand.Rand
	pipeline int
	// tenants maps an app to its tenant; nil sends everything to the
	// connection's own tenant.
	tenants  map[int]string
	ttl      int64
	mutate   float64
	tolerate bool

	keys    []string
	hitbuf  []bool
	onValue client.IndexedValueFunc

	ops, hits, misses, fills, mutations, rejected *atomic.Int64
	lat                                           *metrics.LatencyHistogram
	perApp                                        *metrics.Summary
}

// processBatch replays one batch: runs of consecutive same-app GETs go out
// as one pipelined streaming batch (the misses demand-filled afterwards),
// everything else as individual round trips. Latency is recorded per round
// trip in closed-loop mode, and once per batch from its scheduled send time
// in open-loop mode. A returned error is a transport failure that outlived
// the client's retries; the caller decides whether it is fatal.
func (w *worker) processBatch(b reqBatch) error {
	if !b.due.IsZero() {
		if d := time.Until(b.due); d > 0 {
			time.Sleep(d)
		}
	}
	closedLoop := b.due.IsZero()
	i := 0
	for i < len(b.reqs) {
		r := b.reqs[i]
		if r.Op == trace.OpGet && w.mutate > 0 && w.rng.Float64() < w.mutate {
			w.wire.Select(w.tenants[r.App])
			start := time.Now()
			if err := w.runMutation(r); err != nil {
				return err
			}
			if closedLoop {
				w.lat.Record(time.Since(start))
			}
			w.ops.Add(1)
			w.mutations.Add(1)
			i++
			continue
		}
		switch r.Op {
		case trace.OpGet:
			j := i
			w.keys = w.keys[:0]
			w.hitbuf = w.hitbuf[:0]
			for j < len(b.reqs) && len(w.keys) < w.pipeline &&
				b.reqs[j].Op == trace.OpGet && b.reqs[j].App == r.App {
				w.keys = append(w.keys, b.reqs[j].Key)
				w.hitbuf = append(w.hitbuf, false)
				j++
			}
			w.wire.Select(w.tenants[r.App])
			start := time.Now()
			if err := w.c.PipelineGetFunc(w.keys, w.onValue); err != nil {
				return fmt.Errorf("get: %w", err)
			}
			if closedLoop {
				w.lat.Record(time.Since(start))
			}
			w.ops.Add(int64(len(w.keys)))
			var batchHits int64
			for idx := 0; idx < len(w.keys); idx++ {
				if w.hitbuf[idx] {
					batchHits++
					continue
				}
				// Read-through fill: repopulate the missed key.
				w.misses.Add(1)
				w.fills.Add(1)
				w.ops.Add(1)
				if err := w.fill(b.reqs[i+idx]); err != nil {
					return err
				}
			}
			w.hits.Add(batchHits)
			if w.tenants != nil {
				c := w.perApp.Counter(w.tenants[r.App])
				c.AddHits(batchHits)
				c.AddMisses(int64(len(w.keys)) - batchHits)
			}
			i = j
		case trace.OpSet:
			start := time.Now()
			if err := w.fill(r); err != nil {
				return err
			}
			if closedLoop {
				w.lat.Record(time.Since(start))
			}
			w.ops.Add(1)
			i++
		case trace.OpDelete:
			start := time.Now()
			if err := w.wire.Delete(w.tenants[r.App], r.Key); err != nil {
				return err
			}
			if closedLoop {
				w.lat.Record(time.Since(start))
			}
			w.ops.Add(1)
			i++
		default:
			i++
		}
	}
	if !closedLoop {
		w.lat.Record(time.Since(b.due))
	}
	return nil
}

// fill is the Wire's padded fill of r's key; a fill the server refuses is
// counted, not fatal: the workload legitimately contains values larger than
// every slab class, and they behave as permanent misses, as in the simulator.
func (w *worker) fill(r trace.Request) error {
	refused, err := w.wire.Fill(w.tenants[r.App], r)
	if refused {
		w.rejected.Add(1)
	}
	return err
}

// runMutation issues one mutation verb against r's key: a TTL refresh
// (touch), a small append, or an increment of a per-key counter sibling.
// NOT_FOUND outcomes are normal under eviction and expiry; an append
// rejected because the value outgrew its slab class is healed by re-setting
// the key.
func (w *worker) runMutation(r trace.Request) error {
	switch w.rng.Intn(3) {
	case 0:
		if _, err := w.c.Touch(r.Key, w.ttl); err != nil {
			return fmt.Errorf("touch: %w", err)
		}
	case 1:
		if _, err := w.c.Append(r.Key, []byte("+")); err != nil {
			if errors.Is(err, protocol.ErrRemote) {
				// Likely grown past the largest slab class: reset the key.
				return w.fill(r)
			}
			return fmt.Errorf("append: %w", err)
		}
	default:
		ctr := r.Key + ".ctr"
		if _, found, err := w.c.Incr(ctr, 1); err != nil {
			return fmt.Errorf("incr: %w", err)
		} else if !found {
			// First touch of this counter: seed it.
			if err := w.c.SetWithOptions(ctr, []byte("0"), 0, w.ttl); err != nil {
				return fmt.Errorf("incr seed: %w", err)
			}
		}
	}
	return nil
}

// runVerify executes the sim-vs-wire cross-check and exits non-zero when the
// two results differ in any count.
func runVerify(logger *log.Logger, spec string, opts workload.Options, modeName string) {
	mode, err := store.ParseAllocationMode(modeName)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("cross-checking %s (requests=%d seed=%d mode=%s) against internal/sim",
		spec, opts.Requests, opts.Seed, mode)
	res, err := workload.CrossCheck(workload.VerifyConfig{Spec: spec, Options: opts, Config: sim.Config{Mode: mode}})
	if err != nil {
		logger.Fatal(err)
	}
	apps, maxDelta := compareApps(res)
	for _, a := range apps {
		fmt.Printf("app%-2d gets=%-8d sim=%.4f wire=%.4f delta=%.4f\n",
			a.App, a.Gets, a.Sim, a.Wire, math.Abs(a.Wire-a.Sim))
	}
	fmt.Printf("overall: sim=%.4f wire=%.4f max_delta=%.4f fills=%d refused=%d",
		res.Sim.HitRate(), res.Wire.HitRate(), maxDelta, res.Wire.Fills, res.Wire.Refused)
	if mode == store.AllocMemshare {
		fmt.Printf(" arbiter_moves=%d", len(res.Wire.ArbiterMoves))
	}
	fmt.Println()
	if !res.OK() {
		fmt.Printf("verify: FAIL (%v)\n", res.Mismatch)
		os.Exit(1)
	}
	fmt.Println("verify: PASS")
}

// hitrateApp is one application's wire/sim hit-rate pair in the head-to-head
// report and in -verify's listing.
type hitrateApp struct {
	App  int     `json:"app"`
	Gets int64   `json:"gets"`
	Sim  float64 `json:"sim_hit_rate"`
	Wire float64 `json:"wire_hit_rate"`
}

// hitrateMode is one allocation mode's head-to-head result.
type hitrateMode struct {
	SimOverall   float64      `json:"sim_hit_rate"`
	WireOverall  float64      `json:"wire_hit_rate"`
	MaxDelta     float64      `json:"max_sim_wire_delta"`
	ArbiterMoves int64        `json:"arbiter_moves,omitempty"`
	Apps         []hitrateApp `json:"apps"`
}

// hitrateReport is the -hitrate-json document.
type hitrateReport struct {
	Trace    string  `json:"trace"`
	Requests int64   `json:"requests"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	// EqualSplitMB is the per-app partition every mode runs under: the
	// trace's total memory divided evenly across apps. The head-to-head
	// models a naively provisioned cluster — the operator granted every
	// tenant the same share instead of sizing partitions to the workloads —
	// which is the operating point cross-tenant arbitration is meant to
	// rescue and the one the static split cannot adapt from.
	EqualSplitMB int64                  `json:"equal_split_mb"`
	Modes        map[string]hitrateMode `json:"modes"`
	// MemshareGain is memshare's wire aggregate minus cliffhanger's — the
	// cross-tenant arbitration win over the static per-tenant split.
	MemshareGain float64 `json:"memshare_minus_cliffhanger_wire"`
}

// runHitrate replays the same seeded trace under default, cliffhanger and
// memshare through the sim-vs-wire cross-check harness (every run includes
// its conservation audit) and records per-app + aggregate hit rates as JSON.
// All three modes run with the trace's total memory split evenly across the
// apps, so the only difference between cliffhanger and memshare is whether
// memory can migrate between tenants at runtime. With gate set it exits
// non-zero unless sim equals wire in every mode and memshare's wire aggregate
// beats the cliffhanger static split.
func runHitrate(logger *log.Logger, spec string, opts workload.Options, path string, gate bool) {
	wl := open(logger, spec, opts)
	if wl.Apps == nil {
		logger.Fatalf("trace %s carries no tenant layout for the head-to-head", wl.Name)
	}
	var totalMB int64
	for _, a := range wl.Apps {
		totalMB += a.MemoryMB
	}
	equalMB := totalMB / int64(len(wl.Apps))
	if equalMB < 1 {
		equalMB = 1
	}
	override := make(map[int]int64, len(wl.Apps))
	for _, a := range wl.Apps {
		override[a.ID] = equalMB << 20
	}
	wl.Close()

	report := hitrateReport{
		Trace:        spec,
		Requests:     opts.Requests,
		Seed:         opts.Seed,
		Scale:        opts.Scale,
		EqualSplitMB: equalMB,
		Modes:        make(map[string]hitrateMode),
	}
	for _, mode := range []store.AllocationMode{
		store.AllocDefault, store.AllocCliffhanger, store.AllocMemshare,
	} {
		logger.Printf("head-to-head: replaying %s (requests=%d seed=%d equal_split=%dMiB) under %s",
			spec, opts.Requests, opts.Seed, equalMB, mode)
		res, err := workload.CrossCheck(workload.VerifyConfig{
			Spec: spec, Options: opts,
			Config: sim.Config{Mode: mode, AppMemoryOverride: override},
		})
		if err != nil {
			logger.Fatal(err)
		}
		if gate && !res.OK() {
			fmt.Printf("hitrate gate: FAIL (%s: %v)\n", mode, res.Mismatch)
			os.Exit(1)
		}
		m := hitrateMode{
			SimOverall:   res.Sim.HitRate(),
			WireOverall:  res.Wire.HitRate(),
			ArbiterMoves: int64(len(res.Wire.ArbiterMoves)),
		}
		m.Apps, m.MaxDelta = compareApps(res)
		report.Modes[mode.String()] = m
		fmt.Printf("%-11s sim=%.4f wire=%.4f arbiter_moves=%d\n",
			mode, m.SimOverall, m.WireOverall, m.ArbiterMoves)
	}
	report.MemshareGain = report.Modes[store.AllocMemshare.String()].WireOverall -
		report.Modes[store.AllocCliffhanger.String()].WireOverall
	fmt.Printf("memshare wire gain over cliffhanger static split: %+.4f\n", report.MemshareGain)
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		logger.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("wrote %s", path)
	if gate && report.MemshareGain <= 0 {
		fmt.Println("hitrate gate: FAIL (memshare did not beat the static split)")
		os.Exit(1)
	}
	if gate {
		fmt.Println("hitrate gate: PASS")
	}
}

// compareApps lists each application's GETs and sim and wire hit rates in ID
// order, with the largest difference between the two.
func compareApps(res *workload.VerifyResult) ([]hitrateApp, float64) {
	ids := make([]int, 0, len(res.Sim.Apps))
	for id := range res.Sim.Apps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	apps := make([]hitrateApp, 0, len(ids))
	var maxDelta float64
	for _, id := range ids {
		s, w := res.Sim.Apps[id], res.Wire.Apps[id]
		apps = append(apps, hitrateApp{App: id, Gets: w.Requests, Sim: s.HitRate(), Wire: w.HitRate()})
		maxDelta = max(maxDelta, math.Abs(w.HitRate()-s.HitRate()))
	}
	return apps, maxDelta
}

func open(logger *log.Logger, spec string, opts workload.Options) *workload.Workload {
	wl, err := workload.Open(spec, opts)
	if err != nil {
		logger.Fatal(err)
	}
	return wl
}

func dial(logger *log.Logger, addr, tenant string, timeout time.Duration) *client.Client {
	return dialOptions(logger, addr, tenant, client.Options{DialTimeout: timeout})
}

func dialOptions(logger *log.Logger, addr, tenant string, opts client.Options) *client.Client {
	c, err := client.DialOptions(addr, opts)
	if err != nil {
		logger.Fatalf("dial %s: %v", addr, err)
	}
	if tenant != "" {
		if err := c.SelectTenant(tenant); err != nil {
			logger.Fatalf("tenant %s: %v", tenant, err)
		}
	}
	return c
}
