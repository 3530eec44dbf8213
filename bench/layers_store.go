package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/core"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/slab"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// The in-process layers under the front end: protocol, the store's data and
// accounting planes, the paper's algorithm, and the tenant lifecycle.

// chunkReader hands out its data one chunk per Read, the way a socket hands
// a server one client write at a time.
type chunkReader struct {
	chunks [][]byte
	next   int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.next == len(c.chunks) {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[c.next])
	if n < len(c.chunks[c.next]) {
		c.chunks[c.next] = c.chunks[c.next][n:]
	} else {
		c.next++
	}
	return n, nil
}

// parseCost times Parser.ReadCommand over reqs encoded and delivered per
// commands to a Read.
func (l *layers) parseCost(reqs []request, per int) (nsPerCmd, allocsPerCmd float64) {
	var chunks [][]byte
	for lo := 0; lo < len(reqs); lo += per {
		var b []byte
		for _, r := range reqs[lo:min(lo+per, len(reqs))] {
			b = l.encode(b, r)
		}
		chunks = append(chunks, b)
	}
	cr := &chunkReader{}
	br := bufio.NewReaderSize(cr, 64<<10)
	parser := protocol.NewParser(br)
	run := func() {
		cr.chunks, cr.next = append(cr.chunks[:0], chunks...), 0
		br.Reset(cr)
		for range reqs {
			if _, err := parser.ReadCommand(); err != nil {
				panic(fmt.Sprintf("parsing the workload's own bytes: %v", err))
			}
		}
	}
	run()
	before := mallocs()
	ns := nsPerOp(len(reqs), run)
	return ns, float64(mallocs()-before) / float64(layerRounds*len(reqs))
}

// only returns the head of the sample with every request turned into op.
func (l *layers) only(op trace.Op) []request {
	var out []request
	for _, r := range l.reqs[:min(len(l.reqs), 8192)] {
		r.op = op
		out = append(out, r)
	}
	return out
}

func (l *layers) protocol() error {
	gets, sets := l.only(trace.OpGet), l.only(trace.OpSet)
	ns, allocs := l.parseCost(gets, 1)
	l.set("protocol.parse_ns.get", ns, "ns")
	l.set("protocol.parse_allocs_per_cmd", allocs, "count")
	ns, _ = l.parseCost(sets, 1)
	l.set("protocol.parse_ns.set", ns, "ns")
	ns, _ = l.parseCost(gets, 64)
	l.set("protocol.parse_ns.get_pipelined64", ns, "ns")

	resp := bufio.NewWriterSize(io.Discard, 64<<10)
	var hdr []byte
	l.set("protocol.respond_ns.value", nsPerOp(len(gets), func() {
		for _, r := range gets {
			v := l.p.value(r.key, r.size)
			hdr = protocol.AppendValueHeader(hdr[:0], l.keyBytes[r.key], 0, len(v), 0, false)
			resp.Write(hdr)
			resp.Write(v)
			resp.WriteString("\r\nEND\r\n")
		}
		resp.Flush()
	}), "ns")
	return nil
}

// residentSet is a store holding one value for each of up to 8192 distinct
// keys of the sample, in a tenant large enough that none is evicted, so a
// loop over it is all hits (or, with a key prefix, all misses).
type residentSet struct {
	st   *store.Store
	reqs []request // one per distinct key
	miss [][]byte  // keys that are not stored
}

const residentTenant = "resident"

func (l *layers) newResidentSet() (*residentSet, error) {
	rs := &residentSet{st: store.New(store.Config{DefaultMode: store.AllocCliffhanger, DefaultPolicy: cache.PolicyLRU})}
	seen := make(map[uint32]bool)
	var bytes int64
	for _, r := range l.reqs {
		if !seen[r.key] && len(rs.reqs) < 8192 {
			seen[r.key] = true
			rs.reqs = append(rs.reqs, r)
			rs.miss = append(rs.miss, append([]byte("~"), l.keyBytes[r.key]...))
			bytes += int64(r.size)
		}
	}
	if err := rs.st.RegisterTenant(residentTenant, max(64<<20, 8*bytes)); err != nil {
		return nil, err
	}
	// Two passes: in cliffhanger mode the first leaves some keys evicted
	// while the class is still growing.
	for pass := 0; pass < 2; pass++ {
		for _, r := range rs.reqs {
			if err := rs.st.SetItemBytes(residentTenant, l.keyBytes[r.key], l.p.value(r.key, r.size), 0, 0); err != nil {
				return nil, err
			}
		}
		rs.st.Flush()
	}
	return rs, nil
}

func (rs *residentSet) getAll(keys func(i int) []byte) {
	for i := range rs.reqs {
		v, ok, _ := rs.st.GetItemView(residentTenant, keys(i))
		if ok {
			v.Release()
		}
	}
}

// otherClass returns a charged size that lands in another slab class than
// size does.
func otherClass(size uint32) uint32 {
	if size >= 2048 {
		return size / 4
	}
	return size*4 + 64
}

func (l *layers) storeData() error {
	rs, err := l.newResidentSet()
	if err != nil {
		return err
	}
	defer rs.st.Close()
	st, n := rs.st, len(rs.reqs)
	hitKey := func(i int) []byte { return l.keyBytes[rs.reqs[i].key] }
	missKey := func(i int) []byte { return rs.miss[i] }

	// The data-plane loops time the calls a request makes; the events they
	// leave behind are replayed by the bookkeeper on the other core, as in
	// the daemon, and drained untimed between rounds. What the replay costs
	// is the accounting plane's bookkeeper.drain_ns_per_event.
	quarantined := int64(0)
	settle := func() {
		if q, err := st.ReclaimStats(residentTenant); err == nil && q.QuarantinedChunks > quarantined {
			quarantined = q.QuarantinedChunks
		}
		st.Flush()
	}
	before := mallocs()
	l.set("store.get_hit_ns", nsPerOpThen(n, func() { rs.getAll(hitKey) }, settle), "ns")
	l.set("store.get_miss_ns", nsPerOpThen(n, func() { rs.getAll(missKey) }, settle), "ns")
	// filler backs values of sizes the plan's own pattern does not cover.
	filler := make([]byte, 4*len(l.p.pattern)+64)
	setAll := func(size func(r request) uint32) func() {
		return func() {
			for _, r := range rs.reqs {
				n := max(0, int(size(r))-len(l.keyBytes[r.key]))
				st.SetItemBytes(residentTenant, l.keyBytes[r.key], filler[:n], 0, 0)
			}
		}
	}
	same := func(r request) uint32 { return r.size }
	l.set("store.set_ns", nsPerOpThen(n, setAll(same), settle), "ns")
	l.set("store.allocs_per_op", float64(mallocs()-before)/float64(3*layerRounds*n), "count")

	// Two goroutines over disjoint halves, what two connections do to one
	// tenant: the time one goroutine's call takes while the other runs.
	l.set("store.get_hit_ns.g2", 2*nsPerOpThen(n, func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += 2 {
					if v, ok, _ := st.GetItemView(residentTenant, hitKey(i)); ok {
						v.Release()
					}
				}
			}(g)
		}
		wg.Wait()
	}, settle), "ns")

	// Every round moves every key to the other of two slab classes.
	flip := false
	l.set("store.reset_crossclass_ns", nsPerOpThen(n, func() {
		flip = !flip
		setAll(func(r request) uint32 {
			if flip {
				return otherClass(r.size)
			}
			return r.size
		})()
	}, settle), "ns")
	l.set("store.delete_ns", nsPerOpThen(n, func() {
		for _, r := range rs.reqs {
			st.Delete(residentTenant, l.p.keys[r.key])
		}
	}, func() {
		settle()
		setAll(same)() // the keys must be back for the next round
		settle()
	}), "ns")
	l.set("store.quarantined_chunks_max", float64(quarantined), "count")

	classes, err := st.SlabStats(residentTenant)
	if err != nil {
		return err
	}
	_, used, totalBytes := store.SumArenaStats(classes)
	l.set("store.arena_occupancy", float64(used)/float64(max(totalBytes, 1)), "ratio")

	// Heap growth of a second, identical resident set, per item it holds.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rs2, err := l.newResidentSet()
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	items, err := rs2.st.Items(residentTenant)
	if err != nil {
		return err
	}
	l.set("store.bytes_per_item", float64(int64(m1.HeapInuse)-int64(m0.HeapInuse))/float64(max(items, 1)), "B")
	rs2.st.Close()

	// The paper's Tables 6-7 figure: the same request stream, fills
	// included, through a default-mode and a cliffhanger-mode store.
	var perMode [2]float64
	for i, mode := range []store.AllocationMode{store.AllocDefault, store.AllocCliffhanger} {
		ns, _, err := l.replayCost(mode, false)
		if err != nil {
			return err
		}
		perMode[i] = ns
	}
	l.set("store.mode_overhead_pct", 100*(perMode[1]-perMode[0])/perMode[0], "%")
	l.notes = append(l.notes, fmt.Sprintf("store.mode_overhead_pct: default %.0f ns/op, cliffhanger %.0f ns/op on the workload's own stream, bookkeeping drained inside the timed loop", perMode[0], perMode[1]))
	return nil
}

// replayCost is the median cost per store call of the sample, applied to a
// freshly warmed store of the plan's tenants, the final Flush included. It
// also returns the advisory events the store shed.
func (l *layers) replayCost(mode store.AllocationMode, syncBookkeeping bool) (ns float64, dropped int64, err error) {
	st, err := l.newStore(mode, syncBookkeeping)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	if err := l.warm(st); err != nil {
		return 0, 0, err
	}
	per := make([]float64, layerRounds)
	for i := range per {
		calls := 0
		start := time.Now()
		for _, r := range l.reqs {
			_, n, err := l.apply(st, r)
			if err != nil {
				return 0, 0, err
			}
			calls += n
		}
		st.Flush()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	for _, name := range st.Tenants() {
		d, _ := st.DroppedEvents(name)
		dropped += d
	}
	return median(per), dropped, nil
}

func (l *layers) accounting() error {
	// Drain: a burst of GET hits small enough that nothing is shed, then
	// the time Flush needs to replay it.
	rs, err := l.newResidentSet()
	if err != nil {
		return err
	}
	const burst = 2048
	n := min(burst, len(rs.reqs))
	drain := make([]float64, 0, 4*layerRounds)
	for i := 0; i < cap(drain); i++ {
		for j := 0; j < n; j++ {
			if v, ok, _ := rs.st.GetItemView(residentTenant, l.keyBytes[rs.reqs[j].key]); ok {
				v.Release()
			}
		}
		start := time.Now()
		rs.st.Flush()
		drain = append(drain, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	rs.st.Close()
	l.set("bookkeeper.drain_ns_per_event", median(drain), "ns")

	async, dropped, err := l.replayCost(store.AllocCliffhanger, false)
	if err != nil {
		return err
	}
	inline, _, err := l.replayCost(store.AllocCliffhanger, true)
	if err != nil {
		return err
	}
	l.set("bookkeeper.inline_ns_per_op", inline-async, "ns")
	l.set("bookkeeper.dropped_events", float64(dropped), "count")

	// The single-threaded Tenant the bookkeeper replays into, driven
	// directly with the sample's busiest tenant's requests.
	perApp := make(map[uint16]int)
	busiest := l.reqs[0].app
	for _, r := range l.reqs {
		if perApp[r.app]++; perApp[r.app] > perApp[busiest] {
			busiest = r.app
		}
	}
	name := l.tenant[busiest]
	var mem int64
	for _, spec := range strings.Split(l.p.tenants, ",") {
		if n, mb, _ := strings.Cut(spec, ":"); n == name {
			mem, _ = strconv.ParseInt(mb, 10, 64)
		}
	}
	var mine []request
	for _, r := range l.reqs {
		if r.app == busiest {
			mine = append(mine, r)
		}
	}
	newTenant := func() (*store.Tenant, error) {
		return store.NewTenant(store.TenantConfig{Name: name, MemoryBytes: mem << 20, Mode: store.AllocCliffhanger})
	}
	var access, admit []float64
	var admits, evictions int
	for i := 0; i < layerRounds; i++ {
		t, err := newTenant()
		if err != nil {
			return err
		}
		start := time.Now()
		for _, r := range mine {
			t.Access(l.p.keys[r.key], int64(r.size))
		}
		access = append(access, float64(time.Since(start).Nanoseconds())/float64(len(mine)))
		if t, err = newTenant(); err != nil {
			return err
		}
		start = time.Now()
		for _, r := range mine {
			evictions += len(t.Admit(l.p.keys[r.key], int64(r.size)))
		}
		admit = append(admit, float64(time.Since(start).Nanoseconds())/float64(len(mine)))
		admits += len(mine)
	}
	l.set("tenant.access_ns", median(access), "ns")
	l.set("tenant.admit_ns", median(admit), "ns")
	l.set("tenant.evictions_per_admit", float64(evictions)/float64(admits), "ratio")
	return nil
}

// algorithm times the paper's structures on the cliff_fill stream whatever
// the workload, because only there do all three access outcomes occur: the
// busiest class of the trace's first app, in a budget a quarter of its
// working set.
func (l *layers) algorithm() error {
	wl, err := workload.Open("memcachier", workload.Options{Requests: 4 * sampleOps, Seed: l.p.seed, Scale: cliffScale})
	if err != nil {
		return err
	}
	geom := slab.DefaultGeometry()
	type access struct {
		key   string
		class int
	}
	var stream []access
	var sizes []int64
	perClass := make(map[int]int)
	for {
		r, ok := wl.Source.Next()
		if !ok {
			break
		}
		sizes = append(sizes, r.Size)
		if r.App != wl.Apps[0].ID {
			continue
		}
		if c, ok := geom.ClassFor(r.Size); ok {
			stream = append(stream, access{r.Key, c})
			perClass[c]++
		}
	}
	var sink int
	l.set("slab.class_for_ns", nsPerOp(len(sizes), func() {
		for _, s := range sizes {
			c, _ := geom.ClassFor(s)
			sink += c
		}
	}), "ns")

	var specs []core.QueueSpec
	ids := make(map[int]string)
	var budget int64
	distinct := make(map[string]bool)
	for _, a := range stream {
		if !distinct[a.key] {
			distinct[a.key] = true
			budget += geom.ChunkSize(a.class)
		}
	}
	for c := 0; c < geom.NumClasses(); c++ {
		if perClass[c] > 0 {
			ids[c] = "class" + strconv.Itoa(c)
			specs = append(specs, core.QueueSpec{ID: ids[c], UnitCost: geom.ChunkSize(c)})
		}
	}
	budget /= 4
	// Outcomes are timed one call at a time (there is no telling them apart
	// beforehand), so the clock's own cost is measured and taken off.
	clock := nsPerOp(1<<16, func() {
		for i := 0; i < 1<<16; i++ {
			sink += int(time.Since(time.Now()))
		}
	})
	var hit, shadow, miss []float64
	var resizes, shadowHits, requests int64
	for round := 0; round < layerRounds; round++ {
		m, err := core.NewManager(core.DefaultConfig(), budget, specs)
		if err != nil {
			return err
		}
		var ns [3]float64
		var n [3]float64
		for _, a := range stream {
			start := time.Now()
			out, _ := m.Access(ids[a.class], a.key, geom.ChunkSize(a.class))
			d := float64(time.Since(start).Nanoseconds())
			k := 2
			switch {
			case out.Hit:
				k = 0
			case out.ShadowHit || out.CliffShadowHit:
				k = 1
			}
			ns[k] += d
			n[k]++
		}
		for k, dst := range []*[]float64{&hit, &shadow, &miss} {
			if n[k] > 0 {
				*dst = append(*dst, ns[k]/n[k]-clock)
			}
		}
		ts := m.TotalStats()
		resizes, shadowHits, requests = ts.Resizes, ts.ShadowHits+ts.CliffShadowHits, ts.Requests
	}
	l.set("core.access_ns.hit", median(hit), "ns")
	l.set("core.access_ns.shadow_hit", median(shadow), "ns")
	l.set("core.access_ns.miss", median(miss), "ns")
	l.set("core.resizes", float64(resizes), "count")
	l.set("core.shadow_hit_ratio", float64(shadowHits)/float64(max(requests, 1)), "ratio")

	l.set("cache.lru_access_ns", nsPerOp(len(stream), func() {
		lru := cache.NewPolicy(cache.PolicyLRU, budget)
		for _, a := range stream {
			lru.Access(a.key, geom.ChunkSize(a.class))
		}
	}), "ns")
	l.set("cache.shadow_access_ns", nsPerOp(len(stream), func() {
		sh := cache.NewShadow(budget)
		for _, a := range stream {
			if !sh.Hit(a.key) {
				sh.Push(a.key, geom.ChunkSize(a.class))
			}
		}
	}), "ns")
	_ = sink
	return nil
}

func (l *layers) lifecycle() error {
	// A live 50 % shrink of a loaded tenant, in milliseconds per MiB (one
	// page) given back. The shrink runs off the bookkeeper's drain loop and
	// stops short of half (classes keep their last page), so it is over when
	// the lease count has stopped falling.
	const tenantMiB = 32
	st := store.New(store.Config{DefaultMode: store.AllocCliffhanger, DefaultPolicy: cache.PolicyLRU})
	defer st.Close()
	if err := st.RegisterTenant("shrink", tenantMiB<<20); err != nil {
		return err
	}
	value := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < tenantMiB<<10; i++ { // 1 KiB items: a full tenant's worth
		if err := st.SetItemBytes("shrink", []byte("shrink-"+strconv.Itoa(i)), value, 0, 0); err != nil {
			return err
		}
	}
	st.Flush()
	before := st.PageStats().Leases["shrink"]
	start := time.Now()
	if err := st.ResizeTenant("shrink", tenantMiB<<19); err != nil {
		return err
	}
	leases, lastChange := before, start
	for now := start; now.Sub(lastChange) < 300*time.Millisecond && now.Sub(start) < 10*time.Second; now = time.Now() {
		time.Sleep(time.Millisecond)
		if n := st.PageStats().Leases["shrink"]; n != leases {
			leases, lastChange = n, time.Now()
		}
	}
	if leases >= before {
		return fmt.Errorf("lifecycle: a 50%% shrink of a %d-page tenant released no page", before)
	}
	l.set("migrate.shrink_ms_per_mib", lastChange.Sub(start).Seconds()*1e3/float64(before-leases), "ms")
	l.notes = append(l.notes, fmt.Sprintf("migrate: %d of %d pages released in %v", before-leases, before, lastChange.Sub(start).Round(time.Millisecond)))

	arb := store.New(store.Config{DefaultMode: store.AllocMemshare, DefaultPolicy: cache.PolicyLRU})
	defer arb.Close()
	for _, name := range []string{"a", "b"} {
		if err := arb.RegisterTenant(name, 16<<20); err != nil {
			return err
		}
	}
	l.set("arbiter.tick_us", micros(nsPerOp(200, func() {
		for i := 0; i < 200; i++ {
			arb.ArbiterTick()
		}
	})), "us")
	return nil
}
