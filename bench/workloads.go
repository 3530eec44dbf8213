package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// nConns is the number of connections and sender goroutines the load
// generator uses: the sizing rule is at most nproc of the benchmark box.
const nConns = 2

// request is one entry of a workload's fixed request sequence, compact
// enough that the two million requests of the deepest workload stay in a few
// tens of megabytes.
type request struct {
	// key indexes plan.keys.
	key uint32
	// size is the charged size, len(key)+len(value), of the value a SET or
	// a read-through fill of this key stores.
	size uint32
	app  uint16
	op   trace.Op
}

// call is one client call: a run of up to depth GETs of one app pipelined in
// a single round trip, or one SET or DELETE. lo and hi index the owning
// connection's request slice.
type call struct{ lo, hi uint32 }

// phase is one stretch of the sequence after dealing: each connection's
// requests in sequence order, and the client calls they form.
type phase struct {
	reqs  [nConns][]request
	calls [nConns][]call
}

func (p *phase) ops() int {
	n := 0
	for c := range p.reqs {
		n += len(p.reqs[c])
	}
	return n
}

// spec is a workload's frozen definition. The rates were chosen once on the
// seed commit (see README.md) and are part of the benchmark: changing one
// changes every number measured after it.
type spec struct {
	name string
	// depth is the largest number of GETs one client call pipelines.
	depth int
	// pacedRate is R, the open-loop offered rate in commands per second.
	pacedRate float64
	// satRate sizes the closed-loop phase only: the phase runs
	// satRate * seconds commands, whatever the system under test sustains.
	satRate float64
	// settle asks for the zero-miss check before measuring.
	settle bool
	// refDepth is the depth the reference runs at beside this workload.
	refDepth int
	gen      func(p *plan, rng *rand.Rand, n counts) error
}

// counts is how many requests each phase of a run holds. They derive from
// the run length and the frozen rates alone, so phase boundaries are request
// indices, not wall-clock instants.
type counts struct{ warm, settle, paced, sat int }

// Shares of --seconds: the open-loop phase and the closed-loop phase's own
// traffic (which sizes its command count); the reference slices in between
// take the rest.
const (
	pacedShare = 0.4
	satShare   = 0.25
)

func (s *spec) counts(seconds float64) counts {
	n := counts{
		paced: int(s.pacedRate * seconds * pacedShare),
		sat:   int(s.satRate * seconds * satShare),
	}
	if s.settle {
		n.settle = settleWindow * settlePasses
	}
	return n
}

// settleWindow is the number of consecutive GETs that must all hit before a
// hit_* workload starts measuring; settlePasses is how many such windows the
// sequence holds, after which the run gives up. Each pass is a fresh stretch
// of the sequence: replaying one window makes LRU evict in a cycle that
// never ends.
const (
	settleWindow = 50000
	settlePasses = 40
)

var specs = []*spec{
	{name: "hit_d1", depth: 1, refDepth: 1, pacedRate: 13000, satRate: 45000, settle: true, gen: genHit},
	{name: "hit_d64", depth: 64, refDepth: 64, pacedRate: 200000, satRate: 700000, settle: true, gen: genHit},
	{name: "cliff_fill", depth: 8, refDepth: 1, pacedRate: 6000, satRate: 26000, gen: genCliffFill},
	{name: "write_churn", depth: 8, refDepth: 1, pacedRate: 13000, satRate: 47000, gen: genWriteChurn},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// plan is everything a run sends, generated from the seed before the daemon
// starts; the daemon sees only these requests.
type plan struct {
	spec *spec
	seed int64
	// tenants is the daemon's -tenants value; multiTenant says whether
	// requests carry an app that maps to a tenant of its own.
	tenants     string
	multiTenant bool
	apps        []trace.AppSpec

	keys   []string
	keyIdx map[string]uint32
	// owner is the connection each key is dealt to, patOff the offset of
	// its value pattern.
	owner  []uint8
	patOff []uint8
	// pattern backs every stored value: key k's value of n bytes is
	// pattern[patOff[k] : patOff[k]+n].
	pattern []byte

	// seq is the whole sequence; the phases are slices of it, dealt.
	seq              []request
	warm, paced, sat phase
	settle           []phase
	// n is how seq divides into phases; genNs the time spent producing it
	// (Source.Next and interning).
	n     counts
	genNs int64
}

// intern returns the index of key, adding it on first sight.
func (p *plan) intern(key string) uint32 {
	if i, ok := p.keyIdx[key]; ok {
		return i
	}
	i := uint32(len(p.keys))
	p.keys = append(p.keys, key)
	p.keyIdx[key] = i
	return i
}

// value returns the bytes stored under key k at charged size size.
func (p *plan) value(k, size uint32) []byte {
	n := int(size) - len(p.keys[k])
	if n < 0 {
		n = 0
	}
	off := int(p.patOff[k])
	return p.pattern[off : off+n]
}

func keyHash(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

// newPlan generates the workload's sequence for seed and deals it to the
// connections.
func newPlan(s *spec, seed int64, seconds float64) (*plan, error) {
	p := &plan{spec: s, seed: seed, keyIdx: make(map[string]uint32)}
	n := s.counts(seconds)
	start := time.Now()
	if err := s.gen(p, rand.New(rand.NewSource(seed)), n); err != nil {
		return nil, err
	}
	p.genNs = time.Since(start).Nanoseconds()
	n.warm = len(p.seq) - n.settle - n.paced - n.sat
	if n.warm < 0 {
		return nil, fmt.Errorf("%s: generated %d requests, want at least %d", s.name, len(p.seq), n.settle+n.paced+n.sat)
	}
	p.n = n

	var maxSize uint32
	for _, r := range p.seq {
		if r.size > maxSize {
			maxSize = r.size
		}
	}
	p.pattern = make([]byte, int(maxSize)+26)
	for i := range p.pattern {
		p.pattern[i] = byte('a' + i%26)
	}
	p.patOff = make([]uint8, len(p.keys))
	for k, key := range p.keys {
		p.patOff[k] = uint8(keyHash(key) >> 8 % 26)
	}
	p.dealKeys()

	at := 0
	cut := func(n int) []request { at += n; return p.seq[at-n : at] }
	p.warm = p.deal(cut(n.warm), setupDepth)
	for at := 0; at < n.settle; at += settleWindow {
		p.settle = append(p.settle, p.deal(cut(settleWindow), setupDepth))
	}
	p.paced = p.deal(cut(n.paced), s.depth)
	p.sat = p.deal(cut(n.sat), s.depth)
	for c := range p.paced.calls {
		if len(p.paced.calls[c]) < pacedSegments {
			return nil, fmt.Errorf("%s: %g s leaves connection %d only %d paced calls", s.name, seconds, c, len(p.paced.calls[c]))
		}
	}
	return p, nil
}

// dealKeys fixes which connection owns each key, so that everything that
// touches a key travels on one connection and per-key order is the sequence
// order. Single-tenant workloads deal by key hash; the multi-tenant one
// deals whole apps, largest request share first, to the connection with the
// smaller share so far.
func (p *plan) dealKeys() {
	p.owner = make([]uint8, len(p.keys))
	if !p.multiTenant {
		for k, key := range p.keys {
			p.owner[k] = uint8(keyHash(key) % nConns)
		}
		return
	}
	apps := append([]trace.AppSpec(nil), p.apps...)
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].RequestShare > apps[j].RequestShare })
	appOwner := make(map[int]uint8, len(apps))
	var load [nConns]float64
	for _, a := range apps {
		c := 0
		for i := 1; i < nConns; i++ {
			if load[i] < load[c] {
				c = i
			}
		}
		appOwner[a.ID] = uint8(c)
		load[c] += a.RequestShare
	}
	for _, r := range p.seq {
		p.owner[r.key] = appOwner[int(r.app)]
	}
}

// setupDepth is the pipeline depth of the warm and settle phases, whatever
// the workload's own depth: set-up is not what a workload measures, and at
// depth 1 settling would take longer than the measurement.
const setupDepth = 64

// deal splits reqs between the connections and groups each connection's
// share into client calls of at most depth GETs.
func (p *plan) deal(reqs []request, depth int) phase {
	var ph phase
	for _, r := range reqs {
		c := p.owner[r.key]
		ph.reqs[c] = append(ph.reqs[c], r)
	}
	for c := range ph.reqs {
		rs := ph.reqs[c]
		for lo := 0; lo < len(rs); {
			hi := lo + 1
			if rs[lo].op == trace.OpGet {
				for hi < len(rs) && hi-lo < depth && rs[hi].op == trace.OpGet && rs[hi].app == rs[lo].app {
					hi++
				}
			}
			ph.calls[c] = append(ph.calls[c], call{uint32(lo), uint32(hi)})
			lo = hi
		}
	}
	return ph
}

// appendSource drains src into the sequence.
func (p *plan) appendSource(src trace.Source) {
	for {
		r, ok := src.Next()
		if !ok {
			return
		}
		p.seq = append(p.seq, request{key: p.intern(r.Key), size: uint32(r.Size), app: uint16(r.App), op: r.Op})
	}
}

// hitKeys and hitValue size the hit_* workloads: a working set that fits its
// tenant many times over, so that after one pass every GET is a pure
// directory probe.
const (
	hitKeys  = 8192
	hitValue = 256
)

// genHit is the sequence of hit_d1 and hit_d64: every key stored once, then
// zipf(0.99) GETs from the repository's own zipf source.
func genHit(p *plan, rng *rand.Rand, n counts) error {
	p.tenants = "default:64"
	for i := 0; i < hitKeys; i++ {
		p.seq = append(p.seq, request{key: p.intern(workload.ZipfKey(i)), size: hitValue, app: 1, op: trace.OpSet})
	}
	wl, err := workload.Open("zipf", workload.Options{
		Requests: int64(n.settle + n.paced + n.sat), Seed: rng.Int63(),
		Keys: hitKeys, ZipfS: 0.99, ValueSize: hitValue, GetFraction: 1,
	})
	if err != nil {
		return err
	}
	p.appendSource(wl.Source)
	return nil
}

// cliffScale and cliffWarm size cliff_fill: the synthetic Memcachier trace
// with every key space and reservation at a quarter, and a short closed-loop
// prefix so the tenants are not empty when measuring starts.
const (
	cliffScale = 0.25
	cliffWarm  = 20000
)

func genCliffFill(p *plan, rng *rand.Rand, n counts) error {
	wl, err := workload.Open("memcachier", workload.Options{
		Requests: int64(cliffWarm + n.paced + n.sat), Seed: rng.Int63(), Scale: cliffScale,
	})
	if err != nil {
		return err
	}
	p.apps = wl.Apps
	p.multiTenant = true
	p.tenants = workload.TenantSpec(wl.Apps)
	p.appendSource(wl.Source)
	return nil
}

// churnSizes are the charged sizes write_churn moves keys between: one per
// slab class of 128 B, 512 B, 1 KiB and 4 KiB chunks, the shape of
// BenchmarkStoreWriteHeavy.
var churnSizes = [4]uint32{100, 400, 900, 3800}

const churnKeys = 16384

func genWriteChurn(p *plan, rng *rand.Rand, n counts) error {
	p.tenants = "default:256"
	// last is the size each key was most recently stored at, which is the
	// size a read-through fill of it restores.
	last := make([]uint32, churnKeys)
	for i := 0; i < churnKeys; i++ {
		last[i] = churnSizes[i%len(churnSizes)]
		p.seq = append(p.seq, request{key: p.intern("wc-" + strconv.Itoa(i)), size: last[i], app: 1, op: trace.OpSet})
	}
	z := workload.NewZipf(rng, 0.99, churnKeys)
	for i := 0; i < n.paced+n.sat; i++ {
		k := uint32(z.Uint64())
		r := request{key: k, app: 1}
		switch x := rng.Intn(10); {
		case x < 5:
			r.op = trace.OpSet
			last[k] = churnSizes[rng.Intn(len(churnSizes))]
		case x < 6:
			r.op = trace.OpDelete
		default:
			r.op = trace.OpGet
		}
		r.size = last[k]
		p.seq = append(p.seq, r)
	}
	return nil
}
