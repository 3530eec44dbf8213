package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cliffhanger/internal/cache"
)

// queueState is everything about a queue an access can change: the key order
// of every segment of both partitions, the cliff-scaling state and the
// counters. RR is always zero: it was the round-robin splitter's counter, and
// the field stays because the fingerprint constants below hash this struct's
// printed form.
type queueState struct {
	Segments      [8][]string
	Caps          [4]int64
	Left, Right   int64
	Ratio         float64
	Split         bool
	PendingResize bool
	RR, MissCount uint64
	Stats         QueueStats
}

func stateOf(q *Queue) queueState {
	s := queueState{
		Caps:          [4]int64{q.left.physCapacity, q.right.physCapacity, q.left.segs[segHill].capacity, q.right.segs[segHill].capacity},
		Ratio:         q.Ratio(),
		Split:         q.Split(),
		PendingResize: q.pendingResize,
		MissCount:     q.missCount,
		Stats:         q.Stats(),
	}
	s.Left, s.Right = q.Pointers()
	for i := range q.parts {
		for j := range q.parts[i].segs {
			s.Segments[numSegs*i+j] = q.parts[i].segs[j].list.Keys()
		}
	}
	return s
}

// streamOp is one step of the seeded op stream the queue tests share.
type streamOp struct {
	kind  string // "get" (never admits), "access", "remove", "capacity", "grow" or "apply"
	key   string
	cost  int64
	bytes int64 // the new capacity, or the grant
}

func (o streamOp) String() string {
	switch o.kind {
	case "capacity", "grow":
		return fmt.Sprintf("%s %d", o.kind, o.bytes)
	case "apply":
		return o.kind
	}
	return fmt.Sprintf("%s %s cost %d", o.kind, o.key, o.cost)
}

// streamConfig is the queue the op stream is sized for: unit cost 1, windows
// of 16 and cliff scaling from 100 items up, so capacities of 40 to 400 switch
// it on and off.
func streamConfig(missOnly bool) Config {
	return Config{
		CreditBytes:        4,
		ShadowBytes:        200,
		CliffShadowItems:   16,
		TailWindowItems:    16,
		CliffMinItems:      100,
		ResizeOnMissOnly:   missOnly,
		EnableCliffScaling: true,
	}.withDefaults()
}

// forEachStreamConfig runs f once per resize-on-miss setting. (The names keep
// the "splitter=0" of the hash splitter, the only one left, because the
// fingerprint constants are keyed by them.)
func forEachStreamConfig(t *testing.T, f func(t *testing.T, name string, cfg Config, ops []streamOp)) {
	for _, missOnly := range []bool{true, false} {
		name := fmt.Sprintf("splitter=0/resizeOnMissOnly=%v", missOnly)
		t.Run(name, func(t *testing.T) {
			f(t, name, streamConfig(missOnly), opStream(7))
		})
	}
}

// opStream is a seeded random op stream over a Zipfian key space: GETs of
// resident, shadowed and unknown keys, admissions, removes and capacity
// changes (absolute, page-like grants, some applied at once) that switch
// cliff scaling on and off. Most entries cost 1; a few cost 2 to 4, so a
// re-entering key can change its cost, and one in fifty costs 20, which no
// 16-unit window and no small front segment can hold.
func opStream(seed int64) []streamOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 8, 599)
	ops := make([]streamOp, 20000)
	for i := range ops {
		o := streamOp{key: fmt.Sprintf("k%d", zipf.Uint64()), cost: 1}
		switch c := rng.Intn(100); {
		case c < 2:
			o.cost = 20
		case c < 10:
			o.cost = int64(2 + rng.Intn(3))
		}
		switch r := rng.Intn(100); {
		case r < 50:
			o.kind = "get"
		case r < 88:
			o.kind = "access"
		case r < 94:
			o.kind = "remove"
		case r < 98:
			o.kind, o.bytes = "capacity", int64(40+rng.Intn(360))
		case r < 99:
			o.kind, o.bytes = "grow", int64(8+rng.Intn(64))
		default:
			o.kind = "apply"
		}
		ops[i] = o
	}
	return ops
}

// apply runs one op on q the way a store would: a GET touches the queue only
// if the key is resident (Contains, then Access: the by-key form of
// AccessResident, which TestAccessResidentMatchesContainsThenAccess holds it
// to). It returns the outcome of an access (served is false for a GET that
// found nothing), the victims of a forced resize and the answer of a remove.
func (o streamOp) apply(q *Queue) (out AccessOutcome, served bool, victims []cache.Victim, removed bool) {
	switch o.kind {
	case "get":
		if served = q.Contains(o.key); served {
			out, _ = q.Access(o.key, o.cost)
		}
	case "access":
		out, _ = q.Access(o.key, o.cost)
		served = true
	case "remove":
		removed = q.Remove(o.key)
	case "capacity":
		q.SetCapacity(o.bytes)
	case "grow":
		q.Grow(o.bytes)
	case "apply":
		victims = q.ForceApplyResize()
	}
	return out, served, victims, removed
}

// TestAccessResidentMatchesContainsThenAccess drives two identical queues
// with the op stream, one by key and one by remembered node. The first serves
// its GETs with Contains followed by Access. The second serves them with
// AccessResident, handing it the node its last admission of the key returned,
// which goes stale the ways a store's does (forgotten, recycled for another
// key, aged into a shadow segment); one GET in ten gets no node instead, one
// the node of the same key in a sibling class queue driven by the same ops,
// and one another key's. Hit, victims and state must be the same after every
// op, and AccessResident must probe exactly when its node does not hold the
// key.
func TestAccessResidentMatchesContainsThenAccess(t *testing.T) {
	forEachStreamConfig(t, func(t *testing.T, _ string, cfg Config, ops []streamOp) {
		byKey := newQueue("by-key", cfg, 0, 150, 1)
		byNode := newQueue("by-node", cfg, 0, 150, 1)
		sibling := newQueue("sibling", cfg, 1, 150, 1)
		remembered := map[string]*cache.Node{}
		var admitted []string // remembered's keys
		rng := rand.New(rand.NewSource(11))
		nodes := map[string]int{} // GETs by what their node was
		var gets, residentGets, tailHits, shadowAdmits, toggles int
		for i, op := range ops {
			wasSplit := byKey.Split()
			switch op.kind {
			case "get":
				var want AccessOutcome
				wantHit := byKey.Contains(op.key)
				if wantHit {
					want, _ = byKey.Access(op.key, op.cost)
				}
				n := remembered[op.key]
				switch rng.Intn(10) {
				case 0:
					n = nil
				case 1:
					n = sibling.index[op.key]
				case 2:
					if len(admitted) > 0 {
						n = remembered[admitted[rng.Intn(len(admitted))]]
					}
				}
				what := nodeKind(byNode, n, op.key)
				nodes[what]++
				hit, evicted, probed := byNode.AccessResident(op.key, n, op.cost)
				if hit != wantHit || !reflect.DeepEqual(evicted, want.Evicted) || probed != (what != "live" && what != "shadowed") {
					t.Fatalf("op %d %s with a %s node: by node = %v, %v, probed %v; by key = %v, %v",
						i, op, what, hit, evicted, probed, wantHit, want.Evicted)
				}
				op.apply(sibling)
				gets++
				if wantHit {
					residentGets++
				}
				if want.TailWindowHit {
					tailHits++
				}
			case "access":
				want, _ := byKey.Access(op.key, op.cost)
				got, n := byNode.Access(op.key, op.cost)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d %s: by node = %+v; by key = %+v", i, op, got, want)
				}
				if _, ok := remembered[op.key]; !ok {
					admitted = append(admitted, op.key)
				}
				remembered[op.key] = n
				op.apply(sibling)
				if got.ShadowHit || got.CliffShadowHit {
					shadowAdmits++
				}
			default:
				want, _, wantVictims, wantRemoved := op.apply(byKey)
				got, _, victims, removed := op.apply(byNode)
				if removed != wantRemoved || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(victims, wantVictims) {
					t.Fatalf("op %d %s: by node = %v, %v; by key = %v, %v", i, op, victims, removed, wantVictims, wantRemoved)
				}
				op.apply(sibling)
			}
			ks, ns := stateOf(byKey), stateOf(byNode)
			if !reflect.DeepEqual(ks, ns) {
				t.Fatalf("op %d %s: states diverged:\nby key  %+v\nby node %+v", i, op, ks, ns)
			}
			if ks.Split != wasSplit {
				toggles++
			}
		}
		t.Logf("%d GETs (%d resident, %d tail-window hits; nodes %v), %d shadow admissions, %d split toggles",
			gets, residentGets, tailHits, nodes, shadowAdmits, toggles)
		if residentGets == 0 || residentGets == gets || tailHits == 0 || shadowAdmits == 0 || toggles == 0 {
			t.Fatalf("op stream too narrow to tell the two paths apart")
		}
		for _, what := range []string{"live", "shadowed", "forgotten", "recycled", "sibling's", "no"} {
			if nodes[what] == 0 {
				t.Fatalf("no GET was handed a %s node", what)
			}
		}
	})
}

// TestQueueWithAlgorithmOffIsLRU drives the queue the unmanaged store modes
// run (NewLRUQueue: neither algorithm) next to a cache.LRU of the same
// capacity, at the op stream's own mixed costs, over twelve seeds. Capacity
// changes apply at once on both, the way the store grants and sheds pages.
// Hits, victims, Remove's answers, Used and residency must agree after every
// op, and no victim may still be known to the queue: with the algorithm off a
// class queue is memcached's LRU, and a key it evicts leaves no shadow behind.
func TestQueueWithAlgorithmOffIsLRU(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			q, lru := NewLRUQueue("q", 0, 200, 1), cache.NewLRU(200)
			var hits, evictions, bounced int
			for i, op := range opStream(seed) {
				var got, want []cache.Victim
				var gotHit, wantHit bool
				switch op.kind {
				case "get":
					if q.Contains(op.key) {
						out, _ := q.Access(op.key, op.cost)
						gotHit, got = out.Hit, out.Evicted
					}
					wantHit = lru.Get(op.key)
				case "access":
					out, _ := q.Access(op.key, op.cost)
					gotHit, got = out.Hit, out.Evicted
					wantHit, want = lru.Access(op.key, op.cost)
				case "remove":
					gotHit, wantHit = q.Remove(op.key), lru.Remove(op.key)
				case "capacity":
					q.SetCapacity(op.bytes)
					got, want = q.ForceApplyResize(), lru.Resize(op.bytes)
				case "grow":
					q.Grow(op.bytes)
					got, want = q.ForceApplyResize(), lru.Resize(lru.Capacity()+op.bytes)
				case "apply":
					got = q.ForceApplyResize()
				}
				if gotHit != wantHit || !slices.Equal(got, want) {
					t.Fatalf("op %d %s: queue %v, %v; LRU %v, %v", i, op, gotHit, got, wantHit, want)
				}
				if q.Used() != lru.Used() || q.Contains(op.key) != lru.Contains(op.key) {
					t.Fatalf("op %d %s: queue used %d, holds %s %v; LRU used %d, holds it %v",
						i, op, q.Used(), op.key, q.Contains(op.key), lru.Used(), lru.Contains(op.key))
				}
				for _, v := range got {
					if q.Remove(v.Key) {
						t.Fatalf("op %d %s: the queue still knows its victim %s", i, op, v.Key)
					}
					if v.Key == op.key {
						bounced++
					}
				}
				if wantHit && op.kind != "remove" {
					hits++
				}
				evictions += len(want)
			}
			if hits == 0 || evictions == 0 || bounced == 0 {
				t.Fatalf("op stream too narrow: %d hits, %d evictions, %d entries too big for the queue", hits, evictions, bounced)
			}
		})
	}
}

// nodeKind says what n is to q for a GET of key: "no" node, "sibling's" (not
// q's), "forgotten" (on q's free list), "recycled" (holding another key), or
// key's own node, "live" in a physical segment or "shadowed" in a shadow one.
func nodeKind(q *Queue, n *cache.Node, key string) string {
	switch {
	case n == nil:
		return "no"
	case !q.owns(n):
		return "sibling's"
	case n.Key == "":
		return "forgotten"
	case n.Key != key:
		return "recycled"
	}
	if _, seg := q.segmentOf(n); seg == segFront || seg == segTail {
		return "live"
	}
	return "shadowed"
}

// TestQueueOpStreamFingerprint pins the queue op for op: a hash over every
// access outcome, every victim list in order, every HasRoom and Remove answer
// and the final state of the op stream. The constants were recorded from the
// queue of eight separate LRUs that this one replaced (commit 09ed3e6), which
// it therefore matches bit for bit and not only through the simulator's
// goldens.
func TestQueueOpStreamFingerprint(t *testing.T) {
	want := map[string]uint64{
		"splitter=0/resizeOnMissOnly=true":  0x4bc43ebc40b722ff,
		"splitter=0/resizeOnMissOnly=false": 0xac9d72374655e823,
	}
	forEachStreamConfig(t, func(t *testing.T, name string, cfg Config, ops []streamOp) {
		q := newQueue("q", cfg, 0, 150, 1)
		h := fnv.New64a()
		var passedThrough, recosted bool
		for i, op := range ops {
			room := q.HasRoom(op.key, op.cost)
			out, served, victims, removed := op.apply(q)
			fmt.Fprintf(h, "%d %v %+v %v %+v %v\n", i, room, out, served, victims, removed)
			for _, v := range out.Evicted {
				if v.Key == op.key {
					passedThrough = true
				}
				if v.Cost != 1 && v.Cost != 20 {
					recosted = true
				}
			}
		}
		fmt.Fprintf(h, "%+v", stateOf(q))
		if !passedThrough || !recosted {
			t.Fatalf("op stream too narrow: an entry passed straight through to eviction: %v, an evicted entry had a cost other than 1 and 20: %v",
				passedThrough, recosted)
		}
		if got := h.Sum64(); got != want[name] {
			t.Errorf("fingerprint %#x, want %#x", got, want[name])
		}
	})
}

// TestQueueIndexAgreesWithSegments checks, after every op of the stream, that
// the one index and the eight segments describe the same entries: every node
// linked in a segment is the index's node for its key and is tagged with that
// segment, the index holds nothing else (so no key is in two segments), every
// segment's used is the sum of its nodes' costs, and no segment is over its
// capacity once the op has drained it.
func TestQueueIndexAgreesWithSegments(t *testing.T) {
	forEachStreamConfig(t, func(t *testing.T, _ string, cfg Config, ops []streamOp) {
		q := newQueue("q", cfg, 0, 150, 1)
		for i, op := range ops {
			op.apply(q)
			linked := 0
			for pi := range q.parts {
				p := &q.parts[pi]
				for si := range p.segs {
					seg := &p.segs[si]
					var used int64
					for n := seg.list.Front(); n != nil; n = seg.list.Next(n) {
						linked++
						used += n.Cost
						if q.index[n.Key] != n {
							t.Fatalf("op %d %s: %q is linked in segment %d/%d but the index has another node for it, or none", i, op, n.Key, pi, si)
						}
						if gp, gs := q.segmentOf(n); gp != p || gs != si {
							t.Fatalf("op %d %s: %q is linked in segment %d/%d but tagged %d", i, op, n.Key, pi, si, n.Aux)
						}
					}
					if used != seg.used || seg.used > seg.capacity {
						t.Fatalf("op %d %s: segment %d/%d holds cost %d, says %d, capacity %d", i, op, pi, si, used, seg.used, seg.capacity)
					}
				}
			}
			if linked != len(q.index) {
				t.Fatalf("op %d %s: %d nodes linked in segments, %d keys in the index", i, op, linked, len(q.index))
			}
		}
	})
}

// TestAllocGateQueueAccess pins what an access allocates on a full, split
// queue at steady state: nothing for a front hit, a tail-window hit or a
// resident re-access, and for an admission that evicts only the victims slice
// it returns (the entry that falls off the hill shadow lends its node to the
// next admission). `make alloccheck` runs it.
func TestAllocGateQueueAccess(t *testing.T) {
	q := newQueue("q", itemCfg(), 0, 4000, 1)
	key := make([]string, 20000)
	for i := range key {
		key[i] = fmt.Sprintf("k%d", i)
	}
	next := 0
	admit := func() {
		if out, _ := q.Access(key[next], 1); out.Hit || len(out.Evicted) == 0 {
			t.Fatalf("access to the new key %s: %+v, want an admission that evicts", key[next], out)
		}
		next++
	}
	for i := 0; i < 10000; i++ { // fill both chains to the end of their hill shadows
		q.Access(key[next], 1)
		next++
	}
	if !q.Split() || q.Used() != q.Capacity() {
		t.Fatalf("split=%v used=%d of %d: the gate wants a full, split queue", q.Split(), q.Used(), q.Capacity())
	}
	gate := func(what string, max float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(1000, f); got > max {
			t.Errorf("%s allocates %.2f objects/op, want at most %v", what, got, max)
		}
	}
	gate("an evicting admission", 1, admit)
	hot := q.left.segs[segFront].list.Front().Key
	gate("a front hit", 0, func() {
		if out, _ := q.Access(hot, 1); !out.Hit || out.TailWindowHit {
			t.Fatalf("%+v, want a front hit", out)
		}
	})
	gate("a resident re-access", 0, func() {
		if hit, _, _ := q.AccessResident(hot, nil, 1); !hit {
			t.Fatal("the hot key is not resident")
		}
	})
	node := q.index[hot]
	gate("a resident re-access by node", 0, func() {
		if hit, _, probed := q.AccessResident(hot, node, 1); !hit || probed {
			t.Fatalf("hit=%v probed=%v, want a hit through the node", hit, probed)
		}
	})
	gate("a tail-window hit", 0, func() {
		cold := q.right.coldest()
		if out, _ := q.Access(cold.Key, 1); !out.TailWindowHit || len(out.Evicted) != 0 {
			t.Fatalf("%+v, want a tail-window hit that evicts nothing", out)
		}
	})
}
