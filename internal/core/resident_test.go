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

// keyed drives a queue by key alone, the way a store does: its directory
// (nodes) remembers the node the queue last placed each key under and hands
// it back, and every key goes in with its cache.Hash. It also records each
// key's name under its hash (keyNames), so that stateOf can print a shadow
// entry, which holds only its hash, by name.
type keyed struct {
	*Queue
	nodes map[string]*cache.Node
}

func keyedQueue(q *Queue) keyed { return keyed{q, map[string]*cache.Node{}} }

// keyNames is every key a keyed queue has been driven with, by hash.
var keyNames = map[uint64]string{}

func (k keyed) Access(key string, cost int64) (AccessOutcome, *cache.Node) {
	h := cache.Hash(key)
	keyNames[h] = key
	out, n := k.Queue.Access(key, h, k.nodes[key], cost)
	k.nodes[key] = n
	return out, n
}

func (k keyed) Contains(key string) bool { return k.Holds(key, k.nodes[key]) }

// Remove removes key, resident through its node, or else its shadow entry:
// the op stream removes keys the store would hold no record of, and the
// queue the fingerprint was recorded from forgot those too.
func (k keyed) Remove(key string) bool {
	if k.Queue.Remove(key, k.nodes[key]) {
		return true
	}
	n := k.index[cache.Hash(key)]
	if n != nil {
		k.unlink(n)
		k.forget(n, true)
	}
	return n != nil
}

func (k keyed) HasRoom(key string, cost int64) bool { return k.Queue.HasRoom(cache.Hash(key), cost) }

func (k keyed) routesLeft(key string) bool { return k.Queue.routesLeft(cache.Hash(key)) }

// holds reports whether key is resident in queue i, through the node the
// manager's Access directory remembers for it.
func (m *Manager) holds(i int, key string) bool {
	return m.QueueAt(i).Holds(key, m.placed[i][key])
}

// nameOf is n's key: its own while it is resident, and by its hash while it
// is a shadow entry.
func nameOf(n *cache.Node) string {
	if n.Key != "" {
		return n.Key
	}
	return keyNames[n.Hash]
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
			l := q.parts[i].segs[j].list
			keys := []string{}
			for n := l.Front(); n != nil; n = l.Next(n) {
				keys = append(keys, nameOf(n))
			}
			s.Segments[numSegs*i+j] = keys
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
// if the key is resident (Contains, then Access, through the directory's
// node: the two steps AccessResident is, which
// TestAccessResidentMatchesContainsThenAccess holds it to). It returns the
// outcome of an access (served is false for a GET that found nothing), the
// victims of a forced resize and the answer of a remove.
func (o streamOp) apply(q keyed) (out AccessOutcome, served bool, victims []cache.Victim, removed bool) {
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
// with the op stream, each through its own directory. The first serves its
// GETs with Contains followed by Access, through the node its directory
// remembers. The second serves them with AccessResident, handing it that node,
// which goes stale the ways a store's does (forgotten, recycled for another
// key, aged into a shadow segment); one GET in ten gets no node instead, one
// the node of the same key in a sibling class queue driven by the same ops,
// and one another key's, and the first queue is handed the same. Hit, victims
// and state must be the same after every op, and AccessResident must hit
// exactly when its node holds the key in a physical segment: it never looks
// the key up anywhere else.
func TestAccessResidentMatchesContainsThenAccess(t *testing.T) {
	forEachStreamConfig(t, func(t *testing.T, _ string, cfg Config, ops []streamOp) {
		byDir := keyedQueue(newQueue("by-directory", cfg, 0, 150, 1))
		byNode := keyedQueue(newQueue("by-node", cfg, 0, 150, 1))
		sibling := keyedQueue(newQueue("sibling", cfg, 1, 150, 1))
		var admitted []string // keys the directories hold
		rng := rand.New(rand.NewSource(11))
		nodes := map[string]int{} // GETs by what their node was
		var gets, residentGets, tailHits, shadowAdmits, toggles int
		for i, op := range ops {
			wasSplit := byDir.Split()
			switch op.kind {
			case "get":
				other := op.key
				nd, nn := byDir.nodes[op.key], byNode.nodes[op.key]
				switch rng.Intn(10) {
				case 0:
					nd, nn = nil, nil
				case 1:
					nd, nn = sibling.nodes[op.key], sibling.nodes[op.key]
				case 2:
					if len(admitted) > 0 {
						other = admitted[rng.Intn(len(admitted))]
						nd, nn = byDir.nodes[other], byNode.nodes[other]
					}
				}
				var want AccessOutcome
				wantHit := byDir.Holds(op.key, nd)
				if wantHit {
					want, _ = byDir.Queue.Access(op.key, cache.Hash(op.key), nd, op.cost)
				}
				what := nodeKind(byNode.Queue, nn, op.key)
				nodes[what]++
				hit, evicted := byNode.AccessResident(op.key, nn, op.cost)
				if hit != wantHit || !reflect.DeepEqual(evicted, want.Evicted) || hit != (what == "live") {
					t.Fatalf("op %d %s with a %s node: by node = %v, %v; by directory = %v, %v",
						i, op, what, hit, evicted, wantHit, want.Evicted)
				}
				op.apply(sibling)
				gets++
				if wantHit && other == op.key {
					residentGets++
				}
				if want.TailWindowHit {
					tailHits++
				}
			case "access":
				if _, known := byNode.nodes[op.key]; !known {
					admitted = append(admitted, op.key)
				}
				want, _ := byDir.Access(op.key, op.cost)
				got, _ := byNode.Access(op.key, op.cost)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d %s: by node = %+v; by directory = %+v", i, op, got, want)
				}
				op.apply(sibling)
				if got.ShadowHit || got.CliffShadowHit {
					shadowAdmits++
				}
			default:
				want, _, wantVictims, wantRemoved := op.apply(byDir)
				got, _, victims, removed := op.apply(byNode)
				if removed != wantRemoved || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(victims, wantVictims) {
					t.Fatalf("op %d %s: by node = %v, %v; by directory = %v, %v", i, op, victims, removed, wantVictims, wantRemoved)
				}
				op.apply(sibling)
			}
			ds, ns := stateOf(byDir.Queue), stateOf(byNode.Queue)
			if !reflect.DeepEqual(ds, ns) {
				t.Fatalf("op %d %s: states diverged:\nby directory %+v\nby node      %+v", i, op, ds, ns)
			}
			if ds.Split != wasSplit {
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
// op, and the queue's shadow index must stay empty: with the algorithm off a
// class queue is memcached's LRU, and a key it evicts leaves no shadow behind.
func TestQueueWithAlgorithmOffIsLRU(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			q, lru := keyedQueue(NewLRUQueue("q", 0, 200, 1)), cache.NewLRU(200)
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
				got = withoutHashes(got)
				if gotHit != wantHit || !slices.Equal(got, want) {
					t.Fatalf("op %d %s: queue %v, %v; LRU %v, %v", i, op, gotHit, got, wantHit, want)
				}
				if q.Used() != lru.Used() || q.Contains(op.key) != lru.Contains(op.key) {
					t.Fatalf("op %d %s: queue used %d, holds %s %v; LRU used %d, holds it %v",
						i, op, q.Used(), op.key, q.Contains(op.key), lru.Used(), lru.Contains(op.key))
				}
				if len(q.index) != 0 {
					t.Fatalf("op %d %s: the queue shadows %d evicted entries", i, op, len(q.index))
				}
				for _, v := range got {
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

// nodeKind says what n is to q for a GET of key: "no" node, "forgotten" (on
// a free list), "sibling's" (another queue's), "shadowed" (in a shadow
// segment, keyless), "recycled" (holding another key), or key's own node,
// "live" in a physical segment.
func nodeKind(q *Queue, n *cache.Node, key string) string {
	switch {
	case n == nil:
		return "no"
	case n.Aux == -1:
		return "forgotten"
	case !q.owns(n):
		return "sibling's"
	}
	if _, seg := q.segmentOf(n); seg >= segCliff {
		return "shadowed"
	}
	if n.Key != key {
		return "recycled"
	}
	return "live"
}

// withoutHashes returns vs with each victim's Hash cleared, as a cache.LRU
// leaves it.
func withoutHashes(vs []cache.Victim) []cache.Victim {
	for i := range vs {
		vs[i].Hash = 0
	}
	return vs
}

// printedVictim and printedOutcome print a victim and an access outcome with
// %+v the way they printed before a victim carried its key's hash, which is
// how TestQueueOpStreamFingerprint's constants were recorded.
type printedVictim struct {
	Key  string
	Cost int64
}

func printedVictims(vs []cache.Victim) []printedVictim {
	var out []printedVictim
	for _, v := range vs {
		out = append(out, printedVictim{v.Key, v.Cost})
	}
	return out
}

func printedOutcome(o AccessOutcome) any {
	return struct {
		Hit, ShadowHit, CliffShadowHit, TailWindowHit bool
		Evicted                                       []printedVictim
	}{o.Hit, o.ShadowHit, o.CliffShadowHit, o.TailWindowHit, printedVictims(o.Evicted)}
}

// TestQueueOpStreamFingerprint pins the queue op for op: a hash over every
// access outcome, every victim list in order, every HasRoom and Remove answer
// and the final state of the op stream. The constants were recorded from the
// queue of eight separate LRUs that this one replaced (commit 09ed3e6), which
// it therefore matches bit for bit and not only through the simulator's
// goldens. The queue is driven by hash and node (keyed), its shadow entries
// are printed by the name of the key they were (nameOf) and its victims
// without their hashes (printedOutcome), so the printed form is the one the
// constants were recorded from.
func TestQueueOpStreamFingerprint(t *testing.T) {
	want := map[string]uint64{
		"splitter=0/resizeOnMissOnly=true":  0x4bc43ebc40b722ff,
		"splitter=0/resizeOnMissOnly=false": 0xac9d72374655e823,
	}
	forEachStreamConfig(t, func(t *testing.T, name string, cfg Config, ops []streamOp) {
		q := keyedQueue(newQueue("q", cfg, 0, 150, 1))
		h := fnv.New64a()
		var passedThrough, recosted bool
		for i, op := range ops {
			room := q.HasRoom(op.key, op.cost)
			out, served, victims, removed := op.apply(q)
			fmt.Fprintf(h, "%d %v %+v %v %+v %v\n", i, room, printedOutcome(out), served, printedVictims(victims), removed)
			for _, v := range out.Evicted {
				if v.Key == op.key {
					passedThrough = true
				}
				if v.Cost != 1 && v.Cost != 20 {
					recosted = true
				}
			}
		}
		fmt.Fprintf(h, "%+v", stateOf(q.Queue))
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
// the index holds exactly the shadow segments' nodes: every node linked in a
// shadow segment is keyless and the index's node for its hash, every node
// linked in a physical segment holds a key no other resident holds, the index
// holds nothing else, every node is tagged with the segment it is linked in,
// every segment's used is the sum of its nodes' costs, and no segment is over
// its capacity once the op has drained it.
func TestQueueIndexAgreesWithSegments(t *testing.T) {
	forEachStreamConfig(t, func(t *testing.T, _ string, cfg Config, ops []streamOp) {
		q := keyedQueue(newQueue("q", cfg, 0, 150, 1))
		for i, op := range ops {
			op.apply(q)
			shadows, resident := 0, map[string]bool{}
			for pi := range q.parts {
				p := &q.parts[pi]
				for si := range p.segs {
					seg := &p.segs[si]
					var used int64
					for n := seg.list.Front(); n != nil; n = seg.list.Next(n) {
						used += int64(n.Cost)
						switch {
						case si < segCliff && (n.Key == "" || resident[n.Key]):
							t.Fatalf("op %d %s: a resident node in segment %d/%d holds %q, which is empty or another resident's", i, op, pi, si, n.Key)
						case si < segCliff:
							resident[n.Key] = true
						case n.Key != "" || q.index[n.Hash] != n:
							t.Fatalf("op %d %s: the shadow node of %q in segment %d/%d holds key %q, or the index has another node for its hash, or none",
								i, op, nameOf(n), pi, si, n.Key)
						default:
							shadows++
						}
						if gp, gs := q.segmentOf(n); gp != p || gs != si {
							t.Fatalf("op %d %s: %q is linked in segment %d/%d but tagged %d", i, op, nameOf(n), pi, si, n.Aux)
						}
					}
					if used != seg.used || seg.used > seg.capacity {
						t.Fatalf("op %d %s: segment %d/%d holds cost %d, says %d, capacity %d", i, op, pi, si, used, seg.used, seg.capacity)
					}
				}
			}
			if shadows != len(q.index) {
				t.Fatalf("op %d %s: %d nodes linked in shadow segments, %d in the index", i, op, shadows, len(q.index))
			}
		}
	})
}

// TestAllocGateQueueAccess pins what an access allocates on a full, split
// queue at steady state: nothing for a front hit, a tail-window hit or a
// resident re-access, each through the entry's node, and for an admission
// that evicts only the victims slice it returns (the entry that falls off the
// hill shadow lends its node to the next admission). `make alloccheck` runs
// it.
func TestAllocGateQueueAccess(t *testing.T) {
	q := newQueue("q", itemCfg(), 0, 4000, 1)
	key := make([]string, 20000)
	for i := range key {
		key[i] = fmt.Sprintf("k%d", i)
	}
	next := 0
	admit := func() {
		if out, _ := q.Access(key[next], cache.Hash(key[next]), nil, 1); out.Hit || len(out.Evicted) == 0 {
			t.Fatalf("access to the new key %s: %+v, want an admission that evicts", key[next], out)
		}
		next++
	}
	for i := 0; i < 10000; i++ { // fill both chains to the end of their hill shadows
		q.Access(key[next], cache.Hash(key[next]), nil, 1)
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
	hot := q.left.segs[segFront].list.Front()
	gate("a front hit", 0, func() {
		if out, _ := q.Access(hot.Key, hot.Hash, hot, 1); !out.Hit || out.TailWindowHit {
			t.Fatalf("%+v, want a front hit", out)
		}
	})
	gate("a resident re-access by node", 0, func() {
		if hit, _ := q.AccessResident(hot.Key, hot, 1); !hit {
			t.Fatal("the hot key is not resident through its node")
		}
	})
	gate("a tail-window hit", 0, func() {
		cold := q.right.coldest()
		if out, _ := q.Access(cold.Key, cold.Hash, cold, 1); !out.TailWindowHit || len(out.Evicted) != 0 {
			t.Fatalf("%+v, want a tail-window hit that evicts nothing", out)
		}
	})
}
