package core

import (
	"fmt"
	"slices"
	"testing"

	"cliffhanger/internal/cache"
)

// shadowedQueue is a queue of four unit entries with no tail window, a cliff
// shadow of two and a hill shadow of four: the fifth admission evicts into
// the shadow.
func shadowedQueue() *Queue {
	cfg := Config{CreditBytes: 1, ShadowBytes: 4, CliffShadowItems: 2, TailWindowItems: 2, CliffMinItems: 1000,
		EnableHillClimbing: true}.withDefaults()
	return newQueue("q", cfg, 0, 4, 1)
}

// fill admits n fresh keys, pushing older entries down the chain.
func fill(q *Queue, prefix string, n int) {
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		q.Access(k, cache.Hash(k), nil, 1)
	}
}

// TestShadowNodeHoldsNoKey: an entry holds its key while it is resident and
// drops it when it ages into a shadow segment, where only its hash, in the
// index, says whose it was; a shadow hit gives the key back.
func TestShadowNodeHoldsNoKey(t *testing.T) {
	q := shadowedQueue()
	h := cache.Hash("old")
	_, n := q.Access("old", h, nil, 1)
	if n.Key != "old" || !q.Holds("old", n) {
		t.Fatalf("a resident node holds %q", n.Key)
	}
	fill(q, "new", 4)
	if _, seg := q.segmentOf(n); seg != segCliff || n.Key != "" || n.Hash != h || q.index[h] != n {
		t.Fatalf("after eviction: segment %d, key %q, hash %#x, indexed %v; want a keyless cliff-shadow entry under its hash",
			seg, n.Key, n.Hash, q.index[h] == n)
	}
	if q.Holds("old", n) || q.Holds("", n) {
		t.Fatal("a shadow node passes for a resident")
	}
	if out, back := q.Access("old", h, n, 1); !out.CliffShadowHit || back != n || n.Key != "old" || q.index[h] != nil {
		t.Fatalf("shadow hit: %+v, same node %v, key %q, still indexed %v", out, back == n, n.Key, q.index[h] != nil)
	}
}

// TestHashCollisionTouchesOnlyTheShadow feeds the queue two keys under one
// hash. Resident, they are two entries, each reached only through its own
// node. Evicted, the first takes the hash's shadow slot and the second is
// forgotten (a lost shadow hit); a request for the second then lands on the
// first's shadow entry (a spurious shadow hit), which becomes the second's
// resident entry, and the first is simply gone. No node ever holds a key it
// was not given for, so a collision is a shadow-sized nudge and never a wrong
// resident.
func TestHashCollisionTouchesOnlyTheShadow(t *testing.T) {
	q := shadowedQueue()
	const h = 42 // both keys' hash
	_, a := q.Access("a", h, nil, 1)
	_, b := q.Access("b", h, nil, 1)
	if a == b || !q.Holds("a", a) || !q.Holds("b", b) || q.Holds("a", b) || q.Holds("b", a) {
		t.Fatal("two resident keys sharing a hash do not have one node each")
	}
	if out, n := q.Access("b", h, b, 1); !out.Hit || n != b || b.Key != "b" {
		t.Fatalf("a hit through b's node: %+v, key %q", out, b.Key)
	}
	if hit, _ := q.AccessResident("a", b, 1); hit {
		t.Fatal("a's request hit through b's node")
	}
	// Evict both: a first into the shadow, then b, whose hash is taken.
	fill(q, "x", 4)
	if q.index[h] != a || a.Key != "" || b.Aux != -1 || len(q.index) != 1 {
		t.Fatalf("after eviction: index[h] is a %v, a's key %q, b forgotten %v, %d shadow entries",
			q.index[h] == a, a.Key, b.Aux == -1, len(q.index))
	}
	out, n := q.Access("b", h, nil, 1)
	if !out.CliffShadowHit || n != a || n.Key != "b" || q.index[h] != nil {
		t.Fatalf("b's request: %+v, landed on a's node %v with key %q", out, n == a, n.Key)
	}
	if out, _ := q.Access("a", h, nil, 1); out.Hit || out.ShadowHit || out.CliffShadowHit {
		t.Fatalf("a's request after its shadow entry went to b: %+v, want a plain miss", out)
	}
	if got := q.left.segs[segFront].list.Keys(); !slices.Equal(got, []string{"a", "b", "x-3", "x-2"}) {
		t.Fatalf("resident keys %v, want a, b, x-3 and x-2, each once", got)
	}
}
