package core

import (
	"fmt"
	"testing"

	"cliffhanger/internal/cache"
)

// These tests pin the invariant "an owner that still has memory to grant
// never sees an eviction or a moved cliff pointer", which three mechanisms
// broke together when a queue grew by pages the way internal/store grows it.
// The property test drives all three; the three focused tests below it name
// the one that came back.

// Page geometry for the tests: unit-cost-64 items, 1024 to a page.
const (
	fitsUnit = 64
	fitsPage = 1024 * fitsUnit
)

// pagedManager is the store's managed policy in miniature: queues start at
// the floor and grow a page at a time, out of a pool of free pages, until
// the admission at hand has room (managedPolicy.growIfNeeded, whose grant
// step is a fraction of a slab page; here a "page" is simply the step).
type pagedManager struct {
	*Manager
	free int64
}

func newPagedManager(t *testing.T, cfg Config, pages int64, queues int) *pagedManager {
	t.Helper()
	specs := make([]QueueSpec, queues)
	for i := range specs {
		specs[i] = QueueSpec{ID: fmt.Sprintf("q%d", i), UnitCost: fitsUnit, InitialCapacity: 1}
	}
	m, err := NewManager(cfg, pages*fitsPage, specs)
	if err != nil {
		t.Fatal(err)
	}
	pm := &pagedManager{Manager: m, free: pages}
	m.SetSpare(func() bool { return pm.free > 0 })
	return pm
}

func (pm *pagedManager) admit(i int, key string) AccessOutcome {
	q := pm.QueueAt(i)
	var victims []cache.Victim
	for pm.free > 0 && !q.HasRoom(cache.Hash(key), fitsUnit) {
		pm.free--
		q.Grow(fitsPage)
		victims = append(victims, q.ForceApplyResize()...)
	}
	out, n := pm.AccessAt(i, key, cache.Hash(key), pm.placed[i][key], fitsUnit)
	pm.placed[i][key] = n
	out.Evicted = append(victims, out.Evicted...)
	return out
}

// TestWorkingSetThatFitsMissesOnce is ROADMAP item 7's property: a working
// set no larger than half of the budget is admitted without one eviction and
// then never misses, for hill climbing, cliff scaling and the two combined.
// (The subtest names keep the "splitter0" of the hash splitter, the only one
// left.) At the parent of the change that added it a third of the keys were
// evicted during the fill.
func TestWorkingSetThatFitsMissesOnce(t *testing.T) {
	const (
		pages  = 16
		queues = 2
		keys   = pages / 2 * 1024 // half of the budget, over both queues
	)
	algos := map[string]func(Config) Config{
		"hill-only":  Config.HillClimbingOnly,
		"cliff-only": Config.CliffScalingOnly,
		"combined":   func(c Config) Config { return c },
	}
	for name, algo := range algos {
		t.Run("splitter0/"+name, func(t *testing.T) {
			cfg := algo(DefaultConfig())
			cfg.Seed = 1
			pm := newPagedManager(t, cfg, pages, queues)
			key := func(i int) (int, string) { return i % queues, fmt.Sprintf("key-%d", i) }
			for i := 0; i < keys; i++ {
				q, k := key(i)
				if out := pm.admit(q, k); out.Hit || len(out.Evicted) != 0 {
					t.Fatalf("fill %d: hit=%v evicted=%v with %d pages free", i, out.Hit, out.Evicted, pm.free)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < keys; i++ {
					q, k := key(i)
					if hit, _ := pm.QueueAt(q).AccessResident(k, pm.placed[q][k], fitsUnit); !hit {
						t.Fatalf("pass %d: key %d missed although the working set fits twice", pass, i)
					}
				}
			}
			if pm.free == 0 {
				t.Fatalf("the fill used every page; the test no longer has spare memory")
			}
			for _, s := range pm.Snapshot() {
				if s.Stats.Evictions != 0 || s.Stats.RelaxEvents != 0 {
					t.Errorf("%s: %d evictions, %d relax events", s.ID, s.Stats.Evictions, s.Stats.RelaxEvents)
				}
				if s.Split && (s.LeftPointer != s.Capacity || s.RightPointer != s.Capacity ||
					s.LeftCapacity != s.Capacity/2 || s.LeftCapacity+s.RightCapacity != s.Capacity) {
					t.Errorf("%s: pointers (%d, %d) partitions (%d, %d) for capacity %d: cliff scaling moved with nothing to scale",
						s.ID, s.LeftPointer, s.RightPointer, s.LeftCapacity, s.RightCapacity, s.Capacity)
				}
				if s.Split != cfg.EnableCliffScaling {
					t.Errorf("%s: split=%v, want %v (the queues should be past the split threshold)", s.ID, s.Split, cfg.EnableCliffScaling)
				}
			}
		})
	}
}

// coldFill admits n fresh keys into a one-queue paged manager.
func coldFill(t *testing.T, pm *pagedManager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pm.admit(0, fmt.Sprintf("key-%d", i))
	}
}

// TestNoRelaxationWhileOwnerHasSpare is mechanism (1): a partition that was
// just granted a page is underfull by more than relaxMargin by construction,
// so the relaxation rule in Queue.settle read every cold fill as pointer
// overshoot. It must hold off while the owner reports spare memory — and it
// is the owner's report that holds it off: the same fill with the report
// withdrawn relaxes.
func TestNoRelaxationWhileOwnerHasSpare(t *testing.T) {
	cfg := DefaultConfig().CliffScalingOnly()
	pm := newPagedManager(t, cfg, 16, 1)
	coldFill(t, pm, 4*1024)
	if s := pm.QueueAt(0).Stats(); s.RelaxEvents != 0 {
		t.Fatalf("cold fill with %d pages free: %d relax events", pm.free, s.RelaxEvents)
	}

	told := newPagedManager(t, cfg, 16, 1)
	told.SetSpare(nil)
	coldFill(t, told, 4*1024)
	if s := told.QueueAt(0).Stats(); s.RelaxEvents == 0 {
		t.Fatalf("the control fill, never told of spare memory, did not relax: the first half of this test proves nothing")
	}
}

// TestGrowCarriesHomePointers is mechanism (2): a page grant moves the
// operating point, and a left pointer that was home has to move with it, or
// the left partition is held to half of the capacity the queue had when it
// first split. SetCapacity, which hill climbing uses, is deliberately left as
// it was: carrying the pointer there too changes the Table 4 numbers.
func TestGrowCarriesHomePointers(t *testing.T) {
	cfg := DefaultConfig().CliffScalingOnly()
	const start = 2 * fitsPage
	q := newQueue("q", cfg, 0, start, fitsUnit)
	if !q.Split() {
		t.Fatalf("a %d-item queue should be split", start/fitsUnit)
	}
	q.Grow(fitsPage)
	if lp, rp := q.Pointers(); lp != start+fitsPage || rp != start+fitsPage {
		t.Fatalf("after a grant to %d the pointers are (%d, %d)", start+fitsPage, lp, rp)
	}
	for q.pendingResize {
		q.ForceApplyResize()
	}
	if l, r := q.PartitionCapacities(); l != (start+fitsPage)/2 || l+r != start+fitsPage {
		t.Fatalf("partitions (%d, %d) after a grant to %d, want an even split", l, r, start+fitsPage)
	}

	// A pointer that cliff scaling has moved away is evidence, not a default:
	// it stays where it is.
	moved := newQueue("q", cfg, 0, start, fitsUnit)
	moved.leftPointer = start - 8*cfg.CreditBytes
	moved.Grow(fitsPage)
	if lp, _ := moved.Pointers(); lp != start-8*cfg.CreditBytes {
		t.Fatalf("a grant carried a left pointer that was not home: %d", lp)
	}

	plain := newQueue("q", cfg, 0, start, fitsUnit)
	plain.SetCapacity(start + fitsPage)
	if lp, _ := plain.Pointers(); lp != start {
		t.Fatalf("SetCapacity moved the left pointer to %d; that changes hill climbing and needs its own PR", lp)
	}
}

// TestHasRoomAsksTheRoutedPartition is mechanism (3): eviction happens in the
// partition a key routes to, so that is where "is there room" has to be
// asked. Asked of the queue as a whole, a full partition evicted while its
// sibling had slack.
func TestHasRoomAsksTheRoutedPartition(t *testing.T) {
	cfg := DefaultConfig().CliffScalingOnly()
	q := keyedQueue(newQueue("q", cfg, 0, 2*fitsPage, fitsUnit))
	var leftKey, rightKey string
	for i := 0; leftKey == "" || rightKey == ""; i++ {
		if k := fmt.Sprintf("probe-%d", i); q.routesLeft(k) {
			leftKey = k
		} else {
			rightKey = k
		}
	}
	// Fill the left partition and leave the right one empty.
	for i := 0; q.left.hasRoom(fitsUnit); i++ {
		if k := fmt.Sprintf("key-%d", i); q.routesLeft(k) {
			q.Access(k, fitsUnit)
		}
	}
	if q.Used()+fitsUnit > q.Capacity() {
		t.Fatalf("the queue as a whole is full; the test needs slack in the right partition")
	}
	if q.HasRoom(leftKey, fitsUnit) {
		t.Fatalf("HasRoom says yes for a key routed to the full left partition")
	}
	if !q.HasRoom(rightKey, fitsUnit) {
		t.Fatalf("HasRoom says no for a key routed to the empty right partition")
	}
	if out, _ := q.Access(leftKey, fitsUnit); len(out.Evicted) == 0 {
		t.Fatalf("admitting where HasRoom said no evicted nothing: HasRoom is asking the wrong question")
	}
}

// TestSplitActivationMovesResidents is the fourth way a tenant with free
// pages evicted, found by the store-level write_churn twin after the three
// above were fixed: a queue that crosses the split threshold holds everything
// in its left partition, and halving that partition step by step evicted what
// no longer fit although the queue as a whole had just grown. The colder part
// has to move to the right partition instead, keeping its recency order.
func TestSplitActivationMovesResidents(t *testing.T) {
	cfg := DefaultConfig().CliffScalingOnly()
	const (
		before = 990 // items, just under the 1000-item threshold, and full
		grant  = 64
		half   = (before + grant) / 2
	)
	q := keyedQueue(newQueue("q", cfg, 0, before*fitsUnit, fitsUnit))
	for i := 0; i < before; i++ {
		q.Access(fmt.Sprintf("key-%d", i), fitsUnit)
	}
	if q.Split() || q.Items() != before {
		t.Fatalf("split=%v items=%d before the grant", q.Split(), q.Items())
	}
	q.Grow(grant * fitsUnit)
	if victims := q.ForceApplyResize(); len(victims) != 0 || !q.Split() || q.Items() != before {
		t.Fatalf("activation: %d victims, split=%v, %d items", len(victims), q.Split(), q.Items())
	}
	if l, r := q.PartitionCapacities(); l != half*fitsUnit || r != half*fitsUnit || q.pendingResize {
		t.Fatalf("partitions (%d, %d) for capacity %d, pending=%v", l, r, q.Capacity(), q.pendingResize)
	}
	if got := q.right.items(); got != before-half {
		t.Fatalf("the right partition holds %d keys, want the %d coldest", got, before-half)
	}
	// Recency order survives the move: each partition gives its keys up
	// oldest first, the right one starting at key-0 and the left one where
	// the right one's share ended.
	next := map[bool]int{true: 0, false: before - half}
	for i := 0; i < 2000; i++ {
		out, _ := q.Access(fmt.Sprintf("new-%d", i), fitsUnit)
		for _, v := range out.Evicted {
			var n int
			if _, err := fmt.Sscanf(v.Key, "key-%d", &n); err != nil {
				continue
			}
			moved := n < before-half
			if n != next[moved] {
				t.Fatalf("evicted key-%d; the coldest key of its partition is key-%d", n, next[moved])
			}
			next[moved]++
		}
	}
	if next[true] != before-half || next[false] != before {
		t.Fatalf("the fill should have pushed out every old key; it reached key-%d and key-%d", next[true], next[false])
	}
}
