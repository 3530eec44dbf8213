package store

import (
	"cliffhanger/internal/cache"
	"fmt"
	"math/rand"
	"testing"

	"cliffhanger/internal/core"
	"cliffhanger/internal/slab"
)

// The store-level twins of internal/core's fits_test.go: in Cliffhanger mode,
// at shipped defaults, a tenant that still has free budget neither evicts nor
// moves a cliff pointer, and a tenant that is offered more than it can hold
// ends up holding about what it was promised. They run with and without the
// maintenance goroutine.

func bookkeepingModes(t *testing.T, f func(t *testing.T, s *Store)) {
	for _, inline := range []bool{true, false} {
		name := "async"
		if inline {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			s := New(Config{DefaultMode: AllocCliffhanger, SyncBookkeeping: inline})
			defer s.Close()
			f(t, s)
		})
	}
}

// TestColdLoadThatFitsEvictsNothing is bench/'s hit_* load (ROADMAP item 7):
// 8192 keys of 256 bytes fit a 64 MiB tenant thirty times over. At the parent
// of this change 3255 of them were evicted while 62 MiB were free, and ~9 % of
// the first 50 000 GETs missed.
func TestColdLoadThatFitsEvictsNothing(t *testing.T) {
	bookkeepingModes(t, func(t *testing.T, s *Store) {
		if err := s.RegisterTenant("default", 64<<20); err != nil {
			t.Fatal(err)
		}
		const keys = 8192
		value := make([]byte, 256)
		for i := 0; i < keys; i++ {
			if err := set(s, "default", fmt.Sprintf("key-%d", i), value); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.01, 1, keys-1)
		for i := 0; i < 50000; i++ {
			if _, ok, err := get(s, "default", fmt.Sprintf("key-%d", zipf.Uint64())); err != nil || !ok {
				t.Fatalf("GET %d missed on a working set that fits: ok=%v err=%v", i, ok, err)
			}
		}
		snaps, freeBytes, err := s.QueueSnapshots("default")
		if err != nil {
			t.Fatal(err)
		}
		if freeBytes < 50<<20 {
			t.Fatalf("%d bytes free after loading 4 MiB into 64", freeBytes)
		}
		var loaded int
		for _, q := range snaps {
			if q.Stats.Evictions != 0 || q.Stats.RelaxEvents != 0 {
				t.Errorf("%s: %d evictions, %d relax events with %d bytes free", q.ID, q.Stats.Evictions, q.Stats.RelaxEvents, freeBytes)
			}
			if q.Items == 0 {
				continue
			}
			loaded += q.Items
			if q.LeftPointer != q.Capacity || q.RightPointer != q.Capacity ||
				q.LeftCapacity != q.Capacity/2 || q.RightCapacity != q.Capacity/2 {
				t.Errorf("%s: pointers (%d, %d), partitions (%d, %d) for capacity %d",
					q.ID, q.LeftPointer, q.RightPointer, q.LeftCapacity, q.RightCapacity, q.Capacity)
			}
		}
		if loaded != keys {
			t.Fatalf("%d keys resident, want %d", loaded, keys)
		}
		st, _ := s.Stats("default")
		if st.Misses != 0 || st.Hits != 50000 {
			t.Fatalf("tenant counted %d hits, %d misses", st.Hits, st.Misses)
		}
	})
}

// TestWriteChurnMissesOnlyAfterDelete is bench/'s write_churn in process:
// 16384 keys moving between four slab classes inside a 256 MiB tenant, half
// SETs, a tenth DELETEs, the rest GETs with a read-through fill. Everything
// fits, so the only honest GET miss is for a key whose last write was a
// DELETE. At the parent of this change a sixth of the GETs missed.
func TestWriteChurnMissesOnlyAfterDelete(t *testing.T) {
	sizes := [4]int{100, 400, 900, 3800}
	bookkeepingModes(t, func(t *testing.T, s *Store) {
		if err := s.RegisterTenant("default", 256<<20); err != nil {
			t.Fatal(err)
		}
		const keys = 16384
		payload := make([]byte, sizes[3])
		size := make([]int, keys)
		deleted := make([]bool, keys)
		key := func(k int) string { return fmt.Sprintf("wc-%d", k) }
		for k := 0; k < keys; k++ {
			size[k] = sizes[k%len(sizes)]
			if err := set(s, "default", key(k), payload[:size[k]]); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.01, 1, keys-1)
		var gets, misses int
		for i := 0; i < 200000; i++ {
			k := int(zipf.Uint64())
			switch x := rng.Intn(10); {
			case x < 5:
				size[k] = sizes[rng.Intn(len(sizes))]
				if err := set(s, "default", key(k), payload[:size[k]]); err != nil {
					t.Fatal(err)
				}
				deleted[k] = false
			case x < 6:
				s.Delete("default", key(k))
				deleted[k] = true
			default:
				gets++
				if _, ok, _ := get(s, "default", key(k)); !ok {
					if !deleted[k] {
						t.Fatalf("op %d: GET %s missed and its last write was not a DELETE", i, key(k))
					}
					misses++
					set(s, "default", key(k), payload[:size[k]])
					deleted[k] = false
				}
			}
		}
		t.Logf("%d GETs, %d misses, all after a DELETE (hit rate %.4f)", gets, misses, 1-float64(misses)/float64(gets))
		snaps, freeBytes, err := s.QueueSnapshots("default")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range snaps {
			if q.Stats.Evictions != 0 || q.Stats.RelaxEvents != 0 {
				t.Errorf("%s: %d evictions, %d relax events with %d bytes free", q.ID, q.Stats.Evictions, q.Stats.RelaxEvents, freeBytes)
			}
		}
	})
}

// TestColdFillUsesTheBudget is the other half of "keeps what fits": a tenant
// offered twice what it can hold, spread evenly over six slab classes, ends
// up holding close to its reservation. With whole-page grants a 1 MiB tenant
// gave its one page to the first class that missed and held a third of it.
// The ledger must also add up: what is free plus what the queues were granted
// is the reservation plus the queues' uncharged floors, to the byte.
func TestColdFillUsesTheBudget(t *testing.T) {
	sizes := [6]int{100, 220, 480, 990, 2000, 4000} // chunks of 128 B ... 4 KiB
	for _, budget := range []int64{1 << 20, 4 << 20} {
		t.Run(fmt.Sprintf("%dMiB", budget>>20), func(t *testing.T) {
			bookkeepingModes(t, func(t *testing.T, s *Store) {
				if err := s.RegisterTenant("default", budget); err != nil {
					t.Fatal(err)
				}
				payload := make([]byte, sizes[len(sizes)-1])
				// A round offers every class the same 4 KiB: 32 of the
				// smallest items, 16 of the next, ... one of the largest.
				n := 0
				for offered := int64(0); offered < 2*budget; offered += 4096 * int64(len(sizes)) {
					for c, size := range sizes {
						for j := 0; j < 32>>c; j++ {
							if err := set(s, "default", fmt.Sprintf("fill-%07d", n), payload[:size]); err != nil {
								t.Fatal(err)
							}
							n++
						}
					}
				}
				snaps, freeBytes, err := s.QueueSnapshots("default")
				if err != nil {
					t.Fatal(err)
				}
				var used, capacity int64
				for _, q := range snaps {
					used += q.Used
					capacity += q.Capacity
				}
				floors := int64(len(snaps)) * 2 * core.DefaultConfig().CreditBytes
				if freeBytes != 0 || freeBytes+capacity != budget+floors {
					t.Errorf("%d bytes free and %d in the queues of a %d-byte reservation with %d bytes of floors", freeBytes, capacity, budget, floors)
				}
				if used*100 < 85*budget {
					t.Errorf("%d bytes resident, %.2f of the reservation, after a fill of twice its size", used, float64(used)/float64(budget))
				}
			})
		})
	}
}

// TestGrantThatSplitsAQueueStillMakesRoom pins ROADMAP item 8(a), which was
// reached only when a since-removed asynchronous replay reordered
// admissions: the grant that takes a class queue over CliffMinItems splits
// it, splitResidents leaves the left partition exactly full, and a key that
// routes left has no more room than before the grant. The admission must keep taking free budget until it
// does, and evict nothing.
func TestGrantThatSplitsAQueueStillMakesRoom(t *testing.T) {
	const size, chunk = 500, 512 // class 3
	const step = slab.DefaultPageSize / grantsPerPage
	// fill returns a tenant whose class-3 queue is unsplit, full and one
	// grant short of the split threshold.
	fill := func() (*Tenant, *core.Queue) {
		tn, err := NewTenant(TenantConfig{Name: "t", MemoryBytes: 16 << 20, Mode: AllocCliffhanger, Cliffhanger: core.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		class, _ := tn.ClassFor(size)
		q := tn.Manager().QueueAt(class)
		for i := 0; ; i++ {
			key := fmt.Sprintf("key-%d", i)
			if !q.Split() && !q.HasRoom(cache.Hash(key), chunk) && (q.Capacity()+step)/chunk >= tn.Manager().Config().CliffMinItems {
				return tn, q
			}
			if victims := tn.Admit(key, size); len(victims) != 0 {
				t.Fatalf("fill %d evicted %v", i, victims)
			}
		}
	}
	// On a twin, make the one grant by hand: the queue splits into even
	// halves, and the keys it has no room for are the ones that route left.
	_, twin := fill()
	twin.Grow(step)
	twin.ForceApplyResize()
	if lc, rc := twin.PartitionCapacities(); !twin.Split() || lc != twin.Capacity()/2 || lc+rc != twin.Capacity() || twin.Stats().Evictions != 0 {
		t.Fatalf("after the splitting grant: split=%v partitions (%d, %d) of %d, %d evictions", twin.Split(), lc, rc, twin.Capacity(), twin.Stats().Evictions)
	}
	var left, right string
	for i := 0; left == "" || right == ""; i++ {
		if key := fmt.Sprintf("trigger-%d", i); twin.HasRoom(cache.Hash(key), chunk) {
			right = key
		} else {
			left = key
		}
	}
	for _, key := range []string{left, right} {
		tn, q := fill()
		victims := tn.Admit(key, size)
		resident := q.Holds(key, tn.nodeOf(key, size))
		if len(victims) != 0 || q.Stats().Evictions != 0 || !resident || !q.Split() {
			t.Errorf("%s: victims %v, %d evictions, resident=%v, split=%v with %d bytes free",
				key, victims, q.Stats().Evictions, resident, q.Split(), tn.policy.(*managedPolicy).free)
		}
	}
}

// TestManagedPolicyGrantsPageToFullPartition is mechanism (3) of the fix at
// the level it lived at: managedPolicy.growIfNeeded used to ask whether the
// queue as a whole was out of room, so a full partition evicted while its
// sibling had slack and the tenant had free budget. Now some grants must come
// while the queue as a whole still has room. (Mechanisms (1) and (2) have
// their focused tests in internal/core, next to Queue.HasRoom's own.)
func TestManagedPolicyGrantsPageToFullPartition(t *testing.T) {
	tn, err := NewTenant(TenantConfig{Name: "t", MemoryBytes: 16 << 20, Mode: AllocCliffhanger, Cliffhanger: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	const size = 500 // class 3, 512-byte chunks
	class, _ := tn.ClassFor(size)
	q := tn.Manager().QueueAt(class)
	early := 0
	for i := 0; i < 8000; i++ {
		room, before := q.Used()+512 <= q.Capacity(), q.Capacity()
		tn.Admit(fmt.Sprintf("key-%d", i), size)
		if room && q.Capacity() > before {
			early++
		}
	}
	if early == 0 {
		t.Fatalf("every grant came only once the whole queue was full: a full partition evicts while its sibling has slack")
	}
}
