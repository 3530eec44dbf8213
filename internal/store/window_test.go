package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cliffhanger/internal/cache"
)

// inFront reports whether n is linked in a front segment of its queue. A
// core.Queue tags a node owner×2×numSegs + partition×numSegs + segment, with
// four segments of which the front one is 0, and a forgotten node -1.
func inFront(n *cache.Node) bool { return n != nil && n.Aux >= 0 && n.Aux%4 == 0 }

// skipLoad drives s's tenant "app" under eviction pressure with 60 000
// read-through GETs, re-sets and deletes over two value sizes, on keys named
// prefix+"key-N", and calls hit for every GET hit: it is the key's record and
// the node it had just before the GET, front whether that node was then
// linked in a front segment, and skipped whether the GET emitted no event
// (the record's promoted stamp stayed where it was). front is read only when
// still is set: with no other goroutine driving the tenant, nodes hold still
// outside bk.mu. It reports errors with t.Error, so that it can drive from a
// goroutine of its own.
func skipLoad(t *testing.T, s *Store, seed int64, prefix string, still bool, hit func(key string, it *item, node *cache.Node, front, skipped bool)) {
	e, _ := s.entry("app")
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.01, 1, 20000)
	value := func(k uint64) []byte { // one key in seven in the larger class
		if k%7 == 6 {
			return make([]byte, 1000)
		}
		return make([]byte, 200)
	}
	for i := 0; i < 60000; i++ {
		// Half the keys are drawn uniformly, so that many hits come near
		// the end of their window, where a wrong one would show.
		k := zipf.Uint64()
		if i%2 == 1 {
			k = uint64(rng.Intn(20000))
		}
		key := fmt.Sprintf("%skey-%d", prefix, k)
		switch r := rng.Intn(20); {
		case r == 0:
			s.Delete("app", key)
			continue
		case r == 1:
			if err := set(s, "app", key, value(k)); err != nil {
				t.Error(err)
				return
			}
			continue
		}
		sh := shardFor(e, key)
		sh.mu.Lock()
		it := sh.items[key]
		var node *cache.Node
		var promoted uint64
		if it != nil {
			node, promoted = it.node, it.promoted
		}
		front := still && inFront(node)
		sh.mu.Unlock()
		_, ok, err := get(s, "app", key)
		if err != nil {
			t.Error(err)
			return
		}
		if !ok {
			if err := set(s, "app", key, value(k)); err != nil {
				t.Error(err)
				return
			}
			continue
		}
		sh.mu.Lock()
		skipped := node != nil && sh.items[key] == it && it.promoted == promoted
		sh.mu.Unlock()
		hit(key, it, node, front, skipped)
	}
}

// TestOnlyFrontHitsSkip drives synchronous stores under eviction pressure
// (skipLoad) in the default mode and in cliffhanger with hill climbing and
// cliff scaling on, over several seeds, and catches every GET hit that emits
// no event: at that moment the key's queue node must be linked in a front
// segment. A cliffhanger run must also see hits in a tail window, so that the
// check can tell the segments apart, and a split queue.
func TestOnlyFrontHitsSkip(t *testing.T) {
	for _, mode := range []AllocationMode{AllocDefault, AllocCliffhanger} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				s := New(Config{SyncBookkeeping: true})
				defer s.Close()
				if err := s.RegisterTenantConfig(TenantConfig{Name: "app", MemoryBytes: 2 << 20, Mode: mode}); err != nil {
					t.Fatal(err)
				}
				var skips, tailHits, hits int
				skipLoad(t, s, seed, "", true, func(key string, it *item, node *cache.Node, front, skipped bool) {
					hits++
					if !front {
						tailHits++
					}
					if skipped {
						skips++
						if !front {
							t.Fatalf("the GET hit on %s emitted no event with its node outside a front segment (tag %d)", key, node.Aux)
						}
					}
				})
				st, _ := s.Stats("app")
				var evictions int64
				for _, c := range st.Classes {
					evictions += c.Evictions
				}
				t.Logf("%d hits, %d within their window, %d outside a front segment, %d evictions", hits, skips, tailHits, evictions)
				if skips == 0 || int64(skips) != st.HitsUnpromoted || evictions == 0 {
					t.Fatalf("%d hits emitted no event, stats count %d; %d evictions", skips, st.HitsUnpromoted, evictions)
				}
				if mode == AllocCliffhanger {
					queues, _, _ := s.QueueSnapshots("app")
					split := false
					for _, q := range queues {
						split = split || q.Split
					}
					if tailHits == 0 || !split {
						t.Fatalf("%d hits outside a front segment, a queue split: %v; want both", tailHits, split)
					}
				}
			})
		}
	}
}

// TestFrontHitsSkipAsync measures how often the window rule is wrong when
// two connections drive one tenant: a GET decides against the window the last
// replay published while the other driver's request may be between its
// unlock and its apply, and the events it then applies (a shrink applied by
// a miss, an admission that drains several smaller entries) can push the key
// out of its front segment before the hit that skipped its promotion. Two
// goroutines drive a store with its maintenance goroutine, as the daemon
// runs, each skipLoad over keys of its own, default, cliffhanger and global
// LRU. At one skip in 32 a driver takes the accounting lock, applies
// whatever is still buffered and looks at the key's node: a key whose node
// left the front segment, or which left the directory, counts as a wrong
// skip. Events the other driver applied after the skip count against the
// rule too, so the share is an upper bound; it is reported and bounded by
// 5 %.
func TestFrontHitsSkipAsync(t *testing.T) {
	for _, mode := range []AllocationMode{AllocDefault, AllocCliffhanger, AllocGlobalLRU} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				s := New(Config{})
				defer s.Close()
				if err := s.RegisterTenantConfig(TenantConfig{Name: "app", MemoryBytes: 2 << 20, Mode: mode}); err != nil {
					t.Fatal(err)
				}
				e, _ := s.entry("app")
				var skips, checked, wrong [2]int
				var wg sync.WaitGroup
				for d := range 2 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						skipLoad(t, s, 10*seed+int64(d), fmt.Sprint(d), false, func(key string, it *item, node *cache.Node, _, skipped bool) {
							if !skipped {
								return
							}
							if skips[d]++; skips[d]%32 != 0 {
								return
							}
							checked[d]++
							e.bk.mu.Lock()
							e.bk.settleLocked()
							sh := shardFor(e, key)
							sh.mu.Lock()
							if sh.items[key] != it || it.node != node || !inFront(node) {
								wrong[d]++
							}
							sh.mu.Unlock()
							e.bk.mu.Unlock()
						})
					}()
				}
				wg.Wait()
				st, _ := s.Stats("app")
				allSkips, allChecked, allWrong := skips[0]+skips[1], checked[0]+checked[1], wrong[0]+wrong[1]
				t.Logf("%s: %d skips, %d checked, %d outside a front segment (%.2f%%)",
					mode, allSkips, allChecked, allWrong, 100*float64(allWrong)/float64(max(allChecked, 1)))
				// A skip whose record the other driver's replay drops before
				// its driver looks is not told from a hit that emitted.
				if n := int64(allSkips); allChecked < 100 || n > st.HitsUnpromoted || st.HitsUnpromoted-n > n/100 {
					t.Fatalf("%d skips, stats count %d, %d checked", allSkips, st.HitsUnpromoted, allChecked)
				}
				if allWrong*20 > allChecked {
					t.Errorf("%d of %d checked skips outside a front segment, more than 5%%", allWrong, allChecked)
				}
			})
		}
	}
}

// TestUnpromotedHitsAreCounted serves GET hits, most of them within their
// window, and holds every reader of the settled tenant to the number served:
// the tenant's hits (get_hits), the per-class hits, the class queues' hits and
// the hits the arbiter observes, with and without the maintenance goroutine.
func TestUnpromotedHitsAreCounted(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		t.Run(fmt.Sprintf("sync=%v", syncBk), func(t *testing.T) {
			s := New(Config{SyncBookkeeping: syncBk})
			defer s.Close()
			if err := s.RegisterTenantConfig(TenantConfig{Name: "app", MemoryBytes: 16 << 20, Mode: AllocMemshare}); err != nil {
				t.Fatal(err)
			}
			const keys = 6000
			for i := 0; i < keys; i++ {
				if err := set(s, "app", fmt.Sprintf("key-%d", i), make([]byte, 100+i%3*300)); err != nil {
					t.Fatal(err)
				}
			}
			// Settled, so that no hit meets a pending admission: its event
			// would count in the tenant but not in the queue (rule 2 of event).
			s.Flush()
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.1, 1, keys-1)
			served := int64(0)
			for i := 0; i < 50000; i++ {
				if _, ok, _ := get(s, "app", fmt.Sprintf("key-%d", zipf.Uint64())); ok {
					served++
				}
			}
			s.Flush()
			st, _ := s.Stats("app")
			var classHits, queueHits int64
			for _, c := range st.Classes {
				classHits += c.Hits
			}
			queues, _, _ := s.QueueSnapshots("app")
			for _, q := range queues {
				queueHits += q.Stats.Hits
			}
			e, _ := s.entry("app")
			observed := e.observe("app").hits
			if st.HitsUnpromoted < served/2 {
				t.Errorf("only %d of %d hits within their window", st.HitsUnpromoted, served)
			}
			if st.Hits != served || classHits != served || queueHits != served || observed != served {
				t.Errorf("served %d hits; tenant %d, classes %d, queues %d, arbiter %d", served, st.Hits, classHits, queueHits, observed)
			}
		})
	}
}
