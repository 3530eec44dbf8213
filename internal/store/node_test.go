package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/core"
)

// TestHitResizeVictimsAreDropped: with ResizeOnMissOnly off (the ablation
// core.Config calls it) a GET hit applies a pending resize, and whatever that
// evicts must leave the directory the way an admission's victims do. A
// GET-else-SET mix over four item sizes in a 2 MiB tenant keeps hill-climbing
// resizes pending; at both settings, sync and async, it must end with a clean
// conservation audit and one directory record per queue entry.
func TestHitResizeVictimsAreDropped(t *testing.T) {
	sizes := []int{100, 400, 900, 3000}
	for _, missOnly := range []bool{true, false} {
		for _, syncBk := range []bool{true, false} {
			t.Run(fmt.Sprintf("resizeOnMissOnly=%v/sync=%v", missOnly, syncBk), func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.ResizeOnMissOnly = missOnly
				s := New(Config{DefaultMode: AllocCliffhanger, Cliffhanger: cfg, SyncBookkeeping: syncBk})
				defer s.Close()
				if err := s.RegisterTenant("app", 2<<20); err != nil {
					t.Fatal(err)
				}
				values := make([][]byte, len(sizes))
				for i, n := range sizes {
					values[i] = make([]byte, n)
				}
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < 200000; i++ {
					k := rng.Intn(20000)
					key := fmt.Sprintf("k%d", k)
					if _, ok, _ := get(s, "app", key); !ok {
						// A synchronous store reports a SET whose item its
						// partition could not hold; that is the mix's business.
						set(s, "app", key, values[k%len(values)])
					}
				}
				if err := s.AuditConservation("app"); err != nil {
					t.Fatal(err)
				}
				e, _ := s.entry("app")
				items, _ := s.Items("app")
				e.bk.mu.Lock()
				queued := queuedItems(e.tenant)
				e.bk.mu.Unlock()
				if items != queued {
					t.Fatalf("the directory holds %d records, the queues %d entries", items, queued)
				}
			})
		}
	}
}

// TestStaleNodesThroughStore holds the sweep while requests are made whose
// records' queue nodes go stale, or have none, before the requests replay:
//
//   - a GET between a cross-class re-set and the replay of its re-admission
//     (the record has forgotten its old class's node and has no new one yet);
//   - a GET after a delete and a re-set of the same key (a fresh record,
//     which has no node until the re-admission replays);
//   - a GET of a record whose key the replay of earlier SETs evicts and
//     pushes off the end of its queue, and whose node the next admission
//     reuses for another key;
//   - a delete of a record whose admission is pending;
//   - a TTL expiry of such a record (a GET past its deadline);
//   - a cross-class re-set of such a record;
//   - a set, a GET and a delete of one key, all inside one pending window.
//
// Each must settle to what a synchronous store running the same ops holds:
// per-class hits and misses, Items, UsedBytes, the removal counters and a
// clean conservation audit, with no resident queue entry left that has no
// record.
func TestStaleNodesThroughStore(t *testing.T) {
	// A queue small enough that a key falls off the end of its chain after
	// a few dozen admissions: 18 class-0 items, tail window and cliff shadow
	// of 2, hill shadow of 4. Keys and values are short, so a GET the
	// directory misses is counted in the same class as one the queue misses.
	cfg := core.DefaultConfig()
	cfg.CreditBytes = 64
	cfg.ShadowBytes = 4 * 64
	cfg.TailWindowItems = 2
	cfg.CliffShadowItems = 2
	small, big := make([]byte, 10), make([]byte, 100)
	const key = "key"
	var clock atomic.Int64 // each run starts it at 1000

	type script struct {
		name string
		// before, if any, runs with the sweep free and ops with it held (on
		// the asynchronous run). held checks the key's record as it was when
		// the sweep was released, after the node it had before the hold
		// (asynchronous run only).
		before, ops func(t *testing.T, s *Store)
		held        func(t *testing.T, it item)
		after       func(t *testing.T, stale *cache.Node)
	}
	cases := []script{
		{
			name:   "cross-class re-set",
			before: func(t *testing.T, s *Store) { mustSet(t, s, key, small) },
			ops: func(t *testing.T, s *Store) {
				get(s, "app", key) // through the class-0 node
				mustSet(t, s, key, big)
				get(s, "app", key) // class 1, no node yet
			},
			held: func(t *testing.T, it item) {
				if it.node != nil {
					t.Fatalf("re-set record remembers node %p, want none while its admission is pending", it.node)
				}
			},
		},
		{
			name:   "delete and re-set",
			before: func(t *testing.T, s *Store) { mustSet(t, s, key, small) },
			ops: func(t *testing.T, s *Store) {
				get(s, "app", key)
				s.Delete("app", key)
				mustSet(t, s, key, small)
				get(s, "app", key)
			},
			held: func(t *testing.T, it item) {
				if it.node != nil {
					t.Fatalf("re-set record remembers node %p before its admission replayed", it.node)
				}
			},
		},
		{
			name:   "eviction and node reuse",
			before: func(t *testing.T, s *Store) { mustSet(t, s, key, small) },
			ops: func(t *testing.T, s *Store) {
				for i := 0; i < 40; i++ {
					mustSet(t, s, fmt.Sprintf("filler-%d", i), small)
				}
				get(s, "app", key) // the directory still holds it; the replay will not
			},
			after: func(t *testing.T, stale *cache.Node) {
				if stale.Key == "" || stale.Key == key {
					t.Fatalf("the key's node holds %q after the replay, want another key", stale.Key)
				}
			},
		},
		{
			name: "delete of a pending admission",
			ops: func(t *testing.T, s *Store) {
				mustSet(t, s, key, small)
				s.Delete("app", key)
			},
		},
		{
			name: "expiry of a pending admission",
			ops: func(t *testing.T, s *Store) {
				if err := setItem(s, "app", key, small, 0, 1); err != nil {
					t.Fatal(err)
				}
				clock.Add(2)
				get(s, "app", key) // sheds it as an expiry, then misses
			},
		},
		{
			name: "cross-class re-set of a pending admission",
			ops: func(t *testing.T, s *Store) {
				mustSet(t, s, key, small)
				mustSet(t, s, key, big)
				get(s, "app", key)
			},
			held: func(t *testing.T, it item) {
				if it.node != nil {
					t.Fatalf("re-set record remembers node %p, want none while its admission is pending", it.node)
				}
			},
		},
		{
			name: "set, get and delete in one window",
			ops: func(t *testing.T, s *Store) {
				mustSet(t, s, key, small)
				get(s, "app", key)
				s.Delete("app", key)
			},
		},
	}
	type outcome struct {
		classes                [][4]int64 // class, requests, hits, misses
		items                  int
		used                   int64
		sets, deletes, expired int64
	}
	run := func(t *testing.T, sc script, syncBk bool) outcome {
		clock.Store(1000)
		s := New(Config{DefaultMode: AllocCliffhanger, Cliffhanger: cfg, SyncBookkeeping: syncBk, Now: clock.Load})
		defer s.Close()
		if err := s.RegisterTenant("app", 16*64); err != nil {
			t.Fatal(err)
		}
		e, _ := s.entry("app")
		sh := shardFor(e, key)
		var stale *cache.Node
		if sc.before != nil {
			sc.before(t, s)
			s.Flush()
			sh.mu.Lock()
			stale = sh.items[key].node
			sh.mu.Unlock()
			if stale == nil {
				t.Fatal("a settled record remembers no node")
			}
		}
		// Only the asynchronous side holds the sweep: a synchronous request
		// applies its own events, and would wait on the held lock. Released
		// before Close settles the store, should the test fail with it held.
		release := func() {}
		if !syncBk {
			release = sync.OnceFunc(HoldSweep(s, "app"))
		}
		defer release()
		sc.ops(t, s)
		var rec item
		sh.mu.Lock()
		if it := sh.items[key]; it != nil {
			rec = *it
		}
		sh.mu.Unlock()
		release()
		if sc.held != nil && !syncBk {
			sc.held(t, rec)
		}
		s.Flush()
		if sc.after != nil && !syncBk {
			sc.after(t, stale)
		}
		if err := s.AuditConservation("app"); err != nil {
			t.Fatal(err)
		}
		st, err := s.Stats("app")
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{sets: st.Sets, deletes: st.Deletes, expired: st.Expired}
		for _, c := range st.Classes {
			out.classes = append(out.classes, [4]int64{int64(c.Class), c.Requests, c.Hits, c.Misses})
		}
		out.items, _ = s.Items("app")
		out.used, _ = s.UsedBytes("app")
		e.bk.mu.Lock()
		queued := queuedItems(e.tenant)
		e.bk.mu.Unlock()
		if queued != out.items {
			t.Fatalf("the queues hold %d resident entries, the directory %d records", queued, out.items)
		}
		return out
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			want, got := run(t, sc, true), run(t, sc, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("async: %+v; sync: %+v", got, want)
			}
			t.Logf("%+v", got)
		})
	}
}

func mustSet(t *testing.T, s *Store, key string, value []byte) {
	t.Helper()
	if err := set(s, "app", key, value); err != nil {
		t.Fatal(err)
	}
}
