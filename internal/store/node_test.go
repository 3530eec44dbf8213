package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/core"
)

// TestHitResizeVictimsAreDropped: with ResizeOnMissOnly off (the ablation
// core.Config calls it) a GET hit applies a pending resize, and whatever that
// evicts must leave the directory the way an admission's victims do. A
// GET-else-SET mix over four item sizes in a 2 MiB tenant keeps hill-climbing
// resizes pending; at both settings, with and without the maintenance
// goroutine, it must end with a clean conservation audit and one directory
// record per queue entry.
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

// TestStaleNodesThroughStore makes requests, one store call a goroutine,
// while the tenant's accounting lock is held (pendingWindow), so their events
// sit buffered behind one another the way a request's do between its unlock
// and its apply while another connection's apply holds the lock. Their
// records' queue nodes go stale, or have none, before the events replay:
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
// Each must settle to what the same calls hold made one after the other:
// per-class hits and misses, Items, UsedBytes, the removal counters and a
// clean conservation audit, with no resident queue entry left that has no
// record. Every key a script uses hashes to one shard, so that its events
// replay in the order they were made.
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
	var fillers []string   // keys on key's shard
	for i := 0; len(fillers) < 40; i++ {
		if k := fmt.Sprintf("filler-%d", i); cache.Hash(k)&(valueShards-1) == cache.Hash(key)&(valueShards-1) {
			fillers = append(fillers, k)
		}
	}

	type op = func(t *testing.T, s *Store)
	setOp := func(k string, v []byte, exptime int64) op {
		return func(t *testing.T, s *Store) {
			if err := setItem(s, "app", k, v, 0, exptime); err != nil {
				t.Error(err)
			}
		}
	}
	getOp := func(t *testing.T, s *Store) { get(s, "app", key) }
	deleteOp := func(t *testing.T, s *Store) { s.Delete("app", key) }
	type script struct {
		name string
		// before, if any, runs settled first; ops are the calls made, each
		// on its own goroutine in the held run. held checks the key's record
		// as it was once every op had buffered, after the node it had before
		// (held run only).
		before func(t *testing.T, s *Store)
		ops    []op
		held   func(t *testing.T, it item)
		after  func(t *testing.T, stale *cache.Node)
	}
	noNode := func(t *testing.T, it item) {
		if it.node != nil {
			t.Fatalf("re-set record remembers node %p, want none while its admission is pending", it.node)
		}
	}
	evicting := make([]op, 0, len(fillers)+1)
	for _, k := range fillers {
		evicting = append(evicting, setOp(k, small, 0))
	}
	cases := []script{
		{
			name:   "cross-class re-set",
			before: setOp(key, small, 0),
			ops:    []op{getOp, setOp(key, big, 0), getOp}, // through the class-0 node, then class 1 with no node yet
			held:   noNode,
		},
		{
			name:   "delete and re-set",
			before: setOp(key, small, 0),
			ops:    []op{getOp, deleteOp, setOp(key, small, 0), getOp},
			held:   noNode,
		},
		{
			name:   "eviction and node reuse",
			before: setOp(key, small, 0),
			ops:    append(evicting, getOp), // the directory still holds it; the replay will not
			after: func(t *testing.T, stale *cache.Node) {
				if stale.Key == "" || stale.Key == key {
					t.Fatalf("the key's node holds %q after the replay, want another key", stale.Key)
				}
			},
		},
		{
			name: "delete of a pending admission",
			ops:  []op{setOp(key, small, 0), deleteOp},
		},
		{
			name: "expiry of a pending admission",
			ops: []op{setOp(key, small, 1), func(t *testing.T, s *Store) {
				clock.Add(2)
				get(s, "app", key) // sheds it as an expiry, then misses
			}},
		},
		{
			name: "cross-class re-set of a pending admission",
			ops:  []op{setOp(key, small, 0), setOp(key, big, 0), getOp},
			held: noNode,
		},
		{
			name: "set, get and delete in one window",
			ops:  []op{setOp(key, small, 0), getOp, deleteOp},
		},
	}
	type outcome struct {
		classes                [][4]int64 // class, requests, hits, misses
		items                  int
		used                   int64
		sets, deletes, expired int64
	}
	run := func(t *testing.T, sc script, held bool) outcome {
		clock.Store(1000)
		s := New(Config{DefaultMode: AllocCliffhanger, Cliffhanger: cfg, SyncBookkeeping: true, Now: clock.Load})
		defer s.Close()
		if err := s.RegisterTenant("app", 16*64); err != nil {
			t.Fatal(err)
		}
		e, _ := s.entry("app")
		sh := shardFor(e, key)
		var stale *cache.Node
		if sc.before != nil {
			sc.before(t, s)
			sh.mu.Lock()
			stale = sh.items[key].node
			sh.mu.Unlock()
			if stale == nil {
				t.Fatal("a settled record remembers no node")
			}
		}
		if !held {
			for _, op := range sc.ops {
				op(t, s)
			}
		} else {
			ops := make([]func(), len(sc.ops))
			for i, op := range sc.ops {
				ops[i] = func() { op(t, s) }
			}
			release := pendingWindow(s, "app", ops...)
			var rec item
			sh.mu.Lock()
			if it := sh.items[key]; it != nil {
				rec = *it
			}
			sh.mu.Unlock()
			release()
			if sc.held != nil {
				sc.held(t, rec)
			}
			if sc.after != nil {
				sc.after(t, stale)
			}
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
			want, got := run(t, sc, false), run(t, sc, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("held: %+v; one after the other: %+v", got, want)
			}
			t.Logf("%+v", got)
		})
	}
}
