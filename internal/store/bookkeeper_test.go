package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/slab"
)

// TestSweepReplaysInStampOrder buffers admissions of distinct keys on their
// own shards, lets inline appliers take single shards' backlogs in between
// (which leaves holes in the stamps a sweep finds) and jumps the stamp counter
// by more than a sweep window, and requires that every sweep replays what is
// left in ascending stamp order: the class queue's recency order must be the
// order the model applied the keys in.
func TestSweepReplaysInStampOrder(t *testing.T) {
	s := New(Config{DefaultMode: AllocDefault, DefaultPolicy: cache.PolicyLRU, SyncBookkeeping: true})
	defer s.Close()
	if err := s.RegisterTenant("app", 64<<20); err != nil {
		t.Fatal(err)
	}
	e, _ := s.entry("app")
	bk := e.bk

	type buffered struct {
		key   string
		shard *valueShard
	}
	var waiting []buffered // buffered and not yet applied, in stamp order
	var want []string      // keys in the order the model applied them
	rng := rand.New(rand.NewSource(3))
	var sweeps, multiWindow int
	sweep := func() {
		if len(waiting) > 0 {
			sweeps++
		}
		for _, b := range waiting {
			want = append(want, b.key)
		}
		waiting = waiting[:0]
		bk.sweep()
	}
	const size = 50
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(1000); {
		case r < 960:
			key := fmt.Sprintf("key-%d", i)
			sh := shardFor(e, key)
			ev := event{kind: evAdmit, key: key, size: size}
			sh.mu.Lock()
			bk.bufferLocked(sh, &ev) // synchronous mode: stamped, buffered, left for us to apply
			sh.mu.Unlock()
			waiting = append(waiting, buffered{key, sh})
		case r < 990:
			sh := &e.shards[rng.Intn(len(e.shards))]
			waiting = slices.DeleteFunc(waiting, func(b buffered) bool {
				if b.shard == sh {
					want = append(want, b.key)
				}
				return b.shard == sh
			})
			bk.applyShard(sh)
		case r < 995:
			if len(waiting) > 0 {
				multiWindow++
			}
			bk.seq.Add(3 * sweepWindow)
		default:
			sweep()
		}
	}
	sweep()
	if sweeps < 10 || multiWindow < 10 {
		t.Fatalf("op stream too narrow: %d non-empty sweeps, %d stamp jumps over waiting events", sweeps, multiWindow)
	}

	class, _ := e.tenant.ClassFor(size)
	got := e.tenant.policy.(*classQueues).queues[class].(*cache.LRU).Keys() // most recent first
	slices.Reverse(got)
	if !slices.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("replay order diverges from stamp order at event %d of %d (%d replayed)", i, len(want), len(got))
			}
		}
		t.Fatalf("%d keys replayed, %d buffered", len(got), len(want))
	}
	for i, b := range bk.stolen {
		if b != nil {
			t.Fatalf("sweep left shard %d's stolen buffer in the scratch", i)
		}
	}
	if i := slices.IndexFunc(bk.slots, func(ev *event) bool { return ev != nil }); i >= 0 {
		t.Fatalf("sweep left slot %d pointing at an event", i)
	}
}

// TestReaperSkipsTenantsWithoutTTL checks the reaper's latch from both sides:
// a tenant that never stored a deadline is not scanned — its tick returns
// with every shard lock held by someone else — and the first deadline, given
// here by a touch, brings the background pass back.
func TestReaperSkipsTenantsWithoutTTL(t *testing.T) {
	var now atomic.Int64
	now.Store(1_000_000)
	s := New(Config{DefaultMode: AllocCliffhanger, Now: func() int64 { return now.Load() }})
	defer s.Close()
	if err := s.RegisterTenant("app", 4<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := set(s, "app", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	e, _ := s.entry("app")

	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		e.bk.reap()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("reap of a tenant that never stored a TTL waits for a shard lock")
	}
	for i := range e.shards {
		e.shards[i].mu.Unlock()
	}
	<-done

	for i := 0; i < 200; i++ {
		if ok, err := s.Touch("app", fmt.Sprintf("k%d", i), 10); !ok || err != nil {
			t.Fatalf("touch k%d = %v, %v", i, ok, err)
		}
	}
	now.Add(11)
	deadline := time.Now().Add(20 * time.Second)
	for {
		n, _ := s.Items("app")
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaper left %d expired items after 20s", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st, _ := s.Stats("app"); st.Expired != 200 {
		t.Fatalf("Expired = %d, want 200", st.Expired)
	}
}

// TestGetMissIsCountedAgainstTheKeyLengthClass: a GET the directory answers
// with a miss sends the bookkeeper no key, only the key's length. It must
// still count one request and one miss for the tenant and for the slab class
// of that length, whether the key was never stored or has just expired (its
// record, in a larger class, is shed in the same critical section), and must
// leave the class that held the expired record alone.
func TestGetMissIsCountedAgainstTheKeyLengthClass(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		t.Run(fmt.Sprintf("sync=%v", syncBk), func(t *testing.T) {
			var now atomic.Int64
			now.Store(1_000_000)
			s := New(Config{
				DefaultMode:     AllocCliffhanger,
				SyncBookkeeping: syncBk,
				Now:             func() int64 { return now.Load() },
			})
			defer s.Close()
			if err := s.RegisterTenant("app", 4<<20); err != nil {
				t.Fatal(err)
			}
			geom := slab.DefaultGeometry()
			const key = "expiring"
			value := make([]byte, 1000)
			keyClass, _ := geom.ClassFor(int64(len(key)))
			itemClass, _ := geom.ClassFor(int64(len(key) + len(value)))
			if keyClass == itemClass {
				t.Fatalf("key and item both land in class %d; the test needs them apart", keyClass)
			}
			if err := setItem(s, "app", key, value, 0, 10); err != nil {
				t.Fatal(err)
			}
			now.Add(10)
			for _, k := range []string{key, "unstored"} {
				if _, ok, _ := get(s, "app", k); ok {
					t.Fatalf("GET %s hit", k)
				}
			}
			st, err := s.Stats("app")
			if err != nil {
				t.Fatal(err)
			}
			if st.Requests != 2 || st.Misses != 2 || st.Hits != 0 || st.Expired != 1 {
				t.Fatalf("tenant counters %+v, want 2 requests, 2 misses, 1 expired", st)
			}
			for _, c := range st.Classes {
				want := int64(0)
				if c.Class == keyClass {
					want = 2
				}
				if c.Requests != want || c.Misses != want {
					t.Errorf("class %d: %d requests, %d misses, want %d of each", c.Class, c.Requests, c.Misses, want)
				}
			}
		})
	}
}
