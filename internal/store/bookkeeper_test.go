package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffhanger/internal/slab"
)

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
		if ok, err := s.Touch("app", []byte(fmt.Sprintf("k%d", i)), 10); !ok || err != nil {
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

// TestOneMaintenanceGoroutine registers twenty tenants of a store that runs
// its maintenance goroutine and
// requires that they cost the store one goroutine between them, not one each,
// and that deleting them all and closing the store leaves no goroutine behind.
func TestOneMaintenanceGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{DefaultMode: AllocCliffhanger})
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("app%d", i)
		if err := s.RegisterTenant(name, 1<<20); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 100; k++ {
			if err := set(s, name, fmt.Sprintf("k%d", k), []byte("v")); err != nil {
				t.Fatal(err)
			}
			get(s, name, fmt.Sprintf("k%d", k))
		}
	}
	if g := runtime.NumGoroutine(); g > base+1 {
		t.Errorf("20 tenants run %d goroutines beyond the %d before the store, want at most 1", g-base, base)
	}
	for i := 0; i < 20; i++ {
		if err := s.DeleteTenant(fmt.Sprintf("app%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestBacklogBoundedUnderOverload storms one tenant with four producers
// mixing SETs, DELETEs and GETs over every shard. Every request applies its
// own events before it returns, so a shard never holds more than the events
// of the sections in flight on it: one section per producer, each of at most
// two events (an expiry and its own). Every GET is replayed or served within
// its window (both count in Requests), some within it, and the conservation
// audit is clean afterwards.
func TestBacklogBoundedUnderOverload(t *testing.T) {
	const producers = 4
	s := New(Config{DefaultMode: AllocCliffhanger})
	defer s.Close()
	if err := s.RegisterTenant("app", 16<<20); err != nil {
		t.Fatal(err)
	}
	var all []string
	for i := 0; i < 2048; i++ {
		k := fmt.Sprintf("key-%d", i)
		all = append(all, k)
		if err := set(s, "app", k, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}

	var peak atomic.Int64
	sampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-sampling:
				return
			default:
			}
			for _, n := range BufferedEvents(s, "app") {
				if int64(n) > peak.Load() {
					peak.Store(int64(n))
				}
			}
		}
	}()
	var gets atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 10000; i++ {
				k := all[rng.Intn(len(all))]
				switch r := rng.Intn(10); {
				case r < 5:
					if err := set(s, "app", k, make([]byte, 50+rng.Intn(200))); err != nil {
						t.Error(err)
						return
					}
				case r < 6:
					s.Delete("app", k)
				default:
					gets.Add(1)
					get(s, "app", k)
				}
			}
		}(p)
	}
	wg.Wait()
	close(sampling)
	<-sampled

	if bound := int64(2 * producers); peak.Load() > bound {
		t.Errorf("a shard buffered %d events, bound %d", peak.Load(), bound)
	}
	st, err := s.Stats("app")
	if err != nil {
		t.Fatal(err)
	}
	if st.HitsUnpromoted == 0 {
		t.Errorf("no GET hit was served within its window")
	}
	if st.Requests != gets.Load() {
		t.Errorf("%d GETs replayed or within their window (%d of them) != %d issued",
			st.Requests, st.HitsUnpromoted, gets.Load())
	}
	if err := s.AuditConservation("app"); err != nil {
		t.Fatal(err)
	}
}

// applies reads how many times the tenant's shards have been applied.
func applies(e *tenantEntry) int64 {
	e.bk.mu.Lock()
	defer e.bk.mu.Unlock()
	return e.bk.applies
}

// TestFlushIsNotOverload: flush_all of a loaded tenant removes each shard's
// records in one critical section, and that section applies once, so the
// flush takes bk.mu once per shard, not once per record. The maintenance tick
// is held off so that every apply counted is the flush's. Afterwards the
// tenant holds nothing and its conservation audit is clean.
func TestFlushIsNotOverload(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger})
	defer s.Close()
	if err := s.RegisterTenant("app", 64<<20); err != nil {
		t.Fatal(err)
	}
	const records = 100000
	value := make([]byte, 100)
	for i := 0; i < records; i++ {
		if err := set(s, "app", fmt.Sprintf("key-%d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	defer HoldMaintenance(s)()
	if n, _ := s.Items("app"); n != records {
		t.Fatalf("%d of %d records resident before the flush", n, records)
	}
	e, _ := s.entry("app")
	before := applies(e)
	if err := s.FlushAll("app", 0); err != nil {
		t.Fatal(err)
	}
	if n, bound := applies(e)-before, int64(len(e.shards)); n > bound {
		t.Errorf("one flush of %d records applied %d times, want at most %d", records, n, bound)
	}
	if n, _ := s.Items("app"); n != 0 {
		t.Errorf("%d records survived the flush", n)
	}
	if err := s.AuditConservation("app"); err != nil {
		t.Fatal(err)
	}
}

// TestOneSectionSettlesOnce: an add over a TTL-dead record buffers two events
// in one critical section, the dead record's expiry and the add's admission,
// and the section applies its shard once, not once per event, leaving
// nothing buffered on the shard.
func TestOneSectionSettlesOnce(t *testing.T) {
	var now atomic.Int64
	now.Store(1_000_000)
	s := New(Config{DefaultMode: AllocCliffhanger, Now: func() int64 { return now.Load() }})
	defer s.Close()
	if err := s.RegisterTenant("app", 64<<20); err != nil {
		t.Fatal(err)
	}
	const key = "dying"
	if err := setItem(s, "app", key, []byte("old"), 0, 10); err != nil {
		t.Fatal(err)
	}
	defer HoldMaintenance(s)()
	e, _ := s.entry("app")
	now.Add(10)
	before := applies(e)
	if stored, err := s.Add("app", []byte(key), []byte("new"), 0, 0); !stored || err != nil {
		t.Fatalf("add over a dead record = %v, %v", stored, err)
	}
	if n := applies(e) - before; n != 1 {
		t.Errorf("one add that buffered an expiry and an admission applied %d times, want 1", n)
	}
	if n := BufferedEvents(s, "app")[shardFor(e, key).idx]; n != 0 {
		t.Errorf("the add left %d events buffered on its shard", n)
	}
	st, _ := s.Stats("app")
	if st.Expired != 1 {
		t.Errorf("Expired = %d, want 1", st.Expired)
	}
	if v, ok, _ := get(s, "app", key); !ok || string(v) != "new" {
		t.Errorf("get after the add = %q, %v", v, ok)
	}
}
