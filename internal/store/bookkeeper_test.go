package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffhanger/internal/slab"
)

// TestSweepReplaysInStampOrder buffers admissions of distinct keys on their
// own shards, lets inline appliers take single shards' backlogs in between
// (which leaves holes in the stamps a sweep finds) and jumps the stamp counter
// by more than a sweep window, and requires that every sweep replays what is
// left in ascending stamp order: the class queue's recency order must be the
// order the model applied the keys in.
func TestSweepReplaysInStampOrder(t *testing.T) {
	s := New(Config{DefaultMode: AllocDefault, SyncBookkeeping: true})
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
	got := e.tenant.policy.(*classQueues).queues[class].Keys() // most recent first
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

// TestOneMaintenanceGoroutine registers twenty asynchronous tenants and
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
		t.Errorf("20 asynchronous tenants run %d goroutines beyond the %d before the store, want at most 1", g-base, base)
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

// TestProducerSweepsAtTheBatchBoundary checks the trigger and its bound with
// the maintenance tick held off, so every replay is a request's own. The GET
// whose event brings a shard to eventBatchSize returns with nothing buffered
// anywhere, and a GET below it sweeps nothing. Then, with every shard but one
// filled to just under the high-water mark while someone else holds the sweep,
// one GET replays all of it, no more than len(shards) × shardBufferHighWater
// events.
func TestProducerSweepsAtTheBatchBoundary(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger})
	defer s.Close()
	if err := s.RegisterTenant("app", 64<<20); err != nil {
		t.Fatal(err)
	}
	e, _ := s.entry("app")
	// One resident key per shard.
	keys := make([]string, len(e.shards))
	for i, filled := 0, 0; filled < len(keys); i++ {
		k := fmt.Sprintf("key-%d", i)
		if sh := shardFor(e, k); keys[sh.idx] == "" {
			keys[sh.idx] = k
			filled++
			if err := set(s, "app", k, make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Flush()
	defer HoldMaintenance(s)()
	replayed := func() int64 {
		e.bk.mu.Lock()
		defer e.bk.mu.Unlock()
		return e.tenant.requests
	}
	sum := func(n []int) (total int) {
		for _, v := range n {
			total += v
		}
		return total
	}

	rng := rand.New(rand.NewSource(1))
	boundaries := 0
	for i := 0; i < 20000; i++ {
		idx := rng.Intn(len(keys))
		before, sweeps := BufferedEvents(s, "app"), e.bk.sweeps.Load()
		get(s, "app", keys[idx])
		after := BufferedEvents(s, "app")
		if before[idx] == eventBatchSize-1 {
			boundaries++
			if n := sum(after); n != 0 || e.bk.sweeps.Load() != sweeps+1 {
				t.Fatalf("the GET that filled shard %d to %d left %d events buffered (%d sweeps, want %d)",
					idx, eventBatchSize, n, e.bk.sweeps.Load(), sweeps+1)
			}
		} else if after[idx] != before[idx]+1 || e.bk.sweeps.Load() != sweeps {
			t.Fatalf("a GET into shard %d at %d buffered events swept", idx, before[idx])
		}
	}
	if boundaries < 10 {
		t.Fatalf("only %d GETs reached the batch boundary", boundaries)
	}

	s.Flush()
	e.bk.sweepMu.Lock()
	for idx, k := range keys {
		want := shardBufferHighWater - 1
		if idx == 0 {
			want = eventBatchSize - 1
		}
		for BufferedEvents(s, "app")[idx] < want {
			get(s, "app", k)
		}
	}
	e.bk.sweepMu.Unlock()
	buffered, from := sum(BufferedEvents(s, "app")), replayed()
	get(s, "app", keys[0])
	n := replayed() - from
	if n != int64(buffered)+1 || sum(BufferedEvents(s, "app")) != 0 {
		t.Fatalf("the sweeping GET replayed %d of %d buffered events and its own", n, buffered)
	}
	if bound := int64(len(e.shards) * shardBufferHighWater); n > bound {
		t.Fatalf("one GET replayed %d events, bound %d", n, bound)
	}
}

// TestBacklogBoundedUnderOverload storms one asynchronous tenant with four
// producers. First three of them GET keys of one shard while a stand-in for a
// slow sweep holds the sweep and that shard's apply lock: the GET that fills
// the shard to the high-water mark waits to apply it inline, and every GET
// after it is shed. Then all four mix SETs, DELETEs and GETs over every
// shard. No shard may ever hold more than shardBufferHighWater events plus one
// per producer (a producer's event past the mark is applied before it makes
// another), every GET is either replayed or counted in DroppedEvents, and the
// conservation audit is clean afterwards.
func TestBacklogBoundedUnderOverload(t *testing.T) {
	const producers = 4
	s := New(Config{DefaultMode: AllocCliffhanger})
	defer s.Close()
	if err := s.RegisterTenant("app", 16<<20); err != nil {
		t.Fatal(err)
	}
	e, _ := s.entry("app")
	var hot, all []string
	for i := 0; len(hot) < 16 || i < 2048; i++ {
		k := fmt.Sprintf("key-%d", i)
		if i < 2048 {
			all = append(all, k)
		}
		if shardFor(e, k).idx == 0 {
			hot = append(hot, k)
		}
		if err := set(s, "app", k, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()

	var peak atomic.Int64
	sampling := make(chan struct{})
	sampled := make(chan struct{})
	stopSampling := sync.OnceFunc(func() { close(sampling); <-sampled })
	defer stopSampling()
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

	e.bk.sweepMu.Lock()
	e.shards[0].applyMu.Lock()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers-1; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; !stop.Load(); i++ {
				gets.Add(1)
				get(s, "app", hot[i%len(hot)])
			}
		}(p)
	}
	for deadline := time.Now().Add(20 * time.Second); e.bk.dropped.Load() < 1000 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	stop.Store(true)
	e.shards[0].applyMu.Unlock()
	e.bk.sweepMu.Unlock()
	wg.Wait()
	if n := e.bk.dropped.Load(); n < 1000 {
		t.Fatalf("only %d GETs shed in 20 s with the sweep held", n)
	}

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
	stopSampling()

	if bound := int64(shardBufferHighWater + producers); peak.Load() > bound {
		t.Errorf("a shard buffered %d events, bound %d", peak.Load(), bound)
	}
	st, err := s.Stats("app")
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedEvents == 0 || st.InlineApplies == 0 {
		t.Errorf("storm shed %d GETs and applied %d backlogs inline, want both > 0", st.DroppedEvents, st.InlineApplies)
	}
	if st.Requests+st.DroppedEvents != gets.Load() {
		t.Errorf("%d GETs replayed + %d shed != %d issued", st.Requests, st.DroppedEvents, gets.Load())
	}
	if err := s.AuditConservation("app"); err != nil {
		t.Fatal(err)
	}
}
