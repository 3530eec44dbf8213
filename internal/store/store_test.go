package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/core"
	"cliffhanger/internal/slab"
)

func testConfig(mode AllocationMode, memoryMB int64) TenantConfig {
	return TenantConfig{
		Name:        "app",
		MemoryBytes: memoryMB << 20,
		Mode:        mode,
		Cliffhanger: core.DefaultConfig(),
	}
}

func TestAllocationModeString(t *testing.T) {
	names := map[AllocationMode]string{
		AllocDefault:      "default",
		AllocCliffhanger:  "cliffhanger",
		AllocStatic:       "static",
		AllocGlobalLRU:    "global-lru",
		AllocationMode(9): "unknown",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestNewTenantValidation(t *testing.T) {
	if _, err := NewTenant(TenantConfig{Name: "x"}); err == nil {
		t.Fatalf("zero memory should error")
	}
}

func TestTenantDefaultModeFCFSPages(t *testing.T) {
	cfg := testConfig(AllocDefault, 4)
	tenant, err := NewTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill with large items first: they should grab all the pages.
	for i := 0; i < 2000; i++ {
		tenant.Access(fmt.Sprintf("big%d", i), 16<<10)
	}
	// Now a small class arrives; with no free pages it is stuck with a
	// zero-capacity queue and every access misses (the FCFS pathology of §2).
	hits := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			if h, _ := tenant.Access(fmt.Sprintf("small%d", i), 64); h {
				hits++
			}
		}
	}
	if hits != 0 {
		t.Fatalf("small class should be starved under FCFS after large class grabbed all pages, got %d hits", hits)
	}
	bigClass, _ := tenant.ClassFor(16 << 10)
	if got := tenant.ClassCapacities()[bigClass]; got != 4<<20 {
		t.Fatalf("large class should own all 4 MiB, has %d", got)
	}
}

func TestTenantStaticModeRespectsBudgets(t *testing.T) {
	geom := slab.DefaultGeometry()
	smallClass, _ := geom.ClassFor(64)
	bigClass, _ := geom.ClassFor(16 << 10)
	cfg := testConfig(AllocStatic, 4)
	cfg.StaticClassBytes = map[int]int64{
		smallClass: 3 << 20,
		bigClass:   1 << 20,
	}
	tenant, err := NewTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tenant.Access(fmt.Sprintf("big%d", i), 16<<10)
		tenant.Access(fmt.Sprintf("small%d", i%1000), 64)
	}
	caps := tenant.ClassCapacities()
	if caps[smallClass] != 3<<20 || caps[bigClass] != 1<<20 {
		t.Fatalf("static capacities changed: %v", caps)
	}
	st := tenant.Stats()
	var smallHits int64
	for _, c := range st.Classes {
		if c.Class == smallClass {
			smallHits = c.Hits
		}
		if c.UsedBytes > c.CapacityBytes {
			t.Fatalf("class %d over budget: %d > %d", c.Class, c.UsedBytes, c.CapacityBytes)
		}
	}
	if smallHits == 0 {
		t.Fatalf("small class with a protected budget should get hits")
	}
}

func TestTenantGlobalLRUUsesItemSizes(t *testing.T) {
	cfg := testConfig(AllocGlobalLRU, 1)
	tenant, err := NewTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB budget; 256-byte items: ~4096 fit by exact size (vs 2048 if
	// charged a 512-byte chunk).
	for i := 0; i < 5000; i++ {
		tenant.Access(fmt.Sprintf("k%d", i), 256)
	}
	if used := tenant.UsedBytes(); used > 1<<20 {
		t.Fatalf("global LRU over budget: %d", used)
	}
	hits := 0
	for i := 1500; i < 5000; i++ {
		if h, _ := tenant.Access(fmt.Sprintf("k%d", i), 256); h {
			hits++
		}
	}
	if hits < 3000 {
		t.Fatalf("most recent ~4096 items should be resident under exact-size accounting, got %d/3500 hits", hits)
	}
}

func TestTenantCliffhangerModeShiftsMemory(t *testing.T) {
	cfg := testConfig(AllocCliffhanger, 2)
	cfg.Cliffhanger = core.Config{
		CreditBytes:        4096,
		ShadowBytes:        256 << 10,
		CliffShadowItems:   128,
		TailWindowItems:    128,
		CliffMinItems:      1000,
		ResizeOnMissOnly:   true,
		EnableHillClimbing: true,
		EnableCliffScaling: true,
		Seed:               1,
	}
	tenant, err := NewTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tenant.Manager() == nil {
		t.Fatalf("cliffhanger tenant should expose its manager")
	}
	geom := slab.DefaultGeometry()
	smallClass, _ := geom.ClassFor(64)
	rng := rand.New(rand.NewSource(2))
	// The small class has a working set larger than its equal share; the
	// large class has a tiny working set. Hill climbing should move memory
	// toward the small class.
	before := tenant.ClassCapacities()[smallClass]
	for i := 0; i < 300000; i++ {
		if rng.Float64() < 0.9 {
			tenant.Access(fmt.Sprintf("s%d", rng.Intn(12000)), 64)
		} else {
			tenant.Access(fmt.Sprintf("b%d", rng.Intn(20)), 8<<10)
		}
	}
	after := tenant.ClassCapacities()[smallClass]
	if after <= before {
		t.Fatalf("small class capacity should grow under Cliffhanger: before %d after %d", before, after)
	}
	st := tenant.Stats()
	if st.HitRate() < 0.3 {
		t.Fatalf("hit rate %.3f unexpectedly low", st.HitRate())
	}
}

func TestTenantLookupDoesNotAdmit(t *testing.T) {
	for _, mode := range []AllocationMode{AllocDefault, AllocStatic, AllocGlobalLRU, AllocCliffhanger} {
		cfg := testConfig(mode, 2)
		cfg.StaticClassBytes = map[int]int64{0: 1 << 20}
		tenant, err := NewTenant(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// An unknown key reaches the tenant as a miss event, with no key.
		if hit, _ := tenant.lookup(evLookup, "", nil, 64); hit {
			t.Fatalf("%v: lookup of unknown key should miss", mode)
		}
		// A second lookup must still miss: GETs never admit.
		if hit, _ := tenant.lookup(evLookup, "", nil, 64); hit {
			t.Fatalf("%v: GET must not admit keys", mode)
		}
		tenant.Admit("real", 64)
		node := tenant.nodeOf("real", 64)
		if hit, _ := tenant.lookup(evLookup, "real", node, 64); !hit {
			t.Fatalf("%v: admitted key should hit", mode)
		}
		if !tenant.remove(evRemove, "real", node, 64) {
			t.Fatalf("%v: delete of resident key should succeed", mode)
		}
		if hit, _ := tenant.lookup(evLookup, "real", node, 64); hit {
			t.Fatalf("%v: deleted key should miss", mode)
		}
	}
}

func TestTenantOversizedItemRejected(t *testing.T) {
	tenant, err := NewTenant(testConfig(AllocDefault, 4))
	if err != nil {
		t.Fatal(err)
	}
	victims := tenant.Admit("huge", 2<<20)
	if len(victims) != 1 || victims[0].Key != "huge" {
		t.Fatalf("oversized item should bounce back as its own victim, got %v", victims)
	}
	if hit, _ := tenant.Access("huge2", 2<<20); hit {
		t.Fatalf("oversized access cannot hit")
	}
}

func TestTenantStatsShape(t *testing.T) {
	tenant, err := NewTenant(testConfig(AllocDefault, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tenant.Access(fmt.Sprintf("a%d", i%300), 100)
		tenant.Access(fmt.Sprintf("b%d", i%50), 4000)
	}
	st := tenant.Stats()
	if st.Requests != 2000 || st.Hits+st.Misses != 2000 {
		t.Fatalf("stats totals wrong: %+v", st)
	}
	if len(st.Classes) < 2 {
		t.Fatalf("expected at least two active classes, got %d", len(st.Classes))
	}
	var reqSum int64
	for _, c := range st.Classes {
		reqSum += c.Requests
		if c.Hits+c.Misses != c.Requests {
			t.Fatalf("class %d counters inconsistent: %+v", c.Class, c)
		}
	}
	if reqSum != st.Requests {
		t.Fatalf("per-class requests (%d) do not sum to total (%d)", reqSum, st.Requests)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("hit rate should be positive")
	}
}

func TestStoreBasicOperations(t *testing.T) {
	s := New(Config{DefaultMode: AllocDefault})
	if err := s.RegisterTenant("app1", 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTenant("app1", 4<<20); err == nil {
		t.Fatalf("duplicate registration should fail")
	}
	if err := s.RegisterTenant("", 4<<20); err == nil {
		t.Fatalf("empty tenant name should fail")
	}
	if _, _, err := get(s, "nope", "k"); err == nil {
		t.Fatalf("unknown tenant should error")
	}
	if err := set(s, "app1", "hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := get(s, "app1", "hello")
	if err != nil || !ok || string(v) != "world" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := get(s, "app1", "missing"); ok {
		t.Fatalf("missing key should not be found")
	}
	it, ok, err := getItem(s, "app1", "hello")
	cas1 := it.CAS
	if err != nil || !ok || cas1 == 0 {
		t.Fatalf("gets = %v %v %v", cas1, ok, err)
	}
	if err := set(s, "app1", "hello", []byte("world2")); err != nil {
		t.Fatal(err)
	}
	if it, _, _ := getItem(s, "app1", "hello"); it.CAS == cas1 {
		t.Fatalf("CAS token should change on update")
	}
	if deleted, _ := s.Delete("app1", "hello"); !deleted {
		t.Fatalf("delete should report true")
	}
	if deleted, _ := s.Delete("app1", "hello"); deleted {
		t.Fatalf("second delete should report false")
	}
	if names := s.Tenants(); len(names) != 1 || names[0] != "app1" {
		t.Fatalf("Tenants = %v", names)
	}
}

func TestStoreEvictionDropsValues(t *testing.T) {
	s := New(Config{DefaultMode: AllocDefault})
	if err := s.RegisterTenant("app", 1<<20); err != nil {
		t.Fatal(err)
	}
	// Write far more data than fits: ~1 MiB of 1 KiB chunk items.
	for i := 0; i < 4000; i++ {
		if err := set(s, "app", fmt.Sprintf("k%d", i), make([]byte, 900)); err != nil {
			t.Fatal(err)
		}
	}
	items, _ := s.Items("app")
	if items == 0 || items > 1100 {
		t.Fatalf("resident items = %d, want roughly 1024 (1 MiB of 1 KiB chunks)", items)
	}
	used, _ := s.UsedBytes("app")
	if used > 1<<20 {
		t.Fatalf("used bytes %d exceed the 1 MiB reservation", used)
	}
	// The most recently written keys should be present, the oldest gone.
	if _, ok, _ := get(s, "app", "k3999"); !ok {
		t.Fatalf("most recent key should be resident")
	}
	if _, ok, _ := get(s, "app", "k0"); ok {
		t.Fatalf("oldest key should have been evicted")
	}
	st, _ := s.Stats("app")
	if st.Sets != 4000 {
		t.Fatalf("Sets = %d, want 4000", st.Sets)
	}
}

// TestStoreRejectsOversizedValues: an object no chunk can hold is refused
// with the same error by every storage verb in every mode, global LRU
// included (it charges by the byte but stores in chunks like everyone else),
// and the refusal leaves the key's previous value alone.
func TestStoreRejectsOversizedValues(t *testing.T) {
	for _, mode := range []AllocationMode{AllocDefault, AllocCliffhanger, AllocGlobalLRU, AllocMemshare} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New(Config{DefaultMode: mode, SyncBookkeeping: true})
			defer s.Close()
			s.RegisterTenant("app", 8<<20)
			huge := make([]byte, (1<<20)+1-len("big")) // one byte past the largest chunk
			if err := set(s, "app", "big", huge[:len(huge)-1]); err != nil {
				t.Fatalf("an object of exactly the largest chunk must fit: %v", err)
			}
			want := errTooLarge("big", 1<<20+1).Error()
			if err := set(s, "app", "big", huge); err == nil || err.Error() != want {
				t.Fatalf("set: err = %v, want %q", err, want)
			}
			if _, err := s.Add("app", []byte("other"), make([]byte, 2<<20), 0, 0); err == nil {
				t.Fatalf("add above the largest chunk must be rejected")
			}
			if _, err := s.Replace("app", []byte("big"), huge, 0, 0); err == nil || err.Error() != want {
				t.Fatalf("replace: err = %v, want %q", err, want)
			}
			if _, err := appendTo(s, "app", "big", []byte("x"), false); err == nil || err.Error() != want {
				t.Fatalf("append: err = %v, want %q", err, want)
			}
			if v, ok, _ := get(s, "app", "big"); !ok || len(v) != len(huge)-1 {
				t.Fatalf("a refused write disturbed the stored value: ok=%v len=%d", ok, len(v))
			}
			auditArena(t, s, "app")
		})
	}
}

func TestStoreFlushTenant(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger})
	defer s.Close()
	s.RegisterTenant("app", 4<<20)
	for i := 0; i < 100; i++ {
		set(s, "app", fmt.Sprintf("k%d", i), []byte("v"))
	}
	if err := s.FlushAll("app", 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Items("app"); n != 0 {
		t.Fatalf("flush left %d items", n)
	}
	if _, ok, _ := get(s, "app", "k1"); ok {
		t.Fatalf("flushed key should be gone")
	}
	if used, _ := s.UsedBytes("app"); used != 0 {
		t.Fatalf("flush left %d used bytes", used)
	}
	if err := s.FlushAll("ghost", 0); err == nil {
		t.Fatalf("flush of unknown tenant should error")
	}
}

// TestStoreDelayedFlushAll pins the memcached flush_all <delay> semantics:
// nothing dies before the deadline; once it passes, every item last written
// before it is invalid — including items written after the command — while
// items written after the deadline survive. A later flush_all replaces the
// pending one.
func TestStoreDelayedFlushAll(t *testing.T) {
	clock := int64(1000)
	s := New(Config{
		DefaultMode:     AllocCliffhanger,
		SyncBookkeeping: true,
		Now:             func() int64 { return clock },
	})
	defer s.Close()
	s.RegisterTenant("app", 4<<20)

	set(s, "app", "before", []byte("v"))
	if err := s.FlushAll("app", 5); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := get(s, "app", "before"); !ok {
		t.Fatalf("item must survive until the flush deadline")
	}
	// Written after the command but before the deadline: dies at the
	// deadline, per memcached's oldest_live rule.
	clock = 1002
	set(s, "app", "during", []byte("v"))

	clock = 1005 // deadline reached
	if _, ok, _ := get(s, "app", "before"); ok {
		t.Fatalf("item from before the flush must be invalid after the deadline")
	}
	if _, ok, _ := get(s, "app", "during"); ok {
		t.Fatalf("item written before the deadline must be invalid too")
	}
	set(s, "app", "after", []byte("v"))
	if _, ok, _ := get(s, "app", "after"); !ok {
		t.Fatalf("item written after the deadline must survive")
	}
	st, _ := s.Stats("app")
	if st.Expired < 2 {
		t.Fatalf("flush-killed records should count as expired, got %d", st.Expired)
	}

	// A replacement flush supersedes the pending one: arm a far deadline,
	// then flush immediately — the pending deadline must be cleared so new
	// writes survive it.
	if err := s.FlushAll("app", 3600); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll("app", 0); err != nil {
		t.Fatal(err)
	}
	set(s, "app", "fresh", []byte("v"))
	clock = 1005 + 3600
	if _, ok, _ := get(s, "app", "fresh"); !ok {
		t.Fatalf("immediate flush must cancel the pending delayed deadline")
	}

	// Mutations see the flush too: a dead record is not appendable.
	clock = 10000
	set(s, "app", "mut", []byte("v"))
	if err := s.FlushAll("app", 5); err != nil {
		t.Fatal(err)
	}
	clock = 10005
	if ok, _ := appendTo(s, "app", "mut", []byte("x"), false); ok {
		t.Fatalf("append must miss a flush-killed record")
	}
	if err := s.FlushAll("ghost", 5); err == nil {
		t.Fatalf("flush of unknown tenant should error")
	}
}

// TestStoreDelayedFlushReaper checks the background reaper sheds
// flush-killed records without any read touching them.
func TestStoreDelayedFlushReaper(t *testing.T) {
	clock := atomic.Int64{}
	clock.Store(100)
	s := New(Config{
		DefaultMode: AllocCliffhanger,
		Now:         func() int64 { return clock.Load() },
	})
	defer s.Close()
	s.RegisterTenant("app", 4<<20)
	for i := 0; i < 200; i++ {
		set(s, "app", fmt.Sprintf("k%d", i), []byte("v"))
	}
	if err := s.FlushAll("app", 5); err != nil {
		t.Fatal(err)
	}
	clock.Store(105)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, _ := s.Items("app")
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaper left %d flush-killed items", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger})
	for i := 0; i < 4; i++ {
		if err := s.RegisterTenant(fmt.Sprintf("app%d", i), 2<<20); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			tenant := fmt.Sprintf("app%d", worker%4)
			for i := 0; i < 5000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(2000))
				switch rng.Intn(10) {
				case 0:
					s.Delete(tenant, key)
				case 1, 2, 3:
					set(s, tenant, key, make([]byte, 64+rng.Intn(512)))
				default:
					get(s, tenant, key)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		tenant := fmt.Sprintf("app%d", i)
		used, err := s.UsedBytes(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if used > 2<<20 {
			t.Fatalf("%s over budget after concurrent load: %d", tenant, used)
		}
		st, _ := s.Stats(tenant)
		if st.Requests == 0 {
			t.Fatalf("%s recorded no requests", tenant)
		}
	}
}

// TestStoreValueConsistencyWithQueues checks the critical invariant binding
// the layers: once bookkeeping has settled, every value held by the store is
// tracked as resident by the tenant's queues and vice versa (no leaked
// values after evictions).
func TestStoreValueConsistencyWithQueues(t *testing.T) {
	for _, mode := range []AllocationMode{AllocDefault, AllocCliffhanger, AllocGlobalLRU} {
		for _, syncBk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sync=%v", mode, syncBk), func(t *testing.T) {
				s := New(Config{DefaultMode: mode, SyncBookkeeping: syncBk})
				defer s.Close()
				if err := s.RegisterTenant("app", 1<<20); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 20000; i++ {
					key := fmt.Sprintf("k%d", rng.Intn(5000))
					switch rng.Intn(10) {
					case 0:
						s.Delete("app", key)
					default:
						set(s, "app", key, make([]byte, 200+rng.Intn(800)))
					}
				}
				s.Flush()
				e, _ := s.entry("app")
				type kv struct {
					key  string
					size int64
					node *cache.Node
				}
				var held []kv
				for i := range e.shards {
					sh := &e.shards[i]
					sh.mu.Lock()
					for key, it := range sh.items {
						held = append(held, kv{key, it.size, it.node})
					}
					sh.mu.Unlock()
				}
				e.bk.mu.Lock()
				defer e.bk.mu.Unlock()
				// Every stored value's key must still be resident in its
				// class queue, through the node its record remembers.
				missing := 0
				for _, h := range held {
					if class, _ := e.tenant.ClassFor(h.size); !e.tenant.queues[class].Holds(h.key, h.node) {
						missing++
					}
				}
				if missing > 0 {
					t.Fatalf("%d stored values are not resident in the tenant queues", missing)
				}
				// With the item directory emitting re-admit events, a re-set
				// key never leaves a stale entry in its old class queue, so
				// settled queues track exactly one entry per held value.
				items := queuedItems(e.tenant)
				if items != len(held) {
					t.Fatalf("queues track %d items but store holds %d values", items, len(held))
				}
			})
		}
	}
}

// TestStoreSyncBookkeeping exercises the deterministic inline path: the
// does-not-fit error is reported synchronously and no settling is needed.
func TestStoreSyncBookkeeping(t *testing.T) {
	s := New(Config{DefaultMode: AllocDefault, SyncBookkeeping: true})
	defer s.Close()
	if err := s.RegisterTenant("app", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := set(s, "app", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := get(s, "app", "k"); !ok {
		t.Fatalf("value should be resident")
	}
	st, _ := s.Stats("app")
	if st.Sets != 1 || st.Requests != 1 {
		t.Fatalf("sync bookkeeping should settle immediately: %+v", st)
	}
}

// TestStoreAsyncDoesNotFitDropsValue checks the asynchronous counterpart of
// the does-not-fit error: the set succeeds but the value is dropped once the
// bookkeeper settles the bounced admission.
func TestStoreAsyncDoesNotFitDropsValue(t *testing.T) {
	// A tiny tenant whose largest class cannot hold a near-1-MiB object
	// within its reservation: the admission bounces.
	geom := slab.DefaultGeometry()
	s := New(Config{DefaultMode: AllocDefault, Geometry: geom})
	defer s.Close()
	if err := s.RegisterTenant("tiny", 128<<10); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 512<<10)
	if err := set(s, "tiny", "big", big); err != nil {
		t.Fatalf("async set should not report fit errors: %v", err)
	}
	s.Flush()
	if _, ok, _ := get(s, "tiny", "big"); ok {
		t.Fatalf("bounced admission should have dropped the value")
	}
}

// TestStoreSnapshotsRaceWithTraffic hammers one hot tenant from several
// goroutines while concurrently taking stats and queue snapshots; run under
// -race this verifies the bookkeeper serializes all structural access.
func TestStoreSnapshotsRaceWithTraffic(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger})
	defer s.Close()
	if err := s.RegisterTenant("hot", 4<<20); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", rng.Intn(4000))
				switch rng.Intn(10) {
				case 0:
					s.Delete("hot", key)
				case 1, 2:
					set(s, "hot", key, make([]byte, 64+rng.Intn(900)))
				default:
					get(s, "hot", key)
				}
			}
		}(w)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Stats("hot"); err != nil {
			t.Error(err)
		}
		snaps, _, err := s.QueueSnapshots("hot")
		if err != nil {
			t.Error(err)
		}
		var total int64
		for _, q := range snaps {
			total += q.Capacity
		}
		if total == 0 {
			t.Error("snapshot reports zero total capacity")
		}
		if _, err := s.UsedBytes("hot"); err != nil {
			t.Error(err)
		}
		if _, err := s.ClassCapacities("hot"); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkStoreGetSet measures hot-path Get/Set throughput (90% GET / 10%
// SET over a resident working set) on a single hot tenant at increasing
// goroutine counts, on the byte-keyed entry points the server drives
// (GetItemView, SetItemBytes): reads hand out a zero-copy epoch-pinned view
// of the arena chunk — the shard lock is held only for the directory probe —
// and writes land in recycled chunks. With the striped value shards and
// off-path bookkeeping the per-goroutine streams only meet on the shared
// event channel once per batch, so throughput scales with cores (the
// interesting ratio is goroutines=8 vs goroutines=1 ns/op on a machine with
// >= 8 cores).
func BenchmarkStoreGetSet(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			s := New(Config{DefaultMode: AllocCliffhanger})
			defer s.Close()
			if err := s.RegisterTenant("hot", 256<<20); err != nil {
				b.Fatal(err)
			}
			value := make([]byte, 256)
			const nKeys = 1 << 15
			keys := make([][]byte, nKeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key-%d", i))
				if err := s.SetItemBytes("hot", keys[i], value, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			s.Flush()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/g + 1
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					var sink byte
					// Stride through a worker-private region of the keyspace
					// so goroutines rarely collide on one key.
					idx := worker * (nKeys / 8)
					for i := 0; i < per; i++ {
						k := keys[(idx+i*7)&(nKeys-1)]
						if i%10 == 0 {
							s.SetItemBytes("hot", k, value, 0, 0)
						} else {
							view, ok, _ := s.GetItemView("hot", k)
							if ok {
								// Touch the borrowed bytes the way the server's
								// writer would consume them.
								sink ^= view.Value[len(view.Value)-1]
								view.Release()
							}
						}
					}
					_ = sink
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkStoreReadMostly is the zero-copy read-path benchmark: 99% GET /
// 1% SET over a resident working set, all reads through GetItemView. Because
// the shard lock is now held only for the directory probe (the value bytes
// are consumed after unlock, under an epoch pin), multi-goroutine runs
// measure how much the shortened critical section buys under read-dominated
// contention — compare ns/op across the goroutine counts against
// BenchmarkStoreGetSet's 90/10 mix.
func BenchmarkStoreReadMostly(b *testing.B) {
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			s := New(Config{DefaultMode: AllocCliffhanger})
			defer s.Close()
			if err := s.RegisterTenant("hot", 256<<20); err != nil {
				b.Fatal(err)
			}
			value := make([]byte, 256)
			const nKeys = 1 << 15
			keys := make([][]byte, nKeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key-%d", i))
				if err := s.SetItemBytes("hot", keys[i], value, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			s.Flush()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/g + 1
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					var sink byte
					idx := worker * (nKeys / 8)
					for i := 0; i < per; i++ {
						k := keys[(idx+i*7)&(nKeys-1)]
						if i%100 == 0 {
							s.SetItemBytes("hot", k, value, 0, 0)
						} else {
							view, ok, _ := s.GetItemView("hot", k)
							if ok {
								sink ^= view.Value[len(view.Value)-1]
								view.Release()
							}
						}
					}
					_ = sink
				}(w)
			}
			wg.Wait()
		})
	}
}

func BenchmarkStoreSetGetDefault(b *testing.B) {
	benchmarkStore(b, AllocDefault)
}

func BenchmarkStoreSetGetCliffhanger(b *testing.B) {
	benchmarkStore(b, AllocCliffhanger)
}

func benchmarkStore(b *testing.B, mode AllocationMode) {
	s := New(Config{DefaultMode: mode})
	if err := s.RegisterTenant("app", 64<<20); err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 256)
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		set(s, "app", keys[i], value)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		if i%10 == 0 {
			set(s, "app", k, value)
		} else {
			get(s, "app", k)
		}
	}
}

// TestStoreCrossClassReSet is the regression test for the stale-entry bug:
// re-setting a key at a size that maps to a different slab class must leave
// exactly one structural entry, charge UsedBytes for the new class only, and
// free everything on delete — in both bookkeeping modes and all layouts.
func TestStoreCrossClassReSet(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		for _, mode := range []AllocationMode{AllocDefault, AllocCliffhanger, AllocGlobalLRU} {
			t.Run(fmt.Sprintf("%s/sync=%v", mode, syncBk), func(t *testing.T) {
				s := New(Config{DefaultMode: mode, SyncBookkeeping: syncBk})
				defer s.Close()
				if err := s.RegisterTenant("app", 4<<20); err != nil {
					t.Fatal(err)
				}
				if err := set(s, "app", "k", make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
				// 4 KiB maps to the 8 KiB chunk class, which a cold
				// Cliffhanger queue can admit without growing first.
				large := make([]byte, 4<<10)
				if err := set(s, "app", "k", large); err != nil {
					t.Fatal(err)
				}
				s.Flush()
				e, _ := s.entry("app")
				size := int64(len("k") + len(large))
				class, _ := e.tenant.ClassFor(size)
				want := e.tenant.cost(class, size)
				e.bk.mu.Lock()
				items := queuedItems(e.tenant)
				used := e.tenant.UsedBytes()
				e.bk.mu.Unlock()
				if items != 1 {
					t.Fatalf("cross-class re-set left %d structural entries, want 1", items)
				}
				if used != want {
					t.Fatalf("UsedBytes = %d, want the new charge %d", used, want)
				}
				if v, ok, _ := get(s, "app", "k"); !ok || len(v) != len(large) {
					t.Fatalf("re-set value not readable: ok=%v len=%d", ok, len(v))
				}
				if deleted, _ := s.Delete("app", "k"); !deleted {
					t.Fatalf("delete should find the key")
				}
				s.Flush()
				if used, _ := s.UsedBytes("app"); used != 0 {
					t.Fatalf("delete left %d used bytes", used)
				}
				if n, _ := s.Items("app"); n != 0 {
					t.Fatalf("delete left %d items", n)
				}
			})
		}
	}
}

// TestStoreCrossClassReSetConcurrent hammers a small key set with re-sets
// alternating between two slab classes from many goroutines (run under
// -race in CI); once settled, the structural entries, the item records and
// UsedBytes must agree exactly.
func TestStoreCrossClassReSetConcurrent(t *testing.T) {
	for _, syncBk := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncBk), func(t *testing.T) {
			s := New(Config{DefaultMode: AllocCliffhanger, SyncBookkeeping: syncBk})
			defer s.Close()
			if err := s.RegisterTenant("app", 16<<20); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(worker)))
					for i := 0; i < 3000; i++ {
						key := fmt.Sprintf("k%d", rng.Intn(200))
						switch rng.Intn(4) {
						case 0:
							set(s, "app", key, make([]byte, 64))
						case 1:
							set(s, "app", key, make([]byte, 8<<10))
						case 2:
							get(s, "app", key)
						default:
							s.Delete("app", key)
						}
					}
				}(w)
			}
			wg.Wait()
			s.Flush()
			e, _ := s.entry("app")
			var (
				held     int
				wantUsed int64
			)
			for i := range e.shards {
				sh := &e.shards[i]
				sh.mu.Lock()
				for _, it := range sh.items {
					held++
					class, _ := e.tenant.ClassFor(it.size)
					wantUsed += e.tenant.cost(class, it.size)
				}
				sh.mu.Unlock()
			}
			e.bk.mu.Lock()
			items := queuedItems(e.tenant)
			used := e.tenant.UsedBytes()
			e.bk.mu.Unlock()
			if items != held {
				t.Fatalf("queues track %d entries but store holds %d records", items, held)
			}
			if used != wantUsed {
				t.Fatalf("UsedBytes = %d but live records charge %d", used, wantUsed)
			}
		})
	}
}

// TestStoreExpiry covers the lazy TTL path: relative and absolute deadlines,
// immediate expiry, touch extensions, and the expired counter — in both
// bookkeeping modes, against a stubbed clock.
func TestStoreExpiry(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		t.Run(fmt.Sprintf("sync=%v", syncBk), func(t *testing.T) {
			var now atomic.Int64
			now.Store(1_000_000)
			s := New(Config{
				DefaultMode:     AllocDefault,
				SyncBookkeeping: syncBk,
				Now:             func() int64 { return now.Load() },
			})
			defer s.Close()
			if err := s.RegisterTenant("app", 4<<20); err != nil {
				t.Fatal(err)
			}
			if err := setItem(s, "app", "k", []byte("v"), 7, 50); err != nil {
				t.Fatal(err)
			}
			it, ok, _ := getItem(s, "app", "k")
			if !ok || it.Flags != 7 || string(it.Value) != "v" {
				t.Fatalf("live item = %+v ok=%v", it, ok)
			}
			now.Add(49)
			if _, ok, _ := get(s, "app", "k"); !ok {
				t.Fatalf("item expired early")
			}
			now.Add(1)
			if _, ok, _ := get(s, "app", "k"); ok {
				t.Fatalf("item must expire at its deadline")
			}
			s.Flush()
			if used, _ := s.UsedBytes("app"); used != 0 {
				t.Fatalf("expiry left %d used bytes", used)
			}
			st, _ := s.Stats("app")
			if st.Expired != 1 {
				t.Fatalf("Expired = %d, want 1", st.Expired)
			}
			if st.Deletes != 0 {
				t.Fatalf("expiry must not count as a delete: %d", st.Deletes)
			}

			// exptime 0 never expires; negative exptime is already dead.
			if err := setItem(s, "app", "forever", []byte("v"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := setItem(s, "app", "dead", []byte("v"), 0, -1); err != nil {
				t.Fatal(err)
			}
			now.Add(maxRelativeExpiry + 1)
			if _, ok, _ := get(s, "app", "forever"); !ok {
				t.Fatalf("exptime 0 must never expire")
			}
			if _, ok, _ := get(s, "app", "dead"); ok {
				t.Fatalf("negative exptime must be dead on arrival")
			}

			// Large exptimes are absolute unix timestamps.
			deadline := now.Load() + 100
			if err := setItem(s, "app", "abs", []byte("v"), 0, deadline); err != nil {
				t.Fatal(err)
			}
			now.Store(deadline - 1)
			if _, ok, _ := get(s, "app", "abs"); !ok {
				t.Fatalf("absolute deadline expired early")
			}
			now.Store(deadline)
			if _, ok, _ := get(s, "app", "abs"); ok {
				t.Fatalf("absolute deadline not honored")
			}

			// Touch extends a TTL and reports missing keys.
			if err := setItem(s, "app", "t", []byte("v"), 0, 10); err != nil {
				t.Fatal(err)
			}
			if found, _ := s.Touch("app", []byte("t"), 500); !found {
				t.Fatalf("touch should find the key")
			}
			now.Add(100)
			if _, ok, _ := get(s, "app", "t"); !ok {
				t.Fatalf("touched key should outlive its original TTL")
			}
			if found, _ := s.Touch("app", []byte("missing"), 500); found {
				t.Fatalf("touch of a missing key should report false")
			}
		})
	}
}

// TestStoreExpiryReaper checks that the background reaper reclaims expired
// items without any client access: the maintenance tick's incremental scan
// must shed them within a few sweep intervals.
func TestStoreExpiryReaper(t *testing.T) {
	var now atomic.Int64
	now.Store(1_000_000)
	s := New(Config{
		DefaultMode: AllocDefault,
		Now:         func() int64 { return now.Load() },
	})
	defer s.Close()
	if err := s.RegisterTenant("app", 4<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := setItem(s, "app", fmt.Sprintf("k%d", i), []byte("v"), 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if n, _ := s.Items("app"); n != 500 {
		t.Fatalf("expected 500 live items, got %d", n)
	}
	now.Add(11)
	// Generous deadline: under -race on a loaded single-CPU box the
	// maintenance ticks (and with them the reaper passes) can be starved
	// for whole seconds.
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
	if used, _ := s.UsedBytes("app"); used != 0 {
		t.Fatalf("reaper left %d used bytes", used)
	}
	st, _ := s.Stats("app")
	if st.Expired != 500 {
		t.Fatalf("Expired = %d, want 500", st.Expired)
	}
}

// TestStoreVerbSemantics exercises the memcached storage-verb semantics at
// the store layer with deterministic synchronous bookkeeping.
func TestStoreVerbSemantics(t *testing.T) {
	s := New(Config{DefaultMode: AllocDefault, SyncBookkeeping: true})
	defer s.Close()
	if err := s.RegisterTenant("app", 4<<20); err != nil {
		t.Fatal(err)
	}

	// add: stored only when absent.
	if stored, _ := s.Add("app", []byte("a"), []byte("1"), 0, 0); !stored {
		t.Fatalf("add of fresh key should store")
	}
	if stored, _ := s.Add("app", []byte("a"), []byte("2"), 0, 0); stored {
		t.Fatalf("add of existing key should not store")
	}
	if v, _, _ := get(s, "app", "a"); string(v) != "1" {
		t.Fatalf("failed add clobbered the value: %q", v)
	}

	// replace: stored only when present.
	if stored, _ := s.Replace("app", []byte("missing"), []byte("x"), 0, 0); stored {
		t.Fatalf("replace of missing key should not store")
	}
	if stored, _ := s.Replace("app", []byte("a"), []byte("3"), 9, 0); !stored {
		t.Fatalf("replace of existing key should store")
	}
	it, _, _ := getItem(s, "app", "a")
	if string(it.Value) != "3" || it.Flags != 9 {
		t.Fatalf("replace result = %+v", it)
	}

	// append/prepend: concatenate, keep flags, fail on missing keys.
	if ok, _ := appendTo(s, "app", "missing", []byte("x"), false); ok {
		t.Fatalf("append to missing key should fail")
	}
	if ok, _ := appendTo(s, "app", "a", []byte("-tail"), false); !ok {
		t.Fatalf("append should succeed")
	}
	if ok, _ := appendTo(s, "app", "a", []byte("head-"), true); !ok {
		t.Fatalf("prepend should succeed")
	}
	it, _, _ = getItem(s, "app", "a")
	if string(it.Value) != "head-3-tail" || it.Flags != 9 {
		t.Fatalf("append/prepend result = %q flags=%d", it.Value, it.Flags)
	}

	// cas: stored with the current token, EXISTS after a mutation,
	// NOT_FOUND for absent keys.
	cas := it.CAS
	if res, _ := s.CompareAndSwap("app", []byte("a"), []byte("swapped"), 0, 0, cas); res != CASStored {
		t.Fatalf("cas with current token = %v", res)
	}
	if res, _ := s.CompareAndSwap("app", []byte("a"), []byte("late"), 0, 0, cas); res != CASExists {
		t.Fatalf("cas with stale token = %v", res)
	}
	if res, _ := s.CompareAndSwap("app", []byte("missing"), []byte("x"), 0, 0, 1); res != CASNotFound {
		t.Fatalf("cas of missing key = %v", res)
	}
	if v, _, _ := get(s, "app", "a"); string(v) != "swapped" {
		t.Fatalf("cas result = %q", v)
	}

	// incr/decr: uint64 arithmetic clamped at zero, NOT_FOUND on missing,
	// ErrNotNumeric on garbage.
	set(s, "app", "n", []byte("10"))
	if v, found, err := s.Incr("app", []byte("n"), 5); err != nil || !found || v != 15 {
		t.Fatalf("incr = %d %v %v", v, found, err)
	}
	if v, found, err := s.Decr("app", []byte("n"), 100); err != nil || !found || v != 0 {
		t.Fatalf("decr should clamp at zero: %d %v %v", v, found, err)
	}
	if _, found, _ := s.Incr("app", []byte("missing"), 1); found {
		t.Fatalf("incr of missing key should report not found")
	}
	if _, _, err := s.Incr("app", []byte("a"), 1); err != ErrNotNumeric {
		t.Fatalf("incr of non-numeric value = %v", err)
	}

	// touch accounting is separate from the GET hit rate.
	before, _ := s.Stats("app")
	if found, _ := s.Touch("app", []byte("n"), 0); !found {
		t.Fatalf("touch should find the key")
	}
	if found, _ := s.Touch("app", []byte("missing"), 0); found {
		t.Fatalf("touch of missing key should report false")
	}
	after, _ := s.Stats("app")
	if after.Requests != before.Requests {
		t.Fatalf("touch must not count into GET requests: %d -> %d", before.Requests, after.Requests)
	}
	if after.Touches != before.Touches+2 || after.TouchHits != before.TouchHits+1 {
		t.Fatalf("touch counters = %d/%d, want %d/%d", after.Touches, after.TouchHits, before.Touches+2, before.TouchHits+1)
	}

	for _, sync := range []bool{true, false} {
		name := "states/async"
		if sync {
			name = "states/sync"
		}
		t.Run(name, func(t *testing.T) {
			verbStateTable(t, func(now func() int64) (verbCache, func()) {
				s := New(Config{DefaultMode: AllocDefault, SyncBookkeeping: sync, Now: now})
				release := HoldMaintenance(s)
				if err := s.RegisterTenant("app", 4<<20); err != nil {
					t.Fatal(err)
				}
				return s, func() { release(); s.Close() }
			})
		})
	}
}

// verbOutcome is what one write verb did to a tenant: its reply as the wire
// would carry it, the counters it moved and the records held afterwards (each
// one charged one chunk of the same class).
type verbOutcome struct {
	reply                                      string
	sets, expired, deletes, touches, touchHits int64
	items                                      int
}

// verbStateTable runs every write verb against the four states the record of
// its key can be in when it arrives: absent, live, dead by its TTL, and dead
// by a delayed flush_all whose deadline has passed. A dead record is still in
// the directory; every verb but SET sheds it as an expiry and then acts as on
// an absent key, while SET writes over it without counting an expiry. The
// asynchronous store is read after Flush (Stats, Items and UsedBytes settle),
// with the maintenance tick held so the reaper cannot shed a dead record
// before the verb arrives. open gives a fresh 4 MiB AllocDefault tenant "app"
// on the clock now, a Store's or the reference's, and the func that closes it.
func verbStateTable(t *testing.T, open func(now func() int64) (verbCache, func())) {
	const key = "k"
	recordCAS := func(s verbCache) uint64 { return casOf(s, key) }
	stored := func(ok bool, err error) string {
		switch {
		case err != nil:
			return "ERROR " + err.Error()
		case ok:
			return "STORED"
		}
		return "NOT_STORED"
	}
	found := func(ok bool, err error, yes string) string {
		switch {
		case err != nil:
			return "ERROR " + err.Error()
		case ok:
			return yes
		}
		return "NOT_FOUND"
	}
	number := func(n uint64, ok bool, err error) string { return found(ok, err, fmt.Sprint(n)) }
	cas := func(res CASResult, err error) string {
		if err != nil {
			return "ERROR " + err.Error()
		}
		return [...]string{CASStored: "STORED", CASExists: "EXISTS", CASNotFound: "NOT_FOUND"}[res]
	}
	v := []byte("77")
	states := []string{"absent", "live", "dead by TTL", "dead by flush_all"}
	rows := []struct {
		verb string
		do   func(s verbCache) string
		want [4]verbOutcome
	}{
		{"set", func(s verbCache) string { return stored(true, setItem(s, "app", key, v, 0, 0)) }, [4]verbOutcome{
			{"STORED", 1, 0, 0, 0, 0, 1}, {"STORED", 1, 0, 0, 0, 0, 1}, {"STORED", 1, 0, 0, 0, 0, 1}, {"STORED", 1, 0, 0, 0, 0, 1}}},
		{"add", func(s verbCache) string { return stored(s.Add("app", []byte(key), v, 0, 0)) }, [4]verbOutcome{
			{"STORED", 1, 0, 0, 0, 0, 1}, {"NOT_STORED", 0, 0, 0, 0, 0, 1}, {"STORED", 1, 1, 0, 0, 0, 1}, {"STORED", 1, 1, 0, 0, 0, 1}}},
		{"replace", func(s verbCache) string { return stored(s.Replace("app", []byte(key), v, 0, 0)) }, [4]verbOutcome{
			{"NOT_STORED", 0, 0, 0, 0, 0, 0}, {"STORED", 1, 0, 0, 0, 0, 1}, {"NOT_STORED", 0, 1, 0, 0, 0, 0}, {"NOT_STORED", 0, 1, 0, 0, 0, 0}}},
		{"cas", func(s verbCache) string { return cas(s.CompareAndSwap("app", []byte(key), v, 0, 0, recordCAS(s))) }, [4]verbOutcome{
			{"NOT_FOUND", 0, 0, 0, 0, 0, 0}, {"STORED", 1, 0, 0, 0, 0, 1}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}}},
		{"cas wrong token", func(s verbCache) string { return cas(s.CompareAndSwap("app", []byte(key), v, 0, 0, recordCAS(s)+1)) }, [4]verbOutcome{
			{"NOT_FOUND", 0, 0, 0, 0, 0, 0}, {"EXISTS", 0, 0, 0, 0, 0, 1}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}}},
		{"append", func(s verbCache) string { return stored(appendTo(s, "app", key, []byte("5"), false)) }, [4]verbOutcome{
			{"NOT_STORED", 0, 0, 0, 0, 0, 0}, {"STORED", 1, 0, 0, 0, 0, 1}, {"NOT_STORED", 0, 1, 0, 0, 0, 0}, {"NOT_STORED", 0, 1, 0, 0, 0, 0}}},
		{"prepend", func(s verbCache) string { return stored(appendTo(s, "app", key, []byte("5"), true)) }, [4]verbOutcome{
			{"NOT_STORED", 0, 0, 0, 0, 0, 0}, {"STORED", 1, 0, 0, 0, 0, 1}, {"NOT_STORED", 0, 1, 0, 0, 0, 0}, {"NOT_STORED", 0, 1, 0, 0, 0, 0}}},
		{"incr", func(s verbCache) string { return number(s.Incr("app", []byte(key), 1)) }, [4]verbOutcome{
			{"NOT_FOUND", 0, 0, 0, 0, 0, 0}, {"11", 1, 0, 0, 0, 0, 1}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}}},
		{"decr", func(s verbCache) string { return number(s.Decr("app", []byte(key), 1)) }, [4]verbOutcome{
			{"NOT_FOUND", 0, 0, 0, 0, 0, 0}, {"9", 1, 0, 0, 0, 0, 1}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}}},
		{"touch", func(s verbCache) string { ok, err := s.Touch("app", []byte(key), 0); return found(ok, err, "TOUCHED") }, [4]verbOutcome{
			{"NOT_FOUND", 0, 0, 0, 1, 0, 0}, {"TOUCHED", 0, 0, 0, 1, 1, 1}, {"NOT_FOUND", 0, 1, 0, 1, 0, 0}, {"NOT_FOUND", 0, 1, 0, 1, 0, 0}}},
		{"delete", func(s verbCache) string { ok, err := s.Delete("app", key); return found(ok, err, "DELETED") }, [4]verbOutcome{
			{"NOT_FOUND", 0, 0, 0, 0, 0, 0}, {"DELETED", 0, 0, 1, 0, 0, 0}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}, {"NOT_FOUND", 0, 1, 0, 0, 0, 0}}},
	}
	chunk := slab.DefaultGeometry().ChunkSize(0)
	for _, row := range rows {
		for i, state := range states {
			clock := int64(1000)
			s, done := open(func() int64 { return clock })
			if state != "absent" {
				exptime := int64(0)
				if state == "dead by TTL" {
					exptime = 10
				}
				if err := setItem(s, "app", key, []byte("10"), 0, exptime); err != nil {
					t.Fatal(err)
				}
			}
			if state == "dead by flush_all" {
				if err := s.FlushAll("app", 10); err != nil {
					t.Fatal(err)
				}
			}
			if state == "dead by TTL" || state == "dead by flush_all" {
				clock += 20
			}
			before, _ := s.Stats("app")
			reply := row.do(s)
			s.Flush()
			after, _ := s.Stats("app")
			items, _ := s.Items("app")
			used, _ := s.UsedBytes("app")
			got := verbOutcome{reply, after.Sets - before.Sets, after.Expired - before.Expired,
				after.Deletes - before.Deletes, after.Touches - before.Touches, after.TouchHits - before.TouchHits, items}
			if want := row.want[i]; got != want || used != int64(items)*chunk {
				t.Errorf("%s on a %s record: got %+v, %d bytes used; want %+v, %d bytes used",
					row.verb, state, got, used, want, int64(want.items)*chunk)
			}
			done()
		}
	}
}

// TestTenantSelfBounceNotCountedAsEviction pins the fix for classEvict: an
// item too big for its queue bounces back as its own victim and must not
// count as an eviction.
func TestTenantSelfBounceNotCountedAsEviction(t *testing.T) {
	geom := slab.DefaultGeometry()
	bigClass, _ := geom.ClassFor(16 << 10)
	cfg := testConfig(AllocStatic, 4)
	// Give the big class a budget below one chunk so every admission
	// bounces.
	cfg.StaticClassBytes = map[int]int64{bigClass: 1}
	tenant, err := NewTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victims := tenant.Admit("big", 16<<10)
	if len(victims) != 1 || victims[0].Key != "big" {
		t.Fatalf("expected a self-bounce, got %v", victims)
	}
	for _, c := range tenant.Stats().Classes {
		if c.Evictions != 0 {
			t.Fatalf("self-bounce counted as eviction in class %d: %+v", c.Class, c)
		}
	}
	// A real eviction of a neighbor still counts.
	small := testConfig(AllocStatic, 4)
	smallClass, _ := geom.ClassFor(64)
	small.StaticClassBytes = map[int]int64{smallClass: geom.ChunkSize(smallClass)}
	tenant2, err := NewTenant(small)
	if err != nil {
		t.Fatal(err)
	}
	tenant2.Admit("one", 64)
	tenant2.Admit("two", 64)
	var evictions int64
	for _, c := range tenant2.Stats().Classes {
		evictions += c.Evictions
	}
	if evictions != 1 {
		t.Fatalf("evicting a neighbor should count once, got %d", evictions)
	}
}

// queuedItems totals the structural entries across the tenant's queues. The
// caller must hold the bookkeeper's mutex or have quiesced the store.
func queuedItems(t *Tenant) int {
	total := 0
	for _, q := range t.queues {
		total += q.Items()
	}
	return total
}
