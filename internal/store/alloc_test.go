package store

import (
	"fmt"
	"testing"
)

// TestAllocGateStoreGet pins the allocation floor of the byte-keyed GET path
// with synchronous bookkeeping (the deterministic mode, where every
// structural event is applied inline rather than buffered):
//
//   - hit:  0 allocations — the map lookup rides the alloc-free m[string(b)]
//     form, the lookup event reuses the record's interned key string, and
//     the value is borrowed through an epoch pin, not copied;
//   - miss: 0 allocations — the lookup event carries no key, only the key
//     length, and the tenant counts it without probing a queue.
//
// `make alloccheck` runs this as the hot-path allocation gate; a regression
// here fails CI rather than a future benchmark run.
func TestAllocGateStoreGet(t *testing.T) {
	s := New(Config{
		DefaultMode:     AllocCliffhanger,
		SyncBookkeeping: true,
	})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 256)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		if err := set(s, "hot", string(keys[i]), value); err != nil {
			t.Fatal(err)
		}
	}

	var i int
	hitAllocs := testing.AllocsPerRun(2000, func() {
		k := keys[i&(len(keys)-1)]
		i++
		v, ok, err := s.GetItemView("hot", k)
		if err != nil || !ok || len(v.Value) != len(value) {
			t.Fatalf("get hit = %v %v", ok, err)
		}
		v.Release()
	})
	if hitAllocs != 0 {
		t.Errorf("GetItemView hit allocates %.2f objects/op, want 0", hitAllocs)
	}

	missKey := []byte("no-such-key")
	missAllocs := testing.AllocsPerRun(2000, func() {
		if _, ok, err := s.GetItemView("hot", missKey); err != nil || ok {
			t.Fatalf("get miss = %v %v", ok, err)
		}
	})
	if missAllocs != 0 {
		t.Errorf("GetItemView miss allocates %.2f objects/op, want 0 (the miss event carries no key)", missAllocs)
	}
}

// TestAllocGateStoreSet pins the SET floor under the slab arena: re-setting
// a resident key allocates NOTHING — the interned key string, the item
// record and the value chunk are all reused, and the value bytes are copied
// into the chunk under the shard lock. Before the arena this path allocated
// 2 objects per op (a fresh value copy plus a fresh record), all of it GC
// churn under write-heavy traffic.
func TestAllocGateStoreSet(t *testing.T) {
	s := New(Config{
		DefaultMode:     AllocCliffhanger,
		SyncBookkeeping: true,
	})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	key := []byte("steady-key")
	value := make([]byte, 256)
	if err := s.SetItemBytes("hot", key, value, 0, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := s.SetItemBytes("hot", key, value, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SetItemBytes re-set allocates %.2f objects/op, want 0 (chunk and record recycled)", allocs)
	}
}

// TestAllocGateStoreSetCrossClass pins the cross-class re-set floor: a SET
// that moves a key between slab classes frees the old chunk and pops one
// from the new class's freelist — after the two classes' freelists warm up,
// alternating between them allocates nothing.
func TestAllocGateStoreSetCrossClass(t *testing.T) {
	s := New(Config{
		DefaultMode:     AllocCliffhanger,
		SyncBookkeeping: true,
	})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	key := []byte("cross-class-key")
	small := make([]byte, 100) // 128 B chunk class
	large := make([]byte, 900) // 1 KiB chunk class
	for i := 0; i < 4; i++ {   // warm both classes' freelists
		if err := s.SetItemBytes("hot", key, small, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.SetItemBytes("hot", key, large, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	allocs := testing.AllocsPerRun(2000, func() {
		v := small
		if i++; i&1 == 0 {
			v = large
		}
		if err := s.SetItemBytes("hot", key, v, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cross-class re-set allocates %.2f objects/op, want 0 (chunks swapped through freelists)", allocs)
	}
}

// TestAllocGateStoreAppend pins the append/prepend floor: every append and
// prepend assembles the concatenation in a fresh chunk popped from the
// freelist (copy-on-write, so epoch-pinned readers never observe a torn
// value) while the old chunk cycles through quarantine back to the
// freelist, so a steady-state append loop — re-set to the base value,
// append a suffix, prepend a prefix — allocates nothing.
func TestAllocGateStoreAppend(t *testing.T) {
	s := New(Config{
		DefaultMode:     AllocCliffhanger,
		SyncBookkeeping: true,
	})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	key := []byte("append-key")
	base := make([]byte, 200) // 512 B chunk: room for the suffix and prefix
	extra := []byte("0123456789abcdef")
	if err := s.SetItemBytes("hot", key, base, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBytes("hot", key, extra); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := s.SetItemBytes("hot", key, base, 0, 0); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.AppendBytes("hot", key, extra); err != nil || !ok {
			t.Fatalf("append = %v %v", ok, err)
		}
		if ok, err := s.PrependBytes("hot", key, extra); err != nil || !ok {
			t.Fatalf("prepend = %v %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("set+append+prepend loop allocates %.2f objects/op, want 0 (in-chunk assembly)", allocs)
	}
}

// TestAllocGateStoreDelete pins the delete/re-set churn floor: a delete
// returns the chunk and record to the freelists and the following SET takes
// them back, so a churning set/delete loop settles at 1 alloc/op — only the
// key string re-interned at each fresh insertion.
func TestAllocGateStoreDelete(t *testing.T) {
	s := New(Config{
		DefaultMode:     AllocCliffhanger,
		SyncBookkeeping: true,
	})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	key := []byte("churn-key")
	value := make([]byte, 256)
	allocs := testing.AllocsPerRun(2000, func() {
		if err := s.SetItemBytes("hot", key, value, 0, 0); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.Delete("hot", "churn-key"); err != nil || !ok {
			t.Fatalf("delete = %v %v", ok, err)
		}
	})
	if allocs > 1 {
		t.Errorf("set+delete churn allocates %.2f objects/op, want <= 1 (the re-interned key string)", allocs)
	}
}

// TestColdClassFirstAdmissionSticks is the regression test for the ROADMAP
// open item: the first admission into a cold Cliffhanger class whose chunk
// size exceeds MinQueueBytes (2 credits = 8 KiB on default config) used to
// bounce once, because the freshly granted page was only applied to the
// queue's partitions after the insert. With the eager resize on page growth
// the very first SET of a big value must succeed, be resident, and be
// served by the following GET — in both bookkeeping modes.
func TestColdClassFirstAdmissionSticks(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		name := "async"
		if syncBk {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			s := New(Config{
				DefaultMode:     AllocCliffhanger,
				SyncBookkeeping: syncBk,
			})
			defer s.Close()
			if err := s.RegisterTenant("app", 64<<20); err != nil {
				t.Fatal(err)
			}
			// 12 KiB value -> 16 KiB chunk class, twice the 8 KiB
			// MinQueueBytes floor a cold queue starts at. The first set used
			// to fail outright in sync mode ("does not fit") and silently
			// drop in async mode.
			big := make([]byte, 12<<10)
			if err := set(s, "app", "big-key", big); err != nil {
				t.Fatalf("first admission into a cold big-chunk class bounced: %v", err)
			}
			s.Flush()
			v, ok, err := get(s, "app", "big-key")
			if err != nil || !ok || len(v) != len(big) {
				t.Fatalf("big key not resident after first set: ok=%v err=%v", ok, err)
			}
			used, err := s.UsedBytes("app")
			if err != nil {
				t.Fatal(err)
			}
			if used < 16<<10 {
				t.Fatalf("UsedBytes = %d, want at least one 16 KiB chunk", used)
			}
			// An even larger class (64 KiB chunk) on the same tenant.
			if err := set(s, "app", "bigger-key", make([]byte, 60<<10)); err != nil {
				t.Fatalf("cold 64 KiB class bounced: %v", err)
			}
			s.Flush()
			if _, ok, _ := get(s, "app", "bigger-key"); !ok {
				t.Fatalf("64 KiB chunk key not resident after first set")
			}
		})
	}
}

// TestSetItemBytesCopiesValue pins the ownership contract: the store must not
// retain the caller's (reusable) key and value buffers.
func TestSetItemBytesCopiesValue(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		s := New(Config{DefaultMode: AllocDefault, SyncBookkeeping: syncBk})
		if err := s.RegisterTenant("app", 8<<20); err != nil {
			t.Fatal(err)
		}
		key := []byte("shared-buffer-key")
		value := []byte("first")
		if err := s.SetItemBytes("app", key, value, 7, 0); err != nil {
			t.Fatal(err)
		}
		copy(value, "XXXXX") // simulate the parse buffer being reused
		key[0] = 'Z'
		it, ok, err := getItem(s, "app", "shared-buffer-key")
		if err != nil || !ok {
			t.Fatalf("get after buffer reuse = %v %v", ok, err)
		}
		if string(it.Value) != "first" || it.Flags != 7 {
			t.Fatalf("store retained caller buffers: %q flags=%d", it.Value, it.Flags)
		}
		s.Close()
	}
}

// TestAllocGateSweep pins the sweep at 0 allocations per call in the steady
// state: shard buffers are stolen and handed back, the union is ordered in
// scratch the bookkeeper keeps, and nothing is copied or sorted. The burst is
// a pipelined batch's worth of GET-hit events on every shard, with the
// hundredth stamp skipped the way an inline applier leaves holes. The tenant
// is a default-mode one so that the replay itself is a plain LRU promotion,
// which never allocates.
func TestAllocGateSweep(t *testing.T) {
	s := New(Config{DefaultMode: AllocDefault, SyncBookkeeping: true})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	e, _ := s.entry("hot")
	var items []*item
	for i := 0; i < 32*len(e.shards); i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := set(s, "hot", key, make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
		items = append(items, shardFor(e, key).items[key])
	}
	burst := func() {
		for i, it := range items {
			if i%100 == 99 {
				e.bk.seq.Add(1)
			}
			sh := shardFor(e, it.key)
			ev := event{kind: evLookup, key: it.key, size: it.size}
			sh.mu.Lock()
			e.bk.bufferLocked(sh, &ev)
			sh.act = actNone // synchronous mode: buffered, left for the sweep
			sh.mu.Unlock()
		}
		e.bk.sweep()
	}
	burst() // each shard swaps two buffers; AllocsPerRun's own warm-up grows the second
	allocs := testing.AllocsPerRun(200, burst)
	if allocs != 0 {
		t.Errorf("a sweep of %d events allocates %.2f objects, want 0", len(items), allocs)
	}
	st, _ := s.Stats("hot")
	if want := int64(202 * len(items)); st.Hits != want {
		t.Errorf("sweeps replayed %d hits, want %d", st.Hits, want)
	}
}

// TestAllocGateGetHitWithinWindow pins the GET hit that emits no event at 0
// allocations, in both bookkeeping modes: one key read over and over, so that
// after the first read no stamp separates a hit from the key's last
// promotion, and each is counted in its shard instead. The tenant holds
// enough keys for each partition's front segment to outnumber its tail window,
// so that the window is not 0.
func TestAllocGateGetHitWithinWindow(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		s := New(Config{DefaultMode: AllocCliffhanger, SyncBookkeeping: syncBk})
		if err := s.RegisterTenant("hot", 64<<20); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1024; i++ {
			if err := set(s, "hot", fmt.Sprintf("key-%d", i), make([]byte, 256)); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
		key := []byte("key-0")
		read := func() {
			v, ok, err := s.GetItemView("hot", key)
			if err != nil || !ok {
				t.Fatalf("get hit = %v %v", ok, err)
			}
			v.Release()
		}
		read()
		allocs := testing.AllocsPerRun(2000, read)
		st, _ := s.Stats("hot")
		if allocs != 0 || st.HitsUnpromoted < 2000 {
			t.Errorf("sync=%v: a GET hit within its window allocates %.2f objects, want 0; %d of %d hits within it",
				syncBk, allocs, st.HitsUnpromoted, st.Hits)
		}
		s.Close()
	}
}

// TestAllocGateAsyncGetSweeps pins the producer-side sweep at 0 allocations:
// an asynchronous store's GET-hit loop in which every shard crosses the batch
// boundary, so requests inside the measured loop replay every shard's events
// themselves. The maintenance tick is held off so every sweep is a request's.
// The hit window is held at 0, so that every GET hit emits its event: most of
// the loop's would be within it.
func TestAllocGateAsyncGetSweeps(t *testing.T) {
	defer SetHitWindowOff(true)()
	s := New(Config{DefaultMode: AllocCliffhanger})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		if err := set(s, "hot", string(keys[i]), make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	defer HoldMaintenance(s)()
	e, _ := s.entry("hot")
	const perRun = 64 * eventBatchSize
	run := func() {
		for i := 0; i < perRun; i++ {
			v, ok, err := s.GetItemView("hot", keys[i%len(keys)])
			if err != nil || !ok {
				t.Fatalf("get hit = %v %v", ok, err)
			}
			v.Release()
		}
	}
	// Each shard's two buffers grow to the most events they ever hold
	// between sweeps. Where a sweep starts in the 64-key cycle fixes where the
	// next one does, so the sweeps settle into a cycle of at most 64 starts
	// (128 with the two buffers swapping roles), one or more a run; let the
	// buffers meet that cycle's largest batch before measuring.
	for i := 0; i < 150; i++ {
		run()
	}
	sweeps := e.bk.sweeps.Load()
	allocs := testing.AllocsPerRun(50, run)
	if allocs != 0 {
		t.Errorf("%d async GET hits with producer sweeps allocate %.2f objects, want 0", perRun, allocs)
	}
	if n := e.bk.sweeps.Load() - sweeps; n < 51 {
		t.Errorf("%d producer sweeps in 51 runs, want at least one a run", n)
	}
}
