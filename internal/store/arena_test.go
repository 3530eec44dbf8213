package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cliffhanger/internal/slab"
)

// auditArena runs Store.AuditConservation (chunk conservation, arena used
// counts against the directory, UsedBytes against the live records' charge)
// and adds the two per-record checks only a test makes: every value sits in a
// chunk of its charged size's class, and the charged size is what is stored.
// Traffic on the tenant must have stopped.
func auditArena(t *testing.T, s *Store, tenant string) {
	t.Helper()
	if err := s.AuditConservation(tenant); err != nil {
		t.Errorf("conservation audit: %v", err)
	}
	e, ok := s.entry(tenant)
	if !ok {
		t.Fatalf("unknown tenant %q", tenant)
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, it := range sh.items {
			class, _ := e.arena.classFor(it.size)
			if int64(cap(it.value)) != e.arena.geom.ChunkSize(class) {
				t.Errorf("key %q: chunk cap %d does not match class %d chunk size %d",
					it.key, cap(it.value), class, e.arena.geom.ChunkSize(class))
			}
			if int64(len(it.key)+len(it.value)) != it.size {
				t.Errorf("key %q: charged size %d != len(key)+len(value) %d",
					it.key, it.size, len(it.key)+len(it.value))
			}
		}
		sh.mu.Unlock()
	}
}

// drainQuarantine forces one full epoch-reclaim cycle on a quiesced store
// and checks the quarantine empties: with no reader pinned, a single epoch
// advance must make every parked chunk reclaimable: quarantined chunks are a
// transient state of the conservation invariant, not a leak.
func drainQuarantine(t *testing.T, s *Store, tenant string) {
	t.Helper()
	e, ok := s.entry(tenant)
	if !ok {
		t.Fatalf("unknown tenant %q", tenant)
	}
	e.arena.advanceEpoch()
	e.arena.reclaim()
	if q := e.arena.quarantinedChunks(); q != 0 {
		t.Errorf("quarantine holds %d chunks after a forced epoch advance on a quiesced store, want 0", q)
	}
}

// arenaStormOps drives one randomized mutation storm against the store:
// sets, cross-class re-sets, appends, prepends, deletes, TTL'd sets, clock
// advances (expiry + reaper food) and occasional flushes, across sizes that
// span several slab classes.
func arenaStormOps(t *testing.T, s *Store, tenant string, rng *rand.Rand, ops int, clock *int64, mu *sync.Mutex) {
	t.Helper()
	payload := make([]byte, 6000)
	sizes := []int{40, 100, 400, 900, 1800, 3900, 5800}
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(2000))
		size := sizes[rng.Intn(len(sizes))]
		switch r := rng.Intn(100); {
		case r < 40: // SET (frequently a cross-class re-set)
			if err := setItem(s, tenant, key, payload[:size], uint32(i), 0); err != nil {
				t.Errorf("set: %v", err)
			}
		case r < 48: // SET with a TTL the clock advances will kill
			mu.Lock()
			now := *clock
			mu.Unlock()
			if err := setItem(s, tenant, key, payload[:size], 0, now+int64(1+rng.Intn(5))); err != nil {
				t.Errorf("ttl set: %v", err)
			}
		case r < 58:
			if _, err := appendTo(s, tenant, key, payload[:rng.Intn(64)], false); err != nil {
				t.Errorf("append: %v", err)
			}
		case r < 64:
			if _, err := appendTo(s, tenant, key, payload[:rng.Intn(64)], true); err != nil {
				t.Errorf("prepend: %v", err)
			}
		case r < 78:
			if _, err := s.Delete(tenant, key); err != nil {
				t.Errorf("delete: %v", err)
			}
		case r < 90:
			if _, _, err := get(s, tenant, key); err != nil {
				t.Errorf("get: %v", err)
			}
		case r < 94:
			if _, err := s.Touch(tenant, []byte(key), int64(rng.Intn(10))); err != nil {
				t.Errorf("touch: %v", err)
			}
		case r < 99: // advance the expiry clock
			mu.Lock()
			*clock += int64(rng.Intn(3))
			mu.Unlock()
		default:
			if rng.Intn(4) == 0 {
				if err := s.FlushAll(tenant, 0); err != nil {
					t.Errorf("flush: %v", err)
				}
			} else {
				mu.Lock()
				now := *clock
				mu.Unlock()
				// Delayed flush: arms a deadline a later clock advance passes.
				if err := s.FlushAll(tenant, now+int64(1+rng.Intn(3))); err != nil {
					t.Errorf("delayed flush: %v", err)
				}
			}
		}
	}
}

// TestArenaConservationProperty is the arena's safety net: after a
// randomized storm of set / cross-class re-set / append / prepend / delete /
// expire / flush traffic, every chunk of every leased page must be either
// backing a resident value, sitting on its class's freelist, parked in epoch
// quarantine or not carved yet (used + free + quarantined + migrating +
// uncarved == pages * chunks-per-page: no leak, no double free), every
// resident chunk's capacity must match its class, and UsedBytes must still
// equal the live records' structural charge — in both bookkeeping modes.
// A forced epoch advance on the quiesced store must then drain the
// quarantine to empty and leave conservation intact. Run under -race (make
// race / CI) this also hammers the chunk-recycling paths against the
// epoch-pinned reader contract.
func TestArenaConservationProperty(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		name := "async"
		if syncBk {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			var (
				mu    sync.Mutex
				clock = int64(1000)
			)
			s := New(Config{
				DefaultMode:     AllocCliffhanger,
				SyncBookkeeping: syncBk,
				Now: func() int64 {
					mu.Lock()
					defer mu.Unlock()
					return clock
				},
			})
			defer s.Close()
			// Small enough that the storm's working set forces evictions.
			if err := s.RegisterTenant("app", 4<<20); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			arenaStormOps(t, s, "app", rng, 30000, &clock, &mu)
			s.Flush()
			auditArena(t, s, "app")
			drainQuarantine(t, s, "app")
			auditArena(t, s, "app")
			// Flush the whole tenant: every resident chunk retires through
			// quarantine, and a forced advance must recycle all of them.
			if err := s.FlushAll("app", 0); err != nil {
				t.Fatal(err)
			}
			s.Flush()
			drainQuarantine(t, s, "app")
			auditArena(t, s, "app")
		})
	}
}

// TestArenaConservationConcurrent runs the same storm from several
// goroutines at once (async bookkeeping, the production mode), settles, and
// audits. Under -race this is the main detector for a chunk being recycled
// while another goroutine can still observe it.
func TestArenaConservationConcurrent(t *testing.T) {
	var (
		mu    sync.Mutex
		clock = int64(1000)
	)
	s := New(Config{
		DefaultMode: AllocCliffhanger,
		Now: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return clock
		},
	})
	defer s.Close()
	if err := s.RegisterTenant("app", 4<<20); err != nil {
		t.Fatal(err)
	}
	ops := 8000
	if testing.Short() {
		ops = 2000
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			arenaStormOps(t, s, "app", rand.New(rand.NewSource(seed)), ops, &clock, &mu)
		}(int64(w + 1))
	}
	wg.Wait()
	s.Flush()
	auditArena(t, s, "app")
	drainQuarantine(t, s, "app")
	auditArena(t, s, "app")
}

// TestArenaChunkMisfreePanics pins the loud-failure contract: returning a
// buffer whose capacity does not match the class's chunk size (an accounting
// bug, were it ever to happen) must panic rather than corrupt the pools.
func TestArenaChunkMisfreePanics(t *testing.T) {
	a := newArena(slab.DefaultGeometry(), 4, newPageAllocator(slab.DefaultPageSize), "t")
	defer func() {
		if recover() == nil {
			t.Fatal("freeing a mis-sized chunk did not panic")
		}
	}()
	a.freeChunk(0, 2, make([]byte, 10))
}

// TestArenaRecycling pins the recycle-don't-free discipline at the arena
// level: a burst of allocations followed by frees and an identical second
// burst must not lease new pages — the second burst is served entirely from
// the freelist.
func TestArenaRecycling(t *testing.T) {
	geom := slab.DefaultGeometry()
	a := newArena(geom, 8, newPageAllocator(geom.PageSize), "t")
	class, _ := a.classFor(200)
	var chunks [][]byte
	for i := 0; i < 5000; i++ {
		chunks = append(chunks, a.alloc(class))
	}
	pagesAfterFirst := a.stats()[class].Pages
	if pagesAfterFirst == 0 {
		t.Fatal("no pages carved")
	}
	for i, c := range chunks {
		a.freeChunk(i%8, class, c)
	}
	chunks = chunks[:0]
	for i := 0; i < 5000; i++ {
		chunks = append(chunks, a.alloc(class))
	}
	st := a.stats()[class]
	if st.Pages != pagesAfterFirst {
		t.Fatalf("second burst carved new pages: %d -> %d", pagesAfterFirst, st.Pages)
	}
	if st.UsedChunks != 5000 {
		t.Fatalf("used = %d, want 5000", st.UsedChunks)
	}
	for i, c := range chunks {
		a.freeChunk(i%8, class, c)
	}
	if err := a.checkConservation(nil); err != nil {
		t.Fatalf("conservation after recycle: %v", err)
	}
	if st := a.stats()[class]; st.UsedChunks != 0 {
		t.Fatalf("used = %d after freeing everything", st.UsedChunks)
	}
	// With nothing pinned, one epoch advance reclaims the whole quarantine.
	a.advanceEpoch()
	a.reclaim()
	if q := a.quarantinedChunks(); q != 0 {
		t.Fatalf("quarantine holds %d chunks after forced advance, want 0", q)
	}
	if err := a.checkConservation(nil); err != nil {
		t.Fatalf("conservation after quarantine drain: %v", err)
	}
}

// TestArenaReadersVsFrees is the epoch-reclamation torture test: reader
// goroutines hold zero-copy views (GetItemView) over values that writer
// goroutines concurrently overwrite, delete and flush — every mutation
// retires the old chunk into quarantine while readers may still be pinned
// on it. Values are self-describing (byte i = seed byte ^ i-derived mix, with
// the seed in byte 0), so a chunk recycled while on loan shows up as a
// pattern break even without the race detector; under -race (the CI lane
// runs this with GOMAXPROCS=4) any write into a pinned chunk is flagged
// directly. This pins the reclamation safety property: a chunk is never
// recycled while any reader holds a pinned view into it.
func TestArenaReadersVsFrees(t *testing.T) {
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
			if err := s.RegisterTenant("app", 8<<20); err != nil {
				t.Fatal(err)
			}
			const numKeys = 256
			sizes := []int{40, 100, 400, 900, 1800}
			keys := make([][]byte, numKeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("torture-%d", i))
			}
			fill := func(buf []byte, seed byte) {
				buf[0] = seed
				for i := 1; i < len(buf); i++ {
					buf[i] = seed ^ byte(i*7+3)
				}
			}
			writerOps := 4000
			readerOps := 20000
			if testing.Short() {
				writerOps, readerOps = 1000, 5000
			}
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					buf := make([]byte, sizes[len(sizes)-1])
					for i := 0; i < writerOps; i++ {
						key := keys[rng.Intn(numKeys)]
						switch r := rng.Intn(100); {
						case r < 80: // overwrite (often cross-class): retires the old chunk
							v := buf[:sizes[rng.Intn(len(sizes))]]
							fill(v, byte(rng.Intn(256)))
							// The synchronous does-not-fit report is best-effort
							// under concurrency (admitOutcome): a racing delete or
							// flush of the same key is indistinguishable from an
							// admission bounce, so set errors are expected here.
							_ = s.SetItemBytes("app", key, v, 0, 0)
						case r < 95:
							if _, err := s.Delete("app", string(key)); err != nil {
								t.Errorf("delete: %v", err)
							}
						default:
							if err := s.FlushAll("app", 0); err != nil {
								t.Errorf("flush: %v", err)
							}
						}
					}
				}(int64(w + 1))
			}
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < readerOps; i++ {
						key := keys[rng.Intn(numKeys)]
						view, ok, err := s.GetItemView("app", key)
						if err != nil {
							t.Errorf("get: %v", err)
							continue
						}
						if !ok {
							continue
						}
						// Verify the borrowed bytes against the embedded seed.
						// A recycle-under-pin would splice another value's (or
						// a half-written) pattern into the view.
						seed := view.Value[0]
						for j := 1; j < len(view.Value); j++ {
							if view.Value[j] != seed^byte(j*7+3) {
								t.Errorf("pinned view torn at byte %d of %d (key %s)", j, len(view.Value), key)
								break
							}
						}
						view.Release()
					}
				}(int64(100 + r))
			}
			wg.Wait()
			s.Flush()
			auditArena(t, s, "app")
			drainQuarantine(t, s, "app")
			auditArena(t, s, "app")
		})
	}
}

// TestArenaRunReadersVsFrees is TestArenaReadersVsFrees for runs of reads:
// each reader holds one BeginRead across 64 Gets, keeps every view, and
// checks them all only after the run's last Get, while writers overwrite
// (often across classes), delete and flush the same keys. The run pins once,
// at its first hit, so a view taken early must survive the later Gets, their
// events and the sweeps they trigger. Every value encodes its key and a
// version, so a chunk recycled under the run shows up as another key's bytes
// or a broken pattern, and under -race (make race4 runs it at GOMAXPROCS=4)
// as a write into a chunk a reader still holds.
func TestArenaRunReadersVsFrees(t *testing.T) {
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
			if err := s.RegisterTenant("app", 8<<20); err != nil {
				t.Fatal(err)
			}
			const numKeys, runLen = 256, 64
			sizes := []int{40, 100, 400, 900, 1800}
			keys := make([][]byte, numKeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("run-%d", i))
			}
			// A value is its key's index (two bytes), a version byte and a
			// pattern derived from both.
			pattern := func(k int, ver byte, j int) byte { return byte(k) ^ ver ^ byte(j*7+3) }
			fill := func(buf []byte, k int, ver byte) {
				buf[0], buf[1], buf[2] = byte(k>>8), byte(k), ver
				for j := 3; j < len(buf); j++ {
					buf[j] = pattern(k, ver, j)
				}
			}
			writerOps, runs := 4000, 300
			if testing.Short() {
				writerOps, runs = 1000, 80
			}
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					buf := make([]byte, sizes[len(sizes)-1])
					for i := 0; i < writerOps; i++ {
						k := rng.Intn(numKeys)
						switch r := rng.Intn(100); {
						case r < 80:
							v := buf[:sizes[rng.Intn(len(sizes))]]
							fill(v, k, byte(rng.Intn(256)))
							_ = s.SetItemBytes("app", keys[k], v, 0, 0)
						case r < 97:
							if _, err := s.Delete("app", string(keys[k])); err != nil {
								t.Errorf("delete: %v", err)
							}
						default:
							if err := s.FlushAll("app", 0); err != nil {
								t.Errorf("flush: %v", err)
							}
						}
					}
				}(int64(w + 1))
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					views := make([]ItemView, 0, runLen)
					asked := make([]int, 0, runLen)
					for i := 0; i < runs; i++ {
						run, err := s.BeginRead("app")
						if err != nil {
							t.Errorf("begin read: %v", err)
							return
						}
						views, asked = views[:0], asked[:0]
						for j := 0; j < runLen; j++ {
							k := rng.Intn(numKeys)
							if v, ok := run.Get(keys[k]); ok {
								views = append(views, v)
								asked = append(asked, k)
							}
						}
						for j, v := range views {
							k := asked[j]
							if got := int(v.Value[0])<<8 | int(v.Value[1]); got != k {
								t.Errorf("a view of key %d holds key %d's value", k, got)
								continue
							}
							for b := 3; b < len(v.Value); b++ {
								if v.Value[b] != pattern(k, v.Value[2], b) {
									t.Errorf("view %d of a run torn at byte %d of %d (key %d)", j, b, len(v.Value), k)
									break
								}
							}
						}
						run.End()
					}
				}(int64(100 + r))
			}
			wg.Wait()
			s.Flush()
			auditArena(t, s, "app")
			drainQuarantine(t, s, "app")
			auditArena(t, s, "app")
		})
	}
}

// keysOnEveryShard returns perShard keys for each of the tenant's value
// shards, so a test's traffic reaches every arena stripe.
func keysOnEveryShard(e *tenantEntry, perShard int) [][]byte {
	need := make([]int, len(e.shards))
	var keys [][]byte
	for i := 0; len(keys) < perShard*len(e.shards); i++ {
		key := []byte(fmt.Sprintf("res-%d", i))
		if idx := shardFor(e, key).idx; need[idx] < perShard {
			need[idx]++
			keys = append(keys, key)
		}
	}
	return keys
}

// TestArenaLeasesFollowResidency pins the arena's footprint to what the
// tenant stores: a 2 MiB tenant at the default 64 shards is filled past
// capacity with 20-30 KiB values on keys that reach every shard, then churned
// with overwrites, deletes and the evictions they force. However the chunks
// moved between shards, every class must hold no more pages than its peak
// resident chunks needed plus one, and the tenant no more than the lease
// count a resized tenant is shrunk to. Chunks cached per shard, or pages
// leased while freed chunks sat on other shards, fail it.
func TestArenaLeasesFollowResidency(t *testing.T) {
	for _, syncBk := range []bool{true, false} {
		name := "async"
		if syncBk {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			const reservation = 2 << 20
			s := New(Config{DefaultMode: AllocCliffhanger, SyncBookkeeping: syncBk})
			defer s.Close()
			if err := s.RegisterTenant("app", reservation); err != nil {
				t.Fatal(err)
			}
			e, _ := s.entry("app")
			keys := keysOnEveryShard(e, 3)
			peak := make([]int64, e.arena.geom.NumClasses())
			sample := func() {
				for _, st := range e.arena.stats() {
					peak[st.Class] = max(peak[st.Class], st.UsedChunks)
				}
			}
			rng := rand.New(rand.NewSource(7))
			payload := make([]byte, 30<<10)
			sets := 0
			store := func(key []byte) {
				// Admission may bounce a set under pressure; that is an
				// outcome, not a failure.
				_ = s.SetItemBytes("app", key, payload[:20<<10+rng.Intn(10<<10)], 0, 0)
				sample()
				// Residency only tracks the reservation as closely as the
				// bookkeeper's evictions track the admissions: settle like a
				// client that pipelines eight deep.
				if sets++; sets%8 == 0 {
					s.Flush()
				}
			}
			for _, key := range keys {
				store(key)
			}
			for i := 0; i < 4000; i++ {
				key := keys[rng.Intn(len(keys))]
				switch r := rng.Intn(100); {
				case r < 60:
					store(key)
				case r < 75:
					if _, err := s.Delete("app", string(key)); err != nil {
						t.Fatal(err)
					}
				default:
					if v, _, err := s.GetItemView("app", key); err != nil {
						t.Fatal(err)
					} else {
						v.Release()
					}
				}
			}
			s.Flush()
			auditArena(t, s, "app")
			assertPagesFollowPeak(t, "app", e.arena.stats(), peak)
			leases := s.PageStats().Leases["app"]
			if target := e.physicalTargetPages(reservation); leases > target {
				t.Errorf("tenant leases %d pages for a %d-byte reservation, want <= %d", leases, reservation, target)
			}
		})
	}
}

// assertPagesFollowPeak checks every class against
// pages <= ceil(peak used chunks / chunks-per-page) + 1.
func assertPagesFollowPeak(t *testing.T, tenant string, classes []ArenaClassStats, peak []int64) {
	t.Helper()
	for _, st := range classes {
		if st.Pages == 0 {
			continue
		}
		perPage := st.TotalChunks / st.Pages
		if limit := (peak[st.Class]+perPage-1)/perPage + 1; st.Pages > limit {
			t.Errorf("%s class %d (chunk %d): %d pages leased for a peak of %d used chunks (%d per page), want <= %d",
				tenant, st.Class, st.ChunkSize, st.Pages, peak[st.Class], perPage, limit)
		}
	}
}

// TestArenaQuarantineBoundedInBytes pins the quarantine high-water mark to
// bytes: a synchronous store has no maintenance tick, so the freeing caller's
// inline reclaim is the only thing that bounds what deferred frees park. All
// traffic lands on one stripe, inside capacity so no alloc ever runs dry and
// harvests, and overwrites 30 KiB values; with no reader pinned the stripe
// may never hold more than the high-water mark.
func TestArenaQuarantineBoundedInBytes(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger, SyncBookkeeping: true})
	defer s.Close()
	if err := s.RegisterTenant("app", 16<<20); err != nil {
		t.Fatal(err)
	}
	e, _ := s.entry("app")
	var keys [][]byte
	for i := 0; len(keys) < 32; i++ {
		if key := []byte(fmt.Sprintf("big-%d", i)); shardFor(e, key).idx == 0 {
			keys = append(keys, key)
		}
	}
	payload := make([]byte, 30<<10)
	class, _ := e.arena.classFor(int64(len(keys[0]) + len(payload)))
	chunkSize := e.arena.geom.ChunkSize(class)
	var worst int64
	for i := 0; i < 1000; i++ {
		if err := s.SetItemBytes("app", keys[i%len(keys)], payload, 0, 0); err != nil {
			t.Fatal(err)
		}
		rs, err := s.ReclaimStats("app")
		if err != nil {
			t.Fatal(err)
		}
		worst = max(worst, rs.QuarantinedChunks*chunkSize)
	}
	if worst > quarantineHighWaterBytes {
		t.Fatalf("one stripe's quarantine reached %d bytes of %d-byte chunks, want <= %d", worst, chunkSize, quarantineHighWaterBytes)
	}
	if worst == 0 && !poisonReclaim {
		// The poison mode reclaims every free no pin covers at once, so with
		// no reader pinned nothing waits in quarantine there.
		t.Fatal("no overwrite ever left a chunk in quarantine")
	}
	auditArena(t, s, "app")
}
