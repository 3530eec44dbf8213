package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/slab"
)

// TestArenaConservationDuringMigration drives one page retirement by hand at
// the arena level and audits the five-state conservation invariant at every
// intermediate step: after publish, after the sweep (free chunks and the
// uncarved remainder parked in the migrating state), with the rest in
// quarantine, and after the final capture returns the page to the process
// pool. The retiring page is the class's newest, half carved, so it holds
// chunks in every state a page can.
func TestArenaConservationDuringMigration(t *testing.T) {
	geom := slab.DefaultGeometry()
	pa := newPageAllocator(geom.PageSize)
	a := newArena(geom, 4, pa, "t")
	class, _ := a.classFor(200)
	perPage := int(geom.PageSize / geom.ChunkSize(class))

	// Two and a half pages' worth of chunks, then a third of them freed and
	// recycled onto the freelist: the newest page holds used, free and
	// uncarved chunks.
	chunks := make([][]byte, 2*perPage+perPage/2)
	for i := range chunks {
		chunks[i] = a.alloc(class)
	}
	for i := range chunks {
		if i%3 == 0 {
			a.freeChunk(i%4, class, chunks[i])
			chunks[i] = nil
		}
	}
	a.advanceEpoch()
	a.reclaim()
	if err := a.checkConservation(nil); err != nil {
		t.Fatalf("before migration: %v", err)
	}
	uncarved := a.stats()[class].UncarvedChunks
	if want := int64(perPage - perPage/2); uncarved != want {
		t.Fatalf("newest page has %d uncarved chunks, want %d", uncarved, want)
	}
	pagesBefore := pa.leaseCount("t")

	pages := a.pageRanges()
	if len(pages) != 3 {
		t.Fatalf("leased %d pages, want 3", len(pages))
	}
	m := a.startMigration(pages[2])
	if err := a.checkConservation(nil); err != nil {
		t.Fatalf("after publish: %v", err)
	}

	// Sweep: the page's free chunks and its uncarved remainder move to the
	// migrating state; the invariant must hold with the migration partially
	// filled.
	a.migrationSweep(m)
	if got := m.got.Load(); got <= uncarved || got == int64(perPage) {
		t.Fatalf("sweep captured %d of %d chunks, want the %d uncarved ones, some free ones and no used one", got, perPage, uncarved)
	}
	if st := a.stats()[class]; st.UncarvedChunks != 0 || st.MigratingChunks != m.got.Load() {
		t.Fatalf("after sweep: %d uncarved, %d migrating, want 0 and %d", st.UncarvedChunks, st.MigratingChunks, m.got.Load())
	}
	if err := a.checkConservation(nil); err != nil {
		t.Fatalf("mid-migration after sweep: %v", err)
	}
	// An alloc mid-migration must not land on the retiring page, and with
	// its tail captured the class goes back to its freelist.
	if c := a.alloc(class); m.contains(c) {
		t.Fatal("alloc handed out a chunk of the retiring page")
	} else {
		a.freeChunk(0, class, c)
	}

	// Free every remaining chunk. The retiring page's chunks retire into
	// quarantine (or are captured straight off a freelist by a later sweep);
	// either way conservation holds at each step.
	for i, c := range chunks {
		if c != nil {
			a.freeChunk(i%4, class, c)
		}
	}
	if err := a.checkConservation(nil); err != nil {
		t.Fatalf("mid-migration with quarantined chunks: %v", err)
	}

	// Drain: epoch advances let the reclaim redirect hand the page's
	// quarantined chunks to the migration; the sweep re-captures anything
	// that had already landed back on the freelist.
	for i := 0; i < 10 && a.migrating.Load() != nil; i++ {
		a.advanceEpoch()
		a.reclaim()
		if mm := a.migrating.Load(); mm != nil {
			a.migrationSweep(mm)
		}
	}
	if a.migrating.Load() != nil {
		t.Fatalf("migration still in flight after drain: got %d of %d", m.got.Load(), m.want)
	}
	if err := a.checkConservation(nil); err != nil {
		t.Fatalf("after completion: %v", err)
	}
	if got := pa.leaseCount("t"); got != pagesBefore-1 {
		t.Fatalf("lease count %d after retiring one page, want %d", got, pagesBefore-1)
	}
	if free := pa.stats().FreePages; free != 1 {
		t.Fatalf("page pool holds %d free pages, want the 1 retired page", free)
	}
}

// TestArenaConservationDuringMigrationPinned is the store-level mid-migration
// audit: every resident value is pinned by a zero-copy reader view, so a
// 50% shrink publishes a page retirement that provably cannot complete —
// the evicted chunks sit in quarantine behind the pins. The audit (directory
// walk, conservation, UsedBytes == live charge) must be exact in that state.
// Releasing the pins must then let the retirement finish and the lease count
// come down to the shrunken footprint.
func TestArenaConservationDuringMigrationPinned(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger, DefaultPolicy: cache.PolicyLRU, SyncBookkeeping: true})
	defer s.Close()
	if err := s.RegisterTenant("app", 16<<20); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 900)
	for i := range val {
		val[i] = byte(i)
	}
	nkeys := 0
	for ; ; nkeys++ {
		if err := setItem(s, "app", fmt.Sprintf("k%d", nkeys), val, 0, 0); err != nil {
			t.Fatal(err)
		}
		if used, _ := s.UsedBytes("app"); used > 14<<20 {
			break
		}
	}
	e, _ := s.entry("app")
	leasesBefore := s.PageStats().Leases["app"]
	if leasesBefore < 13 {
		t.Fatalf("fill leased only %d pages", leasesBefore)
	}
	auditArena(t, s, "app")

	// Pin every resident value.
	var views []ItemView
	for i := 0; i < nkeys; i++ {
		view, ok, err := s.GetItemView("app", []byte(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			views = append(views, view)
		}
	}

	if err := s.ResizeTenant("app", 8<<20); err != nil {
		t.Fatal(err)
	}
	if e.arena.migrating.Load() == nil {
		t.Fatal("no page retirement in flight despite pinned readers blocking the drain")
	}
	// The store is quiesced (no traffic) but mid-migration: the audit must
	// hold exactly, with the captured chunks in the migrating column.
	auditArena(t, s, "app")

	for i := range views {
		views[i].Release()
	}
	for i := 0; i < 10000 && e.reconfigureTick(); i++ {
	}
	if m := e.arena.migrating.Load(); m != nil {
		t.Fatalf("migration still in flight after pins released: got %d of %d", m.got.Load(), m.want)
	}
	auditArena(t, s, "app")
	leases := s.PageStats().Leases["app"]
	if target := e.physicalTargetPages(8 << 20); leases > target {
		t.Fatalf("leases %d after shrink, want <= %d", leases, target)
	}
	if leases >= leasesBefore {
		t.Fatalf("shrink retired no pages: %d -> %d", leasesBefore, leases)
	}
	drainQuarantine(t, s, "app")
	auditArena(t, s, "app")
}

// TestTenantResizeShrinkUnderLoad is the acceptance check for live resize: a
// hot tenant is shrunk to 50% while concurrent writers and zero-copy readers
// keep hammering it. No request may fail, pinned views must never tear, and
// the audit (conservation + UsedBytes == live charge) holds before the
// resize, at sampled quiesce points during it, and after it settles — with
// the page leases down to the shrunken footprint at the end.
func TestTenantResizeShrinkUnderLoad(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger, DefaultPolicy: cache.PolicyLRU})
	defer s.Close()
	if err := s.RegisterTenant("hot", 16<<20); err != nil {
		t.Fatal(err)
	}
	const numKeys = 8192
	fill := func(buf []byte, seed byte) {
		buf[0] = seed
		for i := 1; i < len(buf); i++ {
			buf[i] = seed ^ byte(i*7+3)
		}
	}
	val := make([]byte, 1500)
	for i := 0; i < numKeys; i++ {
		fill(val, byte(i))
		if err := setItem(s, "hot", fmt.Sprintf("k%d", i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	auditArena(t, s, "hot")
	peakLeases := s.PageStats().Leases["hot"]

	e, _ := s.entry("hot")
	ops := 6000
	if testing.Short() {
		ops = 1500
	}
	storm := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 1500)
		sizes := []int{120, 700, 1500}
		for i := 0; i < ops; i++ {
			key := []byte(fmt.Sprintf("k%d", rng.Intn(numKeys)))
			if rng.Intn(100) < 40 {
				v := buf[:sizes[rng.Intn(len(sizes))]]
				fill(v, byte(rng.Intn(256)))
				// Admission under memory pressure may bounce the set; that
				// is an outcome, not a failure.
				_ = s.SetItemBytes("hot", key, v, 0, 0)
				continue
			}
			view, ok, err := s.GetItemView("hot", key)
			if err != nil {
				t.Errorf("get during resize: %v", err)
				continue
			}
			if !ok {
				continue
			}
			seedByte := view.Value[0]
			for j := 1; j < len(view.Value); j++ {
				if view.Value[j] != seedByte^byte(j*7+3) {
					t.Errorf("pinned view torn at byte %d during resize", j)
					break
				}
			}
			view.Release()
		}
	}

	// Round 0 issues the shrink concurrently with the first storm; between
	// rounds the store quiesces and the audit samples the in-flight state.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				storm(seed)
			}(int64(round*10 + w + 1))
		}
		if round == 0 {
			if err := s.ResizeTenant("hot", 8<<20); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		s.Flush()
		if l := s.PageStats().Leases["hot"]; l > peakLeases {
			peakLeases = l
		}
		// The sampled mid-resize audit: traffic is quiesced, but the
		// maintenance tick's reconfigure still runs every 10ms — holding reconfMu
		// excludes it so the walk observes one consistent in-flight state.
		e.reconfMu.Lock()
		auditArena(t, s, "hot")
		e.reconfMu.Unlock()
	}

	// Settle: drive the reconfigure loop to completion and re-audit.
	deadline := time.Now().Add(10 * time.Second)
	for e.reconfigureTick() {
		if time.Now().After(deadline) {
			t.Fatal("resize did not settle")
		}
	}
	s.Flush()
	auditArena(t, s, "hot")
	leases := s.PageStats().Leases["hot"]
	target := e.physicalTargetPages(8 << 20)
	if leases > target {
		t.Fatalf("leases %d after settling, want <= %d", leases, target)
	}
	// Pages must actually have moved back to the pool (unless the workload
	// never outgrew the shrunken footprint in the first place).
	if peakLeases > target && leases >= peakLeases {
		t.Fatalf("shrink retired no pages: peak %d -> %d", peakLeases, leases)
	}
	if mem := e.tenant.MemoryBytes(); mem != 8<<20 {
		t.Fatalf("structural capacity %d, want %d", mem, 8<<20)
	}
	drainQuarantine(t, s, "hot")
	auditArena(t, s, "hot")
}

// TestReadersVsTenantDelete is the delete-while-pinned torture test: reader
// goroutines hold zero-copy views into a tenant while it is deleted out from
// under them, and a successor tenant immediately floods the store to grab
// any page the pool hands back. The teardown contract — pages return only
// after the dying tenant's quarantine fully drains — means no successor
// write may ever land in a chunk still pinned by a dying reader; the
// self-describing pattern check (and -race) would catch one torn view.
func TestReadersVsTenantDelete(t *testing.T) {
	s := New(Config{DefaultMode: AllocCliffhanger, DefaultPolicy: cache.PolicyLRU})
	defer s.Close()
	if err := s.RegisterTenant("dying", 8<<20); err != nil {
		t.Fatal(err)
	}
	const numKeys = 2048
	fill := func(buf []byte, seed byte) {
		buf[0] = seed
		for i := 1; i < len(buf); i++ {
			buf[i] = seed ^ byte(i*7+3)
		}
	}
	val := make([]byte, 900)
	for i := 0; i < numKeys; i++ {
		fill(val, byte(i))
		if err := setItem(s, "dying", fmt.Sprintf("k%d", i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for {
				key := []byte(fmt.Sprintf("k%d", rng.Intn(numKeys)))
				view, ok, err := s.GetItemView("dying", key)
				if err != nil {
					return // ErrNoTenant: the delete has landed
				}
				if !ok {
					continue
				}
				// Hold the pin briefly while the teardown races to drain,
				// then verify the borrowed bytes end to end.
				time.Sleep(50 * time.Microsecond)
				seedByte := view.Value[0]
				for j := 1; j < len(view.Value); j++ {
					if view.Value[j] != seedByte^byte(j*7+3) {
						t.Errorf("dying tenant's pinned view torn at byte %d", j)
						break
					}
				}
				view.Release()
			}
		}(int64(r + 1))
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let readers take pins
	if err := s.DeleteTenant("dying"); err != nil {
		t.Fatal(err)
	}

	// The successor floods sets: every page the pool hands back gets
	// recarved and written immediately.
	if err := s.RegisterTenant("heir", 8<<20); err != nil {
		t.Fatal(err)
	}
	hv := make([]byte, 900)
	fill(hv, 0xEE)
	for i := 0; i < numKeys; i++ {
		if err := setItem(s, "heir", fmt.Sprintf("h%d", i), hv, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// Teardown must converge: every page of the dying tenant back in the
	// pool (or re-leased by the heir), its lease entry gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := s.PageStats().Leases["dying"]; n == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("dying tenant still leases %d pages", n)
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := get(s, "dying", "k0"); err == nil {
		t.Fatal("deleted tenant still serves requests")
	}
	s.Flush()
	auditArena(t, s, "heir")
}
