package store

import (
	"cliffhanger/internal/cache"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cliffhanger/internal/slab"
)

// capacitySum totals the tenant's queue capacities; the caller must have
// quiesced the store.
func capacitySum(e *tenantEntry) int64 {
	e.bk.mu.Lock()
	defer e.bk.mu.Unlock()
	var sum int64
	for _, c := range e.tenant.ClassCapacities() {
		sum += c
	}
	return sum
}

// TestUnmanagedTenantResizeUnderLoad is the live resize of the two classQueues
// modes a binary can start (every other lifecycle test registers
// AllocCliffhanger): an 8 MiB tenant under a read/write storm is shrunk to
// 3.5 MiB and grown back, with synchronous and asynchronous bookkeeping. After
// the shrink the queues hold no more than the whole pages of the reservation
// (a global-LRU tenant moves in pages like everyone else), every record a
// shed page evicted is gone from the directory, and the audit is clean; after
// the growth nothing has moved until admissions ask, and then the queues take
// all of it.
func TestUnmanagedTenantResizeUnderLoad(t *testing.T) {
	const (
		page    = slab.DefaultPageSize
		full    = int64(8 << 20)
		shrunk  = int64(3<<20 + 512<<10)
		numKeys = 6000
	)
	sizes := []int{300, 1500, 3000} // three slab classes; numKeys keys are 9.6 MB, 13.3 MB in chunks
	for _, mode := range []AllocationMode{AllocDefault, AllocGlobalLRU} {
		for _, syncBk := range []bool{true, false} {
			name := mode.String() + "/async"
			if syncBk {
				name = mode.String() + "/sync"
			}
			t.Run(name, func(t *testing.T) {
				s := New(Config{DefaultMode: mode, SyncBookkeeping: syncBk})
				defer s.Close()
				if err := s.RegisterTenant("app", full); err != nil {
					t.Fatal(err)
				}
				e, _ := s.entry("app")
				ops := 4000
				if testing.Short() {
					ops = 1000
				}
				storm := func(seed int64) {
					rng := rand.New(rand.NewSource(seed))
					buf := make([]byte, 3000)
					for i := 0; i < ops; i++ {
						k := rng.Intn(numKeys)
						key := []byte(fmt.Sprintf("k%d", k))
						if rng.Intn(100) < 50 {
							// A set the shrunken tenant has no room for bounces; that
							// is an outcome, not a failure.
							_ = s.SetItemBytes("app", key, buf[:sizes[k%len(sizes)]], 0, 0)
							continue
						}
						view, _, err := s.GetItemView("app", key)
						if err != nil {
							t.Errorf("get during resize: %v", err)
						}
						view.Release()
					}
				}
				// fillAll offers the tenant every key once, more than it can hold.
				fillAll := func() {
					buf := make([]byte, 3000)
					for k := 0; k < numKeys; k++ {
						_ = s.SetItemBytes("app", []byte(fmt.Sprintf("k%d", k)), buf[:sizes[k%len(sizes)]], 0, 0)
					}
					s.Flush()
				}
				// resizeUnderLoad retargets the tenant while two storms run, then
				// drives the reconfiguration to its end.
				resizeUnderLoad := func(target int64, seed int64) {
					t.Helper()
					var wg sync.WaitGroup
					for w := int64(0); w < 2; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							storm(seed + w)
						}()
					}
					if err := s.ResizeTenant("app", target); err != nil {
						t.Fatal(err)
					}
					wg.Wait()
					deadline := time.Now().Add(10 * time.Second)
					for e.reconfigureTick() {
						if time.Now().After(deadline) {
							t.Fatal("resize did not settle")
						}
					}
					s.Flush()
					if mem := e.tenant.MemoryBytes(); mem != target {
						t.Fatalf("reservation %d after the resize settled, want %d", mem, target)
					}
				}
				// quiet runs check with the maintenance tick held and every
				// buffered event applied: after a resize the tick goes on
				// retiring pages (a migration evicts through the event
				// buffers), so only then is the store quiet.
				quiet := func(check func()) {
					t.Helper()
					defer HoldMaintenance(s)()
					s.Flush()
					check()
				}
				// settled checks what holds whenever the store is quiet.
				settled := func(when string) {
					t.Helper()
					quiet(func() {
						auditArena(t, s, "app")
						records, _ := s.Items("app")
						e.bk.mu.Lock()
						entries := queuedItems(e.tenant)
						e.bk.mu.Unlock()
						if entries != records {
							t.Fatalf("%s: the directory holds %d records, the queues %d entries", when, records, entries)
						}
					})
				}

				fillAll()
				if got := capacitySum(e); got != full {
					t.Fatalf("the queues hold %d of the %d-byte reservation after the fill", got, full)
				}
				settled("after the fill")

				resizeUnderLoad(shrunk, 10)
				if got, want := capacitySum(e), shrunk/page*page; got > want {
					t.Fatalf("after the shrink the queues hold %d bytes, more than the reservation's %d whole pages", got, want/page)
				}
				if used, _ := s.UsedBytes("app"); used > shrunk {
					t.Fatalf("after the shrink %d bytes are resident in a %d-byte reservation", used, shrunk)
				}
				settled("after the shrink")
				if leases, max := s.PageStats().Leases["app"], e.physicalTargetPages(shrunk); leases > max {
					t.Fatalf("after the shrink the arena leases %d pages, want <= %d", leases, max)
				}

				afterShrink := capacitySum(e)
				if err := s.ResizeTenant("app", full); err != nil {
					t.Fatal(err)
				}
				for e.reconfigureTick() {
				}
				if got := capacitySum(e); got != afterShrink {
					t.Fatalf("growth moved the queues from %d to %d bytes before any admission asked", afterShrink, got)
				}
				resizeUnderLoad(full, 20)
				fillAll()
				if got := capacitySum(e); got != full {
					t.Fatalf("after growing back the queues hold %d of the %d-byte reservation", got, full)
				}
				if used, _ := s.UsedBytes("app"); used <= shrunk {
					t.Fatalf("after growing back only %d bytes are resident; the growth did not reach the queues", used)
				}
				settled("after growing back")
				quiet(func() {
					drainQuarantine(t, s, "app")
					auditArena(t, s, "app")
				})
			})
		}
	}
}

// pageLedger is stock memcached's page arithmetic, the ledger classQueues
// replaced with one byte count: whole pages, a count of free ones, and how
// many each class owns.
type pageLedger struct {
	total, free int64
	pages       []int64
}

func (l *pageLedger) resize(pages int64) {
	l.free += pages - l.total
	l.total = pages
	for l.free < 0 {
		best, most := -1, int64(0)
		for c, n := range l.pages {
			if n > most {
				best, most = c, n
			}
		}
		if best < 0 {
			return
		}
		l.pages[best]--
		l.free++
	}
}

// TestClassQueuesLedgerMatchesPageArithmetic drives a default-mode classQueues
// and the page ledger side by side through admissions and resizes, for
// reservations that are and are not multiples of a page, and requires after
// every step that each queue holds exactly the pages the ledger says its class
// owns and that the byte count, in whole pages, is the ledger's free count: a
// grant happens when and only when a free page exists, a shrink sheds the
// same pages from the same classes.
func TestClassQueuesLedgerMatchesPageArithmetic(t *testing.T) {
	geom := slab.DefaultGeometry()
	page := geom.PageSize
	classes := []int{10, 11, 12} // 64, 128 and 256 KiB chunks: a page fills in 16, 8 and 4 admissions
	for _, row := range []struct {
		name    string
		initial int64
		resizes []int64
	}{
		{"page multiples", 6 << 20, []int64{3 << 20, 8 << 20, 1 << 20, 6 << 20}},
		{"half pages", 6<<20 + 512<<10, []int64{3<<20 + 512<<10, 7<<20 + 512<<10, 2<<20 + 512<<10}},
		{"a byte short of a page", 5<<20 - 1, []int64{3<<20 - 1, 3 << 20, 3<<20 + 1, 2<<20 - 1, 6<<20 - 1}},
		{"under one page", 1<<20 - 1, []int64{2 << 20, 512 << 10, 4<<20 + 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newClassQueues(TenantConfig{MemoryBytes: row.initial, Mode: AllocDefault}, geom)
			l := &pageLedger{total: row.initial / page, free: row.initial / page, pages: make([]int64, geom.NumClasses())}
			agree := func(step string) {
				t.Helper()
				for c := 0; c < p.numQueues(); c++ {
					if capacity, _, _ := p.queueView(c); capacity != l.pages[c]*page {
						t.Fatalf("%s: class %d holds %d bytes, the page ledger says %d pages", step, c, capacity, l.pages[c])
					}
				}
				if p.free < 0 || p.free/page != l.free {
					t.Fatalf("%s: %d bytes free, the page ledger says %d pages", step, p.free, l.free)
				}
			}
			rng := rand.New(rand.NewSource(1))
			next := 0
			admitSome := func(n int) {
				for i := 0; i < n; i++ {
					c := classes[rng.Intn(len(classes))]
					cost := geom.ChunkSize(c)
					_, used, _ := p.queueView(c)
					for used+cost > l.pages[c]*page && l.free > 0 {
						l.free--
						l.pages[c]++
					}
					key := fmt.Sprintf("k%d", next)
					p.admit(c, key, cache.Hash(key), nil, cost)
					next++
					agree(fmt.Sprintf("admission %d", next))
				}
			}
			agree("at the start")
			admitSome(120)
			old := row.initial
			for _, to := range row.resizes {
				p.resize(old, to)
				l.resize(to / page)
				old = to
				agree(fmt.Sprintf("resize to %d", to))
				admitSome(120)
			}
		})
	}
}

// TestParseAllocationMode: every mode a binary can start parses back from its
// own name, and "static" is refused by name, not as unknown.
func TestParseAllocationMode(t *testing.T) {
	for _, m := range []AllocationMode{AllocDefault, AllocCliffhanger, AllocGlobalLRU, AllocMemshare} {
		if got, err := ParseAllocationMode(m.String()); err != nil || got != m {
			t.Errorf("ParseAllocationMode(%q) = %v, %v", m, got, err)
		}
	}
	for _, bad := range []string{"static", "lru", ""} {
		if _, err := ParseAllocationMode(bad); err == nil {
			t.Errorf("ParseAllocationMode(%q) succeeded", bad)
		}
	}
}
