package store

// Page-granular migration: the mechanism that lets a live tenant give memory
// back, one whole 1 MiB page at a time (Memshare's insight: move memory
// between tenants at slab-page granularity, evicting the donor page's
// residents, instead of item-by-item).
//
// A page retirement runs as a small state machine with at most one in flight
// per arena (arena.migrating):
//
//  1. PICK   — the driver walks the item directory under the shard locks and
//              chooses the class page with the fewest live chunks (the
//              coldest page).
//  2. PUBLISH — the migration record (class + page address range) is stored
//              in arena.migrating. From this instant the alloc intercept
//              guarantees no chunk of the page is ever handed out again.
//  3. SWEEP  — the page's chunks sitting idle on the class freelist, and
//              its uncarved remainder if it is the class's newest page, are
//              captured under the class mutex.
//  4. EVICT  — residents still on the page are evicted through the normal
//              per-shard event buffers (evMigrate), so queues, UsedBytes and
//              the conservation audit stay exact; their chunks retire into
//              quarantine like any other free.
//  5. DRAIN  — quarantined chunks of the page flow to the migration (instead
//              of back to a freelist) once every pinned reader has advanced
//              past their retirement epoch: reclaimStripeLocked redirects
//              them. Zero-copy readers are never torn.
//  6. RELEASE — when every chunk of the page is captured (got == want), the
//              class drops the page (pages--, buffer untracked) and the raw
//              page returns to the process-wide pageAllocator.
//
// Chunks captured by a migration form their own accounting state; every
// transition into it happens under the lock that guards the state the chunk
// leaves (stripe mutex for quarantine, class mutex for the freelist and the
// uncarved tail), which is what keeps the sealed conservation audit exact
// mid-migration.

import (
	"sort"
	"sync/atomic"
	"unsafe"
)

// migration is one in-flight page retirement.
type migration struct {
	class  int
	lo, hi uintptr // the retiring page's address range [lo, hi)
	buf    []byte  // the raw page, returned to the pool on completion
	want   int64   // chunks the page holds, carved or not (chunks-per-page)
	got    atomic.Int64
	done   atomic.Bool // latches the single completion
}

// sliceBase returns the address of a slice's backing array. The Go collector
// does not move heap objects, and the page buffers stay referenced for the
// whole migration, so the comparison is stable.
func sliceBase(b []byte) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))
}

// contains reports whether chunk lies in the retiring page.
func (m *migration) contains(chunk []byte) bool {
	p := sliceBase(chunk)
	return p >= m.lo && p < m.hi
}

// pageRange describes one carved page for the coldest-page scan.
type pageRange struct {
	class  int
	lo, hi uintptr
	buf    []byte
	live   int64 // resident chunks counted by the directory walk
}

// pageRanges snapshots every carved page's address range. Pages carved after
// the snapshot cannot be picked for retirement this round, which is fine —
// brand-new pages are not cold.
func (a *arena) pageRanges() []pageRange {
	var out []pageRange
	for c := range a.classes {
		cl := &a.classes[c]
		cl.mu.Lock()
		for _, buf := range cl.pageBufs {
			lo := sliceBase(buf)
			out = append(out, pageRange{class: c, lo: lo, hi: lo + uintptr(a.geom.PageSize), buf: buf})
		}
		cl.mu.Unlock()
	}
	return out
}

// startMigration publishes a retirement of the given page. The caller must
// ensure no migration is already in flight.
func (a *arena) startMigration(pr pageRange) *migration {
	m := &migration{
		class: pr.class,
		lo:    pr.lo,
		hi:    pr.hi,
		buf:   pr.buf,
		want:  a.classes[pr.class].perPage,
	}
	a.migrating.Store(m)
	return m
}

// migrationSweep captures the retiring page's chunks currently sitting idle
// on the class freelist, and its uncarved remainder. It is cheap and
// idempotent; the driver re-runs it every tick while the migration is in
// flight so a chunk that reached the freelist after one pass is caught by a
// later one. m.got is bumped inside the cl.mu section so the sealed audit
// never observes a chunk in neither state.
func (a *arena) migrationSweep(m *migration) {
	cl := &a.classes[m.class]
	cl.mu.Lock()
	kept := cl.free[:0]
	for _, c := range cl.free {
		if m.contains(c) {
			m.got.Add(1)
			continue
		}
		kept = append(kept, c)
	}
	clear(cl.free[len(kept):])
	cl.free = kept
	if len(cl.tail) > 0 && m.contains(cl.tail) {
		m.got.Add(cl.uncarvedLocked())
		cl.tail = nil
	}
	cl.mu.Unlock()
	a.maybeFinishMigration(m)
}

// maybeFinishMigration completes the retirement once every chunk of the page
// has been captured: the class drops the page under cl.mu (keeping the
// audit's pages/migrating view consistent) and the raw page goes back to the
// process pool. Safe to call from any capture site; callers may hold a
// stripe mutex (cl.mu and pa.mu are below it in the lock order).
func (a *arena) maybeFinishMigration(m *migration) {
	if m.got.Load() != m.want || !m.done.CompareAndSwap(false, true) {
		return
	}
	cl := &a.classes[m.class]
	cl.mu.Lock()
	cl.pages--
	for i, buf := range cl.pageBufs {
		if sliceBase(buf) == m.lo {
			last := len(cl.pageBufs) - 1
			cl.pageBufs[i] = cl.pageBufs[last]
			cl.pageBufs[last] = nil
			cl.pageBufs = cl.pageBufs[:last]
			break
		}
	}
	a.migrating.Store(nil)
	cl.mu.Unlock()
	a.pa.release(a.owner, m.buf)
}

// resizeStepBytes bounds how much structural capacity one reconfigure tick
// claws back, so a maintenance tick never stalls traffic behind one huge
// shrink (growth is applied in one go — it evicts nothing).
const resizeStepBytes int64 = 8 << 20

// reconfigureNeeded is the maintenance tick's cheap is-there-work probe: a few
// atomic loads in the steady state. Physical page retirement is only ever
// pending on tenants that have been explicitly resized.
func (e *tenantEntry) reconfigureNeeded() bool {
	if e.dying.Load() {
		return false
	}
	if e.targetBytes.Load() != e.appliedBytes.Load() {
		return true
	}
	if !e.resized.Load() {
		return false
	}
	if e.arena.migrating.Load() != nil {
		return true
	}
	return e.arena.pa.leaseCount(e.arena.owner) > e.physicalTargetPages(e.targetBytes.Load())
}

// reconfigureTick advances the tenant toward its target reservation by one
// bounded step — first structural capacity (under bk.mu, dropping the
// victims like any eviction replay), then physical page retirement — and
// reports whether work remains. Serialized by reconfMu so the maintenance
// tick and synchronous ResizeTenant callers never interleave steps.
func (e *tenantEntry) reconfigureTick() bool {
	e.reconfMu.Lock()
	defer e.reconfMu.Unlock()
	if e.dying.Load() {
		return false
	}
	target := e.targetBytes.Load()

	e.bk.mu.Lock()
	cur := e.tenant.MemoryBytes()
	if cur != target {
		next := target
		if target < cur-resizeStepBytes {
			next = cur - resizeStepBytes
		}
		for _, v := range e.tenant.Resize(next) {
			e.dropVictim(v.Key, v.Hash)
		}
		cur = next
		e.appliedBytes.Store(next)
		e.bk.publishLocked()
	}
	e.bk.mu.Unlock()

	more := cur != target
	if e.resized.Load() {
		more = e.physicalStep(target) || more
	}
	return more
}

// physicalStep advances (or starts) page retirement toward the target lease
// count by at most one page, reporting whether physical work remains. Each
// call re-sweeps the freelist — catching chunks that reached it after an
// earlier pass — evicts any residents still on the page, and gives
// quarantined stragglers an epoch tick to drain.
func (e *tenantEntry) physicalStep(target int64) bool {
	a := e.arena
	m := a.migrating.Load()
	if m == nil {
		if a.pa.leaseCount(a.owner) <= e.physicalTargetPages(target) {
			return false
		}
		pr, ok := e.pickColdestPage()
		if !ok {
			return false
		}
		m = a.startMigration(pr)
	}
	a.migrationSweep(m)
	e.evictMigrating(m)
	a.advanceEpoch()
	a.reclaim()
	return a.migrating.Load() != nil || a.pa.leaseCount(a.owner) > e.physicalTargetPages(target)
}

// physicalTargetPages is the lease count a resized tenant shrinks toward:
// the reservation in pages plus rounding slack — one page per class holding
// pages (a class's structural capacity rarely lands on a page boundary) and
// a couple for quarantine transients. The slack is the anti-thrash margin:
// without it the driver would retire pages the workload immediately
// re-carves, paying evictions for nothing.
func (e *tenantEntry) physicalTargetPages(target int64) int64 {
	a := e.arena
	ps := a.geom.PageSize
	pages := (target + ps - 1) / ps
	var slack int64 = 2
	for c := range a.classes {
		cl := &a.classes[c]
		cl.mu.Lock()
		if cl.pages > 0 {
			slack++
		}
		cl.mu.Unlock()
	}
	return pages + slack
}

// pickColdestPage walks the item directory under the shard locks, counts
// live chunks per carved page, and returns the page with the fewest — the
// cheapest page to retire, Memshare's donor choice. ok is false when the
// arena holds no pages.
func (e *tenantEntry) pickColdestPage() (pageRange, bool) {
	pages := e.arena.pageRanges()
	if len(pages) == 0 {
		return pageRange{}, false
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].lo < pages[j].lo })
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, it := range sh.items {
			if it.value == nil {
				continue
			}
			p := sliceBase(it.value)
			idx := sort.Search(len(pages), func(k int) bool { return pages[k].lo > p }) - 1
			if idx >= 0 && p < pages[idx].hi {
				pages[idx].live++
			}
		}
		sh.mu.Unlock()
	}
	best := 0
	for i := range pages {
		if pages[i].live < pages[best].live {
			best = i
		}
	}
	return pages[best], true
}

// evictMigrating removes every resident whose chunk sits on the retiring
// page, through the normal per-shard event buffers (evMigrate) — exactly the
// reaper's discipline — so queues, UsedBytes and the conservation audit stay
// exact. The freed chunks retire into quarantine and reach the migration via
// the reclaim redirect once every pinned reader has moved past them.
// Idempotent: the alloc intercept guarantees no new resident can land on the
// page after the migration published, so repeat walks find nothing.
func (e *tenantEntry) evictMigrating(m *migration) {
	onPage := func(it *item) bool { return it.value != nil && m.contains(it.value) }
	for i := range e.shards {
		e.removeWhere(&e.shards[i], evMigrate, 0, onPage)
	}
}

// usedChunks totals resident chunks across all classes (zero on a fully
// drained arena).
func (a *arena) usedChunks() int64 {
	var n int64
	for c := range a.classes {
		n += a.classes[c].used.Load()
	}
	return n
}

// releaseAll returns every page to the process pool. Only legal once the
// arena is fully drained: no resident chunks, nothing quarantined, no
// migration in flight — i.e. every chunk is free or uncarved and no reader
// can hold a pinned view (the delete teardown waits for exactly that).
func (a *arena) releaseAll() {
	for c := range a.classes {
		cl := &a.classes[c]
		cl.mu.Lock()
		cl.free, cl.tail = nil, nil
		bufs := cl.pageBufs
		cl.pageBufs = nil
		cl.pages = 0
		cl.mu.Unlock()
		for _, buf := range bufs {
			a.pa.release(a.owner, buf)
		}
	}
}
