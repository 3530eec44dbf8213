package store

// Process-wide page allocator: the memory-ownership half of the arena split.
// Every tenant arena used to conjure its own 1 MiB pages with make(), which
// made "move a page from tenant A to tenant B" meaningless — there was no
// shared pool to move it through. Now one pageAllocator per Store owns every
// raw page; arenas lease pages when a class has no free or uncarved chunk and
// return them when a page migration retires a page or a deleted tenant's
// quarantine drains. Returned pages go on a free pool and are re-leased
// before any new page is made, so tenant churn recycles physical memory
// instead of growing the heap (values are always length-bounded on read, so
// a recycled page's stale bytes are never observable).
//
// Lock order: pa.mu is a leaf below every other lock in the store — lease and
// release are called while holding a stripe or class mutex and never call
// out, so the order cannot invert.

import "sync"

// pageAllocator owns the process's raw slab pages and tracks which tenant
// holds a lease on each.
type pageAllocator struct {
	mu       sync.Mutex
	pageSize int64
	free     [][]byte
	total    int64            // pages ever created and still owned by the pool or a lease
	leased   map[string]int64 // live page leases per tenant
}

func newPageAllocator(pageSize int64) *pageAllocator {
	return &pageAllocator{pageSize: pageSize, leased: make(map[string]int64)}
}

// lease hands owner a zero-or-recycled page, preferring the free pool.
func (pa *pageAllocator) lease(owner string) []byte {
	pa.mu.Lock()
	var page []byte
	if n := len(pa.free); n > 0 {
		page = pa.free[n-1]
		pa.free[n-1] = nil
		pa.free = pa.free[:n-1]
	} else {
		page = make([]byte, pa.pageSize)
		pa.total++
	}
	pa.leased[owner]++
	pa.mu.Unlock()
	return page
}

// release returns one of owner's pages to the free pool. The caller must
// guarantee no live chunk reference into the page survives (the migration
// path drains residents through the event buffers and stragglers through
// quarantine before calling this).
func (pa *pageAllocator) release(owner string, page []byte) {
	pa.mu.Lock()
	pa.free = append(pa.free, page)
	if pa.leased[owner]--; pa.leased[owner] <= 0 {
		delete(pa.leased, owner)
	}
	pa.mu.Unlock()
}

// leaseCount reports how many pages owner currently holds.
func (pa *pageAllocator) leaseCount(owner string) int64 {
	pa.mu.Lock()
	n := pa.leased[owner]
	pa.mu.Unlock()
	return n
}

// PageStats is the process-wide page pool's occupancy snapshot: how many raw
// pages exist, how many sit unleased in the free pool, and how many each
// tenant holds. Served by the stats verb and the daemon's -stats-json dump.
type PageStats struct {
	PageSize   int64
	TotalPages int64
	FreePages  int64
	Leases     map[string]int64
}

func (pa *pageAllocator) stats() PageStats {
	pa.mu.Lock()
	out := PageStats{
		PageSize:   pa.pageSize,
		TotalPages: pa.total,
		FreePages:  int64(len(pa.free)),
		Leases:     make(map[string]int64, len(pa.leased)),
	}
	for owner, n := range pa.leased {
		out.Leases[owner] = n
	}
	pa.mu.Unlock()
	return out
}
