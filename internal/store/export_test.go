package store

import (
	"fmt"
	"slices"

	"cliffhanger/internal/cache"
)

// AssertPagesFollowPeak shares the leases-follow-residency check with the
// external test package, which drives the store from internal/workload (a
// package this one cannot import: workload imports store).
var AssertPagesFollowPeak = assertPagesFollowPeak

// BufferedEvents returns how many events each of the tenant's shards holds
// buffered, read under the shard locks without sweeping or applying any.
func BufferedEvents(s *Store, tenant string) []int {
	e, _ := s.entry(tenant)
	n := make([]int, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n[i] = len(sh.pending)
		sh.mu.Unlock()
	}
	return n
}

// HoldSweep holds the tenant's bookkeeper lock until release is called, so
// none of its buffered events is applied: a request that fills a shard to the
// batch boundary finds the lock held and leaves its event buffered, and the
// maintenance tick waits. A request that takes its shard past the high-water
// mark waits to apply it inline, and so does every request of a synchronous
// store, so only an asynchronous store's requests below that mark get past.
func HoldSweep(s *Store, tenant string) (release func()) {
	e, _ := s.entry(tenant)
	e.bk.mu.Lock()
	return e.bk.mu.Unlock
}

// HoldMaintenance keeps the store's maintenance goroutine from starting its
// next pass over the tenants until release is called, so a test can count
// what the requests alone swept.
func HoldMaintenance(s *Store) (release func()) {
	s.tickMu.Lock()
	return s.tickMu.Unlock
}

// shardFor returns the stripe key hashes to.
func shardFor[K ~string | ~[]byte](e *tenantEntry, key K) *valueShard {
	return e.shard(cache.Hash(key))
}

// nodeOf is the node the tenant's string-keyed wrappers last placed key
// under, at size (nil if none).
func (t *Tenant) nodeOf(key string, size int64) *cache.Node {
	class, _ := t.ClassFor(size)
	return t.placed[placedKey{class, key}]
}

// numQueues and queueView let the page-ledger test read an unmanaged
// policy's queues without a tenant around them: queue i's capacity and charge
// in bytes and its resident item count.
func (p *classQueues) numQueues() int { return len(p.queues) }

func (p *classQueues) queueView(i int) (capacity, used int64, items int) {
	q := p.queues[i]
	return q.Capacity(), q.Used(), q.Items()
}

// ResidentSegments lists every record of the tenant, settled, as "key size
// tag" sorted by key: tag is the segment tag (cache.Node.Aux) of the queue
// node the record remembers, which names the partition and segment holding
// it.
func ResidentSegments(s *Store, tenant string) []string {
	s.Flush()
	e, _ := s.entry(tenant)
	var out []string
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for k, it := range sh.items {
			tag := "none"
			if it.node != nil {
				tag = fmt.Sprint(it.node.Aux)
			}
			out = append(out, fmt.Sprintf("%s %d %s", k, it.size, tag))
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// SetHitWindowOff holds every class's hit window at 0 while off is true, so
// every GET hit emits its event, and returns the function that restores the
// previous setting. A store publishes windows after each replay, so a test
// sets it before it drives one.
func SetHitWindowOff(off bool) (restore func()) {
	was := hitWindowOff.Swap(off)
	return func() { hitWindowOff.Store(was) }
}
