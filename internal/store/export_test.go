package store

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

// HoldMaintenance keeps the store's maintenance goroutine from starting its
// next pass over the tenants until release is called, so a test can count
// what the requests alone swept.
func HoldMaintenance(s *Store) (release func()) {
	s.tickMu.Lock()
	return s.tickMu.Unlock
}
