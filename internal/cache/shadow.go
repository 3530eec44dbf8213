package cache

// Shadow is a key-only LRU queue: it remembers which keys were recently
// evicted from a physical queue without holding their values. Shadow queues
// are the central measurement device of Cliffhanger (§3.4): the rate of hits
// in a queue's shadow queue approximates the local gradient of the queue's
// hit-rate curve, because a shadow hit means "this request would have been a
// hit had the physical queue been larger by the shadow's size".
//
// Capacity is expressed in the same cost units as the physical queue it
// extends. For a slab class whose chunks are all the same size the paper
// sizes shadow queues as shadowBytes/chunkSize items; that conversion is the
// caller's responsibility.
type Shadow struct {
	lru *LRU
}

// NewShadow returns an empty shadow queue with the given capacity in cost
// units.
func NewShadow(capacity int64) *Shadow {
	return &Shadow{lru: NewLRU(capacity)}
}

// Push records that key (with the given cost) was evicted from the physical
// queue, inserting it at the most-recent end of the shadow queue. Keys that
// overflow the shadow queue are forgotten and returned so that stacked
// shadow queues (Figure 5 of the paper) can cascade them onward.
func (s *Shadow) Push(key string, cost int64) []Victim {
	return s.lru.Add(key, cost)
}

// Hit checks whether key is present in the shadow queue; if so the key is
// removed (it is about to be re-admitted into the physical queue) and Hit
// returns true.
func (s *Shadow) Hit(key string) bool {
	if !s.lru.Contains(key) {
		return false
	}
	s.lru.Remove(key)
	return true
}

// Contains reports whether key is present without modifying the queue.
func (s *Shadow) Contains(key string) bool { return s.lru.Contains(key) }

// Remove deletes key from the shadow queue if present.
func (s *Shadow) Remove(key string) bool { return s.lru.Remove(key) }

// Resize changes the shadow queue capacity, forgetting overflowed keys.
func (s *Shadow) Resize(capacity int64) []Victim { return s.lru.Resize(capacity) }

// Len reports the number of keys remembered.
func (s *Shadow) Len() int { return s.lru.Len() }

// Used reports the total cost of keys remembered.
func (s *Shadow) Used() int64 { return s.lru.Used() }

// Capacity reports the shadow queue capacity in cost units.
func (s *Shadow) Capacity() int64 { return s.lru.Capacity() }

// Keys returns remembered keys from most to least recently evicted. It is
// intended for tests.
func (s *Shadow) Keys() []string { return s.lru.Keys() }
