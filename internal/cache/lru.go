package cache

// Victim describes an entry that was evicted from a queue, either because the
// queue overflowed or because it was resized below its current usage.
type Victim struct {
	Key  string
	Cost int64
}

// LRU is a classic least-recently-used eviction queue with a capacity
// expressed in cost units. The cost of an entry is supplied by the caller on
// insertion; item-counting queues simply use cost 1.
//
// The zero value is not usable; construct with NewLRU.
type LRU struct {
	capacity int64
	used     int64
	ll       *list
	items    map[string]*node
	free     *node // freelist of recycled nodes (singly linked via next)
}

// NewLRU returns an empty LRU queue with the given capacity in cost units.
// A non-positive capacity creates a queue that admits nothing.
func NewLRU(capacity int64) *LRU {
	return &LRU{
		capacity: capacity,
		ll:       newList(),
		items:    make(map[string]*node),
	}
}

// Len reports the number of entries currently in the queue.
func (l *LRU) Len() int { return l.ll.Len() }

// Used reports the total cost of entries currently in the queue.
func (l *LRU) Used() int64 { return l.used }

// Capacity reports the queue's capacity in cost units.
func (l *LRU) Capacity() int64 { return l.capacity }

// Contains reports whether key is present without updating recency.
func (l *LRU) Contains(key string) bool {
	_, ok := l.items[key]
	return ok
}

// Cost returns the stored cost of key and whether it is present, without
// updating recency.
func (l *LRU) Cost(key string) (int64, bool) {
	n, ok := l.items[key]
	if !ok {
		return 0, false
	}
	return n.cost, true
}

// Handle refers to an entry found by Probe. It stays valid until the next
// call that adds, removes or evicts entries; the zero Handle refers to
// nothing.
type Handle struct{ n *node }

// Probe looks up key without updating recency and returns a handle to its
// entry, so that a caller that decides to promote it does not pay a second
// map lookup.
func (l *LRU) Probe(key string) (Handle, bool) {
	n, ok := l.items[key]
	return Handle{n}, ok
}

// Promote moves the entry h refers to to the most-recently-used position.
func (l *LRU) Promote(h Handle) { l.ll.MoveToFront(h.n) }

// Get looks up key and, if present, promotes it to the most-recently-used
// position. It reports whether the key was found.
func (l *LRU) Get(key string) bool {
	h, ok := l.Probe(key)
	if ok {
		l.Promote(h)
	}
	return ok
}

// Touch promotes key to the most-recently-used position if present, without
// reporting anything. It is a convenience wrapper around Get.
func (l *LRU) Touch(key string) { l.Get(key) }

// Add inserts key with the given cost at the most-recently-used position,
// updating the cost if the key is already present, and returns any entries
// evicted to stay within capacity. If the entry itself is larger than the
// queue's capacity it is not admitted and is returned as its own victim.
func (l *LRU) Add(key string, cost int64) []Victim {
	if n, ok := l.items[key]; ok {
		l.used += cost - n.cost
		n.cost = cost
		l.ll.MoveToFront(n)
		return l.evictOverflow(nil)
	}
	if cost > l.capacity {
		// Entry can never fit; reject it outright so callers can drop
		// the value instead of flushing the whole queue.
		return []Victim{{Key: key, Cost: cost}}
	}
	n := l.newNode(key, cost)
	l.items[key] = n
	l.ll.PushFront(n)
	l.used += cost
	return l.evictOverflow(nil)
}

// Remove deletes key from the queue and reports whether it was present.
func (l *LRU) Remove(key string) bool {
	n, ok := l.items[key]
	if !ok {
		return false
	}
	l.unlink(n)
	return true
}

// RemoveOldest evicts the least-recently-used entry and returns it. The
// second return value is false if the queue is empty.
func (l *LRU) RemoveOldest() (Victim, bool) {
	n := l.ll.Back()
	if n == nil {
		return Victim{}, false
	}
	v := Victim{Key: n.key, Cost: n.cost}
	l.unlink(n)
	return v, true
}

// PeekOldest returns the least-recently-used entry without removing it.
func (l *LRU) PeekOldest() (Victim, bool) {
	n := l.ll.Back()
	if n == nil {
		return Victim{}, false
	}
	return Victim{Key: n.key, Cost: n.cost}, true
}

// Resize changes the queue capacity and returns entries evicted to fit the
// new capacity (oldest first).
func (l *LRU) Resize(capacity int64) []Victim {
	l.capacity = capacity
	return l.evictOverflow(nil)
}

// Keys returns the keys currently in the queue ordered from most to least
// recently used. It is intended for tests and diagnostics.
func (l *LRU) Keys() []string {
	keys := make([]string, 0, l.ll.Len())
	for n := l.ll.Front(); n != nil && n != &l.ll.root; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}

// TailKeys returns up to n keys from the least-recently-used end, ordered
// from oldest to newest. It is intended for tests and diagnostics.
func (l *LRU) TailKeys(n int) []string {
	keys := make([]string, 0, n)
	for e := l.ll.Back(); e != nil && e != &l.ll.root && len(keys) < n; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}

// Clear removes every entry from the queue.
func (l *LRU) Clear() {
	l.ll = newList()
	l.items = make(map[string]*node)
	l.used = 0
	l.free = nil
}

func (l *LRU) evictOverflow(victims []Victim) []Victim {
	for l.used > l.capacity {
		n := l.ll.Back()
		if n == nil {
			break
		}
		victims = append(victims, Victim{Key: n.key, Cost: n.cost})
		l.unlink(n)
	}
	return victims
}

func (l *LRU) unlink(n *node) {
	l.ll.Remove(n)
	delete(l.items, n.key)
	l.used -= n.cost
	l.recycle(n)
}

func (l *LRU) newNode(key string, cost int64) *node {
	if n := l.free; n != nil {
		l.free = n.next
		n.next = nil
		n.key = key
		n.cost = cost
		n.aux = 0
		return n
	}
	return &node{key: key, cost: cost}
}

func (l *LRU) recycle(n *node) {
	n.key = ""
	n.next = l.free
	l.free = n
}
