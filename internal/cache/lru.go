package cache

// Victim describes an entry that was evicted from a queue, either because the
// queue overflowed or because it was resized below its current usage.
type Victim struct {
	Key  string
	Hash uint64 // the key's Hash, from a core.Queue only
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
	ll       *List
	items    map[string]*Node
	free     *Node // freelist of recycled nodes (singly linked via next)
}

// NewLRU returns an empty LRU queue with the given capacity in cost units.
// A non-positive capacity creates a queue that admits nothing.
func NewLRU(capacity int64) *LRU {
	return &LRU{
		capacity: capacity,
		ll:       NewList(),
		items:    make(map[string]*Node),
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

// Get looks up key and, if present, promotes it to the most-recently-used
// position. It reports whether the key was found.
func (l *LRU) Get(key string) bool {
	n, ok := l.items[key]
	if ok {
		l.ll.MoveToFront(n)
	}
	return ok
}

// Access is a combined lookup-and-fill, the way a demand-filled web cache
// behaves (a GET miss is followed by a database read and a SET of the same
// key): a resident key is promoted and hit is true; otherwise the key is
// inserted with cost and the entries evicted to make room are returned.
func (l *LRU) Access(key string, cost int64) (hit bool, victims []Victim) {
	if l.Get(key) {
		return true, nil
	}
	return false, l.Add(key, cost)
}

// Add inserts key with the given cost at the most-recently-used position,
// updating the cost if the key is already present, and returns any entries
// evicted to stay within capacity. If the entry itself is larger than the
// queue's capacity it is not admitted and is returned as its own victim.
func (l *LRU) Add(key string, cost int64) []Victim {
	if n, ok := l.items[key]; ok {
		l.used += cost - int64(n.Cost)
		n.Cost = int32(cost)
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

// Resize changes the queue capacity and returns entries evicted to fit the
// new capacity (oldest first).
func (l *LRU) Resize(capacity int64) []Victim {
	l.capacity = capacity
	return l.evictOverflow(nil)
}

// Keys returns the keys currently in the queue ordered from most to least
// recently used. It is intended for tests and diagnostics.
func (l *LRU) Keys() []string { return l.ll.Keys() }

func (l *LRU) evictOverflow(victims []Victim) []Victim {
	for l.used > l.capacity {
		n := l.ll.Back()
		if n == nil {
			break
		}
		victims = append(victims, Victim{Key: n.Key, Cost: int64(n.Cost)})
		l.unlink(n)
	}
	return victims
}

func (l *LRU) unlink(n *Node) {
	l.ll.Remove(n)
	delete(l.items, n.Key)
	l.used -= int64(n.Cost)
	l.recycle(n)
}

func (l *LRU) newNode(key string, cost int64) *Node {
	if n := l.free; n != nil {
		l.free = n.next
		n.next = nil
		n.Key = key
		n.Cost = int32(cost)
		return n
	}
	return &Node{Key: key, Cost: int32(cost)}
}

func (l *LRU) recycle(n *Node) {
	n.Key = ""
	n.next = l.free
	l.free = n
}
