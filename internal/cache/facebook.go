package cache

// FacebookLRU implements the hybrid insertion scheme used by Facebook and
// evaluated in §5.5 of the paper: when an item is first inserted into the
// eviction queue it is placed at the *middle* of the queue rather than the
// top; only when it is hit again is it promoted to the top. Items that are
// never re-referenced therefore traverse only half the queue before being
// evicted, protecting the queue from scan pollution.
//
// The "middle" is maintained as an explicit marker node so that insertions
// and promotions stay O(1). Each node records which half it currently
// occupies in its aux field (0 = top half, 1 = bottom half).
type FacebookLRU struct {
	capacity int64
	used     int64
	ll       *List
	items    map[string]*Node
	// mid points at the first node of the bottom half (nil when the bottom
	// half is empty); belowMid counts the nodes in the bottom half.
	mid      *Node
	belowMid int
}

const (
	fbTopHalf    = 0
	fbBottomHalf = 1
)

// NewFacebookLRU returns an empty mid-point insertion LRU with the given
// capacity in cost units.
func NewFacebookLRU(capacity int64) *FacebookLRU {
	return &FacebookLRU{
		capacity: capacity,
		ll:       NewList(),
		items:    make(map[string]*Node),
	}
}

// Access implements Policy. A hit promotes the entry to the top of the
// queue; a miss inserts the entry at the mid-point.
func (f *FacebookLRU) Access(key string, cost int64) (bool, []Victim) {
	if n, ok := f.items[key]; ok {
		f.promote(n)
		f.rebalance()
		return true, nil
	}
	if cost > f.capacity {
		return false, []Victim{{Key: key, Cost: cost}}
	}
	n := &Node{Key: key, Cost: cost}
	f.items[key] = n
	f.insertAtMid(n)
	f.used += cost
	victims := f.evictOverflow(nil)
	f.rebalance()
	return false, victims
}

// Contains implements Policy.
func (f *FacebookLRU) Contains(key string) bool {
	_, ok := f.items[key]
	return ok
}

// Remove implements Policy.
func (f *FacebookLRU) Remove(key string) bool {
	n, ok := f.items[key]
	if !ok {
		return false
	}
	f.unlink(n)
	f.rebalance()
	return true
}

// Resize implements Policy.
func (f *FacebookLRU) Resize(capacity int64) []Victim {
	f.capacity = capacity
	victims := f.evictOverflow(nil)
	f.rebalance()
	return victims
}

// Capacity implements Policy.
func (f *FacebookLRU) Capacity() int64 { return f.capacity }

// Used implements Policy.
func (f *FacebookLRU) Used() int64 { return f.used }

// Len implements Policy.
func (f *FacebookLRU) Len() int { return f.ll.Len() }

// Keys returns keys from most to least recently used position. Intended for
// tests.
func (f *FacebookLRU) Keys() []string { return f.ll.Keys() }

// BottomHalfLen reports the number of entries currently in the probation
// (bottom) half. Intended for tests.
func (f *FacebookLRU) BottomHalfLen() int { return f.belowMid }

// promote moves a re-referenced entry to the very top of the queue.
func (f *FacebookLRU) promote(n *Node) {
	if n.Aux == fbBottomHalf {
		f.belowMid--
		if f.mid == n {
			f.mid = f.nextNode(n)
		}
		n.Aux = fbTopHalf
	}
	f.ll.MoveToFront(n)
}

// insertAtMid places a first-time entry at the current mid-point.
func (f *FacebookLRU) insertAtMid(n *Node) {
	n.Aux = fbBottomHalf
	if f.mid == nil {
		f.ll.PushBack(n)
	} else {
		f.ll.InsertBefore(n, f.mid)
	}
	f.mid = n
	f.belowMid++
}

// rebalance keeps the mid marker at roughly half the queue so that
// insertions land at the true middle regardless of the mix of promotions and
// evictions. Each call moves the marker at most a few steps; since every
// operation changes the half sizes by at most one, the marker stays within
// one element of the true middle.
func (f *FacebookLRU) rebalance() {
	total := f.ll.Len()
	if total == 0 {
		f.mid = nil
		f.belowMid = 0
		return
	}
	target := total / 2
	for f.belowMid < target {
		prev := f.prevNode(f.mid)
		if prev == nil {
			break
		}
		prev.Aux = fbBottomHalf
		f.mid = prev
		f.belowMid++
	}
	for f.belowMid > target {
		if f.mid == nil {
			f.belowMid = 0
			break
		}
		f.mid.Aux = fbTopHalf
		f.mid = f.nextNode(f.mid)
		f.belowMid--
	}
}

// nextNode returns the node after n, or nil at the tail.
func (f *FacebookLRU) nextNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	return f.ll.Next(n)
}

// prevNode returns the node before n, or the tail when n is nil, or nil at
// the head.
func (f *FacebookLRU) prevNode(n *Node) *Node {
	if n == nil {
		return f.ll.Back()
	}
	if n.prev == &f.ll.root {
		return nil
	}
	return n.prev
}

func (f *FacebookLRU) evictOverflow(victims []Victim) []Victim {
	for f.used > f.capacity {
		n := f.ll.Back()
		if n == nil {
			break
		}
		victims = append(victims, Victim{Key: n.Key, Cost: n.Cost})
		f.unlink(n)
	}
	return victims
}

func (f *FacebookLRU) unlink(n *Node) {
	if n.Aux == fbBottomHalf {
		f.belowMid--
		if f.mid == n {
			f.mid = f.nextNode(n)
		}
	}
	f.ll.Remove(n)
	delete(f.items, n.Key)
	f.used -= n.Cost
}
