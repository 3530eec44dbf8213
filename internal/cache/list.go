// Package cache provides the eviction-queue substrate used by Cliffhanger:
// an intrusive LRU list, key-only shadow queues, and the baseline eviction
// policies the paper compares against (LFU, ARC, and Facebook's mid-point
// insertion scheme).
//
// All queues in this package account capacity in abstract "cost" units. For
// slab-class queues the cost of an entry is usually 1 (item counting, as in
// the paper's figures) or the slab chunk size in bytes; for application-level
// queues it is the item's byte size. The queues themselves are agnostic.
//
// None of the types in this package are safe for concurrent use; callers
// (internal/store, internal/sim) provide their own locking.
package cache

// node is an intrusive doubly-linked list element holding one cache entry.
type node struct {
	prev, next *node
	key        string
	cost       int64
	// aux is scratch space for policies that need per-entry metadata
	// (e.g. LFU frequency, Facebook first-hit marker).
	aux int64
}

// list is a doubly-linked list with a sentinel root, modelled after
// container/list but specialized to *node to avoid interface allocations on
// the hot path.
type list struct {
	root node
	len  int
}

func newList() *list {
	l := &list{}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

// Len reports the number of elements in the list.
func (l *list) Len() int { return l.len }

// Front returns the first element or nil if the list is empty.
func (l *list) Front() *node {
	if l.len == 0 {
		return nil
	}
	return l.root.next
}

// Back returns the last element or nil if the list is empty.
func (l *list) Back() *node {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// PushFront inserts n at the front of the list.
func (l *list) PushFront(n *node) {
	l.insert(n, &l.root)
}

// PushBack inserts n at the back of the list.
func (l *list) PushBack(n *node) {
	l.insert(n, l.root.prev)
}

// insert places n after at.
func (l *list) insert(n, at *node) {
	n.prev = at
	n.next = at.next
	n.prev.next = n
	n.next.prev = n
	l.len++
}

// Remove unlinks n from the list. n must be an element of the list.
func (l *list) Remove(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = nil
	l.len--
}

// MoveToFront moves n to the front of the list. n must be an element of the
// list.
func (l *list) MoveToFront(n *node) {
	if l.root.next == n {
		return
	}
	l.Remove(n)
	l.insert(n, &l.root)
}

// InsertBefore inserts n immediately before mark, which must be an element of
// the list.
func (l *list) InsertBefore(n, mark *node) {
	l.insert(n, mark.prev)
}
