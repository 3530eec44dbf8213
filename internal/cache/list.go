// Package cache provides the eviction-queue substrate used by Cliffhanger:
// one intrusive recency list (List, Node) and the queues built on it.
//
// What each type is for:
//
//   - List and Node are the only linked list in the repository. LRU links
//     its entries with it, and so does core.Queue, whose eight segments
//     (front, tail window, cliff shadow and hill shadow of two partitions)
//     are Lists over nodes that the queue's one index owns.
//   - LRU is memcached's eviction queue and the only policy the unmanaged
//     allocation modes have (default, static, global-LRU: one LRU per slab
//     class, or one per tenant). It has its own index and recycles its own
//     nodes. The Cliffhanger-managed modes do not use it.
//   - Shadow is a stand-alone key-only queue. The product no longer uses it:
//     a managed queue's shadow segments are Lists in core.Queue. It stays
//     because the repository benchmark's cache.shadow_access_ns row is pinned
//     to NewShadow, Push and Hit, so that row now times a type no request
//     touches; the next benchmark change should re-point it at core.Queue.
//
// All queues in this package account capacity in abstract "cost" units. For
// slab-class queues the cost of an entry is usually 1 (item counting, as in
// the paper's figures) or the slab chunk size in bytes; for application-level
// queues it is the item's byte size. The queues themselves are agnostic.
//
// None of the types in this package are safe for concurrent use; callers
// (internal/store, internal/sim) provide their own locking.
package cache

// Node is an intrusive doubly-linked list element holding one cache entry.
// Whoever indexes the entry owns the node: it may be unlinked from one List
// and linked into another, keeping its identity.
type Node struct {
	prev, next *Node
	Key        string
	Cost       int64
	// Aux is scratch space for the owner's per-entry metadata (for a
	// core.Queue entry, the queue and segment it is linked in).
	Aux int64
}

// List is a doubly-linked list with a sentinel root, modelled after
// container/list but specialized to *Node to avoid interface allocations on
// the hot path. It keeps order only; capacity and cost accounting belong to
// the queue that owns it.
type List struct {
	root Node
	len  int
}

// NewList returns an empty list.
func NewList() *List {
	l := &List{}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

// Len reports the number of elements in the list.
func (l *List) Len() int { return l.len }

// Front returns the first element or nil if the list is empty.
func (l *List) Front() *Node {
	if l.len == 0 {
		return nil
	}
	return l.root.next
}

// Back returns the last element or nil if the list is empty.
func (l *List) Back() *Node {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// PushFront inserts n at the front of the list.
func (l *List) PushFront(n *Node) {
	n.prev = &l.root
	n.next = l.root.next
	n.prev.next = n
	n.next.prev = n
	l.len++
}

// Remove unlinks n from the list. n must be an element of the list.
func (l *List) Remove(n *Node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = nil
	l.len--
}

// MoveToFront moves n to the front of the list. n must be an element of the
// list.
func (l *List) MoveToFront(n *Node) {
	if l.root.next == n {
		return
	}
	l.Remove(n)
	l.PushFront(n)
}

// Next returns the element after n, or nil if n is the last one. n must be an
// element of the list.
func (l *List) Next(n *Node) *Node {
	if n.next == &l.root {
		return nil
	}
	return n.next
}

// Keys returns the keys of the elements from front to back. It is intended
// for tests and diagnostics.
func (l *List) Keys() []string {
	keys := make([]string, 0, l.len)
	for n := l.Front(); n != nil; n = l.Next(n) {
		keys = append(keys, n.Key)
	}
	return keys
}
