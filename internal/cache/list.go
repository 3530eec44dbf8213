// Package cache provides the eviction-queue substrate used by Cliffhanger:
// one intrusive recency list (List, Node) and the queues built on it.
//
// What each type is for:
//
//   - List and Node are the only linked list in the repository. core.Queue
//     links its entries with it: its eight segments (front, tail window,
//     cliff shadow and hill shadow of two partitions) are Lists over its
//     nodes, which hold their keys only while resident. LRU links its
//     entries with it too.
//   - LRU is a stand-alone memcached eviction queue with its own index. The
//     product no longer uses it: every allocation mode's class queues are
//     core.Queues, and the unmanaged ones (default, static, global-LRU) are
//     core.Queues with the algorithm switched off. It stays as the reference
//     tests hold those queues (core's TestQueueWithAlgorithmOffIsLRU) and the
//     stack-distance calculator to, and because the repository benchmark
//     constructs one through NewPolicy.
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
// and linked into another, keeping its identity. It is 48 bytes, a size class
// of its own: Cost and Aux are 32 bits, which holds any cost a store charges
// (one chunk, at most the 1 MiB largest class) and any segment tag (a few per
// queue of a tenant or manager).
type Node struct {
	prev, next *Node
	// Key is the entry's key while it is resident; Hash(Key) stays.
	Key  string
	Hash uint64
	Cost int32
	// Aux is scratch space for the owner's per-entry metadata (for a
	// core.Queue entry, the queue and segment it is linked in).
	Aux int32
}

// Hash is the repository's one key hash, 64-bit FNV-1a, generic so that
// string- and byte-keyed callers agree.
func Hash[K ~string | ~[]byte](key K) uint64 {
	h := uint64(14695981039346656037) // the FNV-64 offset basis
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211 // the FNV-64 prime
	}
	return h
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
