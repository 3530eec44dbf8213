package store

// This file is the allocation-policy layer: everything about a tenant that
// depends on its AllocationMode. The seam is "managed by the paper's algorithm
// or not", so there are two implementations of one interface. classQueues is
// every baseline the paper compares against (stock memcached, the Dynacache
// solver's fixed split, Table 2's global LRU): plain eviction queues that
// differ only in where the reservation starts. managedPolicy is Cliffhanger,
// and Memshare within a tenant; what distinguishes AllocMemshare is the
// store-level arbiter (arbiter.go) moving memory *between* tenants. A Tenant
// owns exactly one partitionPolicy and keeps only the mode-independent parts
// for itself: hit/miss/set counters and the class-indexed stat arrays.
//
// Like Tenant itself, policies are single-threaded; the bookkeeper (or the
// simulator's one goroutine) serializes access.

import (
	"cliffhanger/internal/cache"
	"cliffhanger/internal/core"
	"cliffhanger/internal/slab"
)

// partitionPolicy is how a tenant divides its reservation across queues and
// charges items against it. The hooks mirror the tenant's public surface:
// classFor/cost map an item to a queue and a charge, promoteResident/admit/
// remove mutate the structure, resize retargets the reservation, and
// numQueues/queueView feed Stats/ClassCapacities/UsedBytes.
type partitionPolicy interface {
	// classFor returns the queue an item of the given size belongs to. It
	// reports false for an item no chunk can hold, in every mode.
	classFor(size int64) (int, bool)
	// cost returns the bytes charged for an item of the given size.
	cost(class int, size int64) int64
	// promoteResident is the GET/touch path: it re-accesses key if it is
	// resident and reports whether that was a hit; a key that is not
	// resident is left alone (a GET miss does not admit). node is the queue
	// node admit returned for key, nil if none: while it still holds key the
	// access goes through it, and otherwise the key is probed, which probed
	// reports. The victims of a pending resize the hit applied (with
	// ResizeOnMissOnly off) are returned for the caller to drop, as admit's
	// are.
	promoteResident(class int, key string, node *cache.Node, cost int64) (hit bool, victims []cache.Victim, probed bool)
	// admit inserts (or promotes) key, growing the queue first while the
	// reservation has unassigned memory, and returns the accompanying
	// evictions and the queue node key was placed under (nil in the
	// unmanaged modes, whose queues give out none).
	admit(class int, key string, cost int64) (bool, []cache.Victim, *cache.Node)
	// remove drops key's structural entry.
	remove(class int, key string) bool
	// resize retargets the reservation from oldBytes to newBytes and
	// returns the victims a shrink evicted.
	resize(oldBytes, newBytes int64) []cache.Victim
	// numQueues and queueView are the snapshot side: queue i's capacity and
	// charge in bytes and its resident item count, in class order (a global
	// LRU has one queue, reported as class 0).
	numQueues() int
	queueView(i int) (capacity, used int64, items int)
	// manager exposes the Cliffhanger manager, nil for classQueues.
	manager() *core.Manager
}

// classQueues is every unmanaged mode: one eviction queue per slab class
// charged by the chunk, or (global) a single queue over all sizes charged by
// the byte, which emulates a log-structured cache at 100 % utilization
// (Table 2). Its ledger is one number, the bytes of the reservation no queue
// holds yet; the queues' capacities say who holds the rest. A queue with no
// room takes a whole page of it, first come first served, as stock memcached
// does (§2), and nothing but a live resize ever takes a page back. The modes
// differ only in where that starts:
//
//   - AllocDefault: every queue at 0, the whole reservation free.
//   - AllocStatic: every queue at its solver-provided budget, nothing free,
//     so queues never grow.
//   - AllocGlobalLRU: the one queue holds the whole reservation, nothing free.
type classQueues struct {
	geom   *slab.Geometry
	queues []cache.Policy
	free   int64
	// global: a single queue, charged by the byte.
	global bool
}

func newClassQueues(cfg TenantConfig, geom *slab.Geometry) *classQueues {
	if cfg.Mode == AllocGlobalLRU {
		one := cache.NewPolicy(cfg.Policy, cfg.MemoryBytes)
		return &classQueues{geom: geom, queues: []cache.Policy{one}, global: true}
	}
	p := &classQueues{geom: geom, queues: make([]cache.Policy, geom.NumClasses())}
	for c := range p.queues {
		budget := int64(0)
		if cfg.Mode == AllocStatic {
			if budget = cfg.StaticClassBytes[c]; budget <= 0 {
				budget = geom.ChunkSize(c) // room for at least one item
			}
		}
		p.queues[c] = cache.NewPolicy(cfg.Policy, budget)
	}
	if cfg.Mode != AllocStatic {
		p.free = cfg.MemoryBytes
	}
	return p
}

func (p *classQueues) classFor(size int64) (int, bool) {
	class, ok := p.geom.ClassFor(size)
	if p.global {
		class = 0
	}
	return class, ok
}

func (p *classQueues) cost(class int, size int64) int64 {
	if p.global {
		return max(size, 1)
	}
	return p.geom.ChunkSize(class)
}

// promoteResident touches the queue only when the key is already resident:
// cache.Policy couples lookup and fill. It has no node to go through, so every
// call probes.
func (p *classQueues) promoteResident(class int, key string, _ *cache.Node, cost int64) (bool, []cache.Victim, bool) {
	q := p.queues[class]
	if !q.Contains(key) {
		return false, nil, true
	}
	hit, victims := q.Access(key, cost)
	return hit, victims, true
}

func (p *classQueues) admit(class int, key string, cost int64) (bool, []cache.Victim, *cache.Node) {
	q, page := p.queues[class], p.geom.PageSize
	for q.Used()+cost > q.Capacity() && p.free >= page {
		p.free -= page
		q.Resize(q.Capacity() + page)
	}
	hit, victims := q.Access(key, cost)
	return hit, victims, nil
}

func (p *classQueues) remove(class int, key string) bool { return p.queues[class].Remove(key) }

// resize moves the difference into or out of the free count. Growth reaches
// the queues through admit; a shrink that leaves the count negative takes a
// page at a time off the largest queue until it clears.
func (p *classQueues) resize(oldBytes, newBytes int64) []cache.Victim {
	p.free += newBytes - oldBytes
	var victims []cache.Victim
	for p.free < 0 {
		var largest cache.Policy
		most := int64(0)
		for _, q := range p.queues {
			if c := q.Capacity(); c > most {
				largest, most = q, c
			}
		}
		if largest == nil {
			break
		}
		take := min(p.geom.PageSize, most)
		p.free += take
		victims = append(victims, largest.Resize(most-take)...)
	}
	return victims
}

func (p *classQueues) numQueues() int { return len(p.queues) }

func (p *classQueues) queueView(i int) (capacity, used int64, items int) {
	q := p.queues[i]
	return q.Capacity(), q.Used(), q.Len()
}

func (p *classQueues) manager() *core.Manager { return nil }

// managedPolicy runs the paper's algorithm: one Cliffhanger manager per
// tenant moves memory between slab-class queues using shadow-queue hill
// climbing and scales performance cliffs. It serves both AllocCliffhanger
// and AllocMemshare — the latter differs only in that the store's arbiter
// additionally resizes the whole tenant at runtime.
//
// The manager's queues are created one per slab class in class order, so a
// class index is also the queue's index (core.Manager.QueueAt).
type managedPolicy struct {
	geom *slab.Geometry
	mgr  *core.Manager
	// free is the part of the reservation, in bytes, that no class queue has
	// been granted yet. It is the policy's whole ledger: the queues'
	// capacities say who holds the rest (free + mgr.CapacitySum() is the
	// reservation plus the queues' MinQueueBytes floors, which are not
	// charged), and the arena below leases physical pages as chunks are
	// actually needed.
	free int64
}

func newManagedPolicy(cfg TenantConfig, geom *slab.Geometry) (*managedPolicy, error) {
	// Cliffhanger starts from first-come-first-serve allocation like stock
	// Memcached (each queue begins near zero and takes unassigned memory on
	// demand) and then incrementally reassigns memory between the class
	// queues. Every queue therefore starts at the manager's minimum size,
	// and admit hands out the reservation until it runs out.
	n := geom.NumClasses()
	specs := make([]core.QueueSpec, 0, n)
	for c := 0; c < n; c++ {
		specs = append(specs, core.QueueSpec{
			ID:              classQueueID(c),
			UnitCost:        geom.ChunkSize(c),
			InitialCapacity: 1, // clamped up to the configured minimum
		})
	}
	m, err := core.NewManager(cfg.Cliffhanger, cfg.MemoryBytes, specs)
	if err != nil {
		return nil, err
	}
	p := &managedPolicy{geom: geom, mgr: m, free: cfg.MemoryBytes}
	m.SetSpare(func() bool { return p.free > 0 })
	return p, nil
}

func (p *managedPolicy) classFor(size int64) (int, bool) { return p.geom.ClassFor(size) }

func (p *managedPolicy) cost(class int, size int64) int64 { return p.geom.ChunkSize(class) }

func (p *managedPolicy) promoteResident(class int, key string, node *cache.Node, cost int64) (bool, []cache.Victim, bool) {
	return p.mgr.QueueAt(class).AccessResident(key, node, cost)
}

func (p *managedPolicy) admit(class int, key string, cost int64) (bool, []cache.Victim, *cache.Node) {
	victims := p.growIfNeeded(class, key, cost)
	out, node := p.mgr.AccessAt(class, key, cost)
	return out.Hit, append(victims, out.Evicted...), node
}

func (p *managedPolicy) remove(class int, key string) bool {
	return p.mgr.QueueAt(class).Remove(key)
}

// resize retargets the reservation. The manager claws a shrink back from the
// largest queues; whatever the queues then hold beyond their floors is what
// has been granted, and the rest of the new reservation is free again.
func (p *managedPolicy) resize(oldBytes, newBytes int64) []cache.Victim {
	victims := p.mgr.Resize(newBytes)
	granted := p.mgr.CapacitySum() - int64(p.mgr.NumQueues())*p.mgr.Config().MinQueueBytes
	p.free = max(newBytes-granted, 0)
	return victims
}

// grantsPerPage sets the step in which a class queue takes unassigned memory:
// a quarter of a slab page, or one chunk where a chunk is larger. The paper
// inherits memcached's whole-page grants, which is harmless when a page is
// ~1 % of an application's memory and not when a tenant holds a handful of
// pages: the first class to miss takes a page it may fill a tenth of, and the
// classes that miss after the last page is gone start at MinQueueBytes and
// wait for 4 KiB credits. A grant is only a number (the arena leases physical
// pages as chunks are needed, whatever the queues were promised), so the step
// could be one chunk. It should not be: a step is also headroom reserved ahead
// of need, which hill climbing can later move without evicting anything. On
// the Memcachier trace tenants run out of budget 95 % full with 4 KiB steps,
// 76 % full with a quarter page and 38 % full with whole pages, and bench/'s
// cliff_fill reads 0.7508, 0.7579 and 0.7409 (CHANGES.md PR 21 has the table).
const grantsPerPage = 4

// growIfNeeded is the managed counterpart of the default policy's on-demand
// growth: while part of the reservation is still unassigned, a class queue
// that has no room for key takes it, a grant step at a time, until the key
// has room or nothing is left; from then on only the hill-climbing credit
// transfers change queue sizes.
//
// "No room" is asked of the partition key routes to (Queue.HasRoom), because
// that is where the eviction would happen: asked of the queue as a whole, a
// full partition evicted while its sibling had slack and free memory sat
// idle. It is asked again after every grant because one grant need not reach
// that partition: the grant that takes a queue over CliffMinItems splits it,
// splitResidents leaves the left partition exactly full, and a key that
// routes left has room only after the next one. (A partition that cliff
// scaling is shrinking never gets room this way and takes what is left of
// the reservation.) A key that is already resident asks for nothing, since
// re-accessing it takes no room; the simulator sends hits through admit as
// well, and would otherwise grow a full queue on a hit where the store,
// whose hits never come here, waits for the next miss.
//
// Hill-climbing capacity changes are applied lazily (on the next miss, per
// the paper's thrash-avoidance rule), but a grant is applied eagerly here:
// the admission's insert runs before the end-of-access resize, so under the
// lazy rule fresh memory would not help the very item that requested it — a
// cold queue whose chunk size exceeds MinQueueBytes bounced its first
// admission outright, and an exactly-full queue evicted its LRU entry with
// the memory already granted. Stock Memcached grows immediately, so the
// eager apply is also the faithful behavior. Any victims of the applied
// resizes are returned for the caller to drop.
func (p *managedPolicy) growIfNeeded(class int, key string, cost int64) []cache.Victim {
	q := p.mgr.QueueAt(class)
	step := max(p.geom.PageSize/grantsPerPage, p.geom.ChunkSize(class))
	var victims []cache.Victim
	for p.free > 0 && !q.HasRoom(key, cost) && !q.Contains(key) {
		grant := min(step, p.free)
		p.free -= grant
		q.Grow(grant)
		victims = append(victims, q.ForceApplyResize()...)
	}
	if q.AppliedCapacity() < cost {
		victims = append(victims, q.ForceApplyResize()...)
	}
	return victims
}

func (p *managedPolicy) numQueues() int { return p.mgr.NumQueues() }

func (p *managedPolicy) queueView(i int) (capacity, used int64, items int) {
	q := p.mgr.QueueAt(i)
	return q.Capacity(), q.Used(), q.Items()
}

func (p *managedPolicy) manager() *core.Manager { return p.mgr }

// newPartitionPolicy builds the policy for cfg's mode.
func newPartitionPolicy(cfg TenantConfig, geom *slab.Geometry) (partitionPolicy, error) {
	if cfg.Mode == AllocCliffhanger || cfg.Mode == AllocMemshare {
		return newManagedPolicy(cfg, geom)
	}
	return newClassQueues(cfg, geom), nil
}
