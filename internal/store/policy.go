package store

// This file is the allocation-policy layer: the per-mode behavior that used
// to be dispatched through `switch t.cfg.Mode` statements scattered across
// tenant.go lives in one interface with four implementations, one per
// AllocationMode family. A Tenant owns exactly one partitionPolicy and keeps
// only the mode-independent parts for itself — hit/miss/set counters and the
// class-indexed stat arrays — so adding an allocation mode means adding an
// implementation here, not threading another case through a dozen switches.
// AllocMemshare reuses managedPolicy: within a tenant it behaves exactly
// like Cliffhanger; what distinguishes it is the store-level arbiter
// (arbiter.go) moving memory *between* tenants.
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
// remove mutate the structure, resize retargets the reservation, and the
// snapshot hooks feed Stats/ClassCapacities/UsedBytes.
type partitionPolicy interface {
	// classFor returns the queue an item of the given size belongs to.
	classFor(size int64) (int, bool)
	// cost returns the bytes charged for an item of the given size.
	cost(class int, size int64) int64
	// promoteResident is the GET/touch path: it re-accesses key if it is
	// resident and reports whether that was a hit; a key that is not
	// resident is left alone (a GET miss does not admit). Eviction side
	// effects of lazily applied resizes are deliberately dropped, matching
	// the pre-extraction behavior.
	promoteResident(class int, key string, cost int64) bool
	// admit inserts (or promotes) key, growing the queue first where the
	// mode allows it, and returns the accompanying evictions.
	admit(class int, key string, cost int64) (bool, []cache.Victim)
	// remove drops key's structural entry.
	remove(class int, key string) bool
	// resize retargets the reservation from oldBytes to newBytes and
	// returns the victims a shrink evicted.
	resize(oldBytes, newBytes int64) []cache.Victim
	// Snapshot hooks, keyed by slab class (class 0 for global LRU).
	capacities() map[int]int64
	items() map[int]int
	used() map[int]int64
	usedBytes() int64
	// manager exposes the Cliffhanger manager, nil for unmanaged policies.
	manager() *core.Manager
}

// classQueues is the shared shape of the unmanaged per-class policies
// (default and static): one eviction queue per slab class, chunk-size
// charging.
type classQueues struct {
	geom    *slab.Geometry
	classes []cache.Policy
}

func (p *classQueues) classFor(size int64) (int, bool) { return p.geom.ClassFor(size) }

func (p *classQueues) cost(class int, size int64) int64 { return p.geom.ChunkSize(class) }

func (p *classQueues) promoteResident(class int, key string, cost int64) bool {
	return accessIfResident(p.classes[class], key, cost)
}

// accessIfResident is promoteResident over one eviction queue: cache.Policy
// couples lookup and fill, so the structure is only touched when the key is
// already resident.
func accessIfResident(q cache.Policy, key string, cost int64) bool {
	if !q.Contains(key) {
		return false
	}
	hit, _ := q.Access(key, cost)
	return hit
}

func (p *classQueues) remove(class int, key string) bool { return p.classes[class].Remove(key) }

func (p *classQueues) capacities() map[int]int64 {
	out := make(map[int]int64)
	for c, q := range p.classes {
		out[c] = q.Capacity()
	}
	return out
}

func (p *classQueues) items() map[int]int {
	out := make(map[int]int)
	for c, q := range p.classes {
		out[c] = q.Len()
	}
	return out
}

func (p *classQueues) used() map[int]int64 {
	out := make(map[int]int64)
	for c, q := range p.classes {
		out[c] = q.Used()
	}
	return out
}

func (p *classQueues) usedBytes() int64 {
	var sum int64
	for _, q := range p.classes {
		sum += q.Used()
	}
	return sum
}

func (p *classQueues) manager() *core.Manager { return nil }

// defaultPolicy is stock Memcached behavior: memory is carved into pages
// handed to slab classes on demand, first come first served; each class runs
// its own eviction queue starting at zero capacity.
type defaultPolicy struct {
	classQueues
	alloc *slab.Allocator
}

func newDefaultPolicy(cfg TenantConfig, geom *slab.Geometry) *defaultPolicy {
	n := geom.NumClasses()
	p := &defaultPolicy{
		classQueues: classQueues{geom: geom, classes: make([]cache.Policy, n)},
		alloc:       slab.NewAllocator(geom, cfg.MemoryBytes),
	}
	for c := 0; c < n; c++ {
		p.classes[c] = cache.NewPolicy(cfg.Policy, 0)
	}
	return p
}

// admit implements the first-come-first-serve page allocation: when the
// class's queue has no room for one more item, it grabs a free page if any
// remain and grows its queue capacity accordingly.
func (p *defaultPolicy) admit(class int, key string, cost int64) (bool, []cache.Victim) {
	q := p.classes[class]
	for q.Used()+cost > q.Capacity() {
		if !p.alloc.Grow(class) {
			break
		}
		q.Resize(p.alloc.BytesOf(class))
	}
	return q.Access(key, cost)
}

func (p *defaultPolicy) resize(oldBytes, newBytes int64) []cache.Victim {
	p.alloc.SetBudget(newBytes)
	// A shrink leaves the free-page balance negative; shed pages from the
	// largest classes (shrinking their queues to match) until it clears.
	var victims []cache.Victim
	for p.alloc.FreePages() < 0 {
		best, most := -1, int64(0)
		for c := range p.classes {
			if pg := p.alloc.PagesOf(c); pg > most {
				best, most = c, pg
			}
		}
		if best < 0 {
			break
		}
		p.alloc.Release(best)
		victims = append(victims, p.classes[best].Resize(p.alloc.BytesOf(best))...)
	}
	return victims
}

// staticPolicy uses fixed per-class byte budgets, typically produced by the
// Dynacache solver baseline. There is no free pool: queues never grow on
// demand, and a resize scales every budget proportionally.
type staticPolicy struct {
	classQueues
}

func newStaticPolicy(cfg TenantConfig, geom *slab.Geometry) *staticPolicy {
	n := geom.NumClasses()
	p := &staticPolicy{classQueues{geom: geom, classes: make([]cache.Policy, n)}}
	for c := 0; c < n; c++ {
		budget := cfg.StaticClassBytes[c]
		if budget <= 0 {
			budget = geom.ChunkSize(c) // room for at least one item
		}
		p.classes[c] = cache.NewPolicy(cfg.Policy, budget)
	}
	return p
}

func (p *staticPolicy) admit(class int, key string, cost int64) (bool, []cache.Victim) {
	return p.classes[class].Access(key, cost)
}

func (p *staticPolicy) resize(oldBytes, newBytes int64) []cache.Victim {
	// Static budgets have no free pool to mediate; scale every class
	// proportionally, keeping room for at least one item each.
	var victims []cache.Victim
	for c, q := range p.classes {
		nb := int64(float64(q.Capacity()) * float64(newBytes) / float64(oldBytes))
		if nb < p.geom.ChunkSize(c) {
			nb = p.geom.ChunkSize(c)
		}
		victims = append(victims, q.Resize(nb)...)
	}
	return victims
}

// globalLRUPolicy keeps a single queue over all of the tenant's items
// regardless of size, charged at exact item size — emulating a
// log-structured memory cache at 100% utilization (Table 2).
type globalLRUPolicy struct {
	queue cache.Policy
}

func newGlobalLRUPolicy(cfg TenantConfig) *globalLRUPolicy {
	return &globalLRUPolicy{queue: cache.NewPolicy(cfg.Policy, cfg.MemoryBytes)}
}

func (p *globalLRUPolicy) classFor(size int64) (int, bool) { return 0, true }

func (p *globalLRUPolicy) cost(class int, size int64) int64 {
	if size <= 0 {
		return 1
	}
	return size
}

func (p *globalLRUPolicy) promoteResident(class int, key string, cost int64) bool {
	return accessIfResident(p.queue, key, cost)
}

func (p *globalLRUPolicy) admit(class int, key string, cost int64) (bool, []cache.Victim) {
	return p.queue.Access(key, cost)
}

func (p *globalLRUPolicy) remove(class int, key string) bool { return p.queue.Remove(key) }

func (p *globalLRUPolicy) resize(oldBytes, newBytes int64) []cache.Victim {
	return p.queue.Resize(newBytes)
}

func (p *globalLRUPolicy) capacities() map[int]int64 { return map[int]int64{0: p.queue.Capacity()} }

func (p *globalLRUPolicy) items() map[int]int { return map[int]int{0: p.queue.Len()} }

func (p *globalLRUPolicy) used() map[int]int64 { return map[int]int64{0: p.queue.Used()} }

func (p *globalLRUPolicy) usedBytes() int64 { return p.queue.Used() }

func (p *globalLRUPolicy) manager() *core.Manager { return nil }

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

func (p *managedPolicy) promoteResident(class int, key string, cost int64) bool {
	out, _ := p.mgr.AccessResidentAt(class, key, cost)
	return out.Hit
}

func (p *managedPolicy) admit(class int, key string, cost int64) (bool, []cache.Victim) {
	victims := p.growIfNeeded(class, key, cost)
	out := p.mgr.AccessAt(class, key, cost)
	return out.Hit, append(victims, out.Evicted...)
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

func (p *managedPolicy) capacities() map[int]int64 {
	out := make(map[int]int64)
	for c := 0; c < p.geom.NumClasses(); c++ {
		out[c] = p.mgr.QueueAt(c).Capacity()
	}
	return out
}

func (p *managedPolicy) items() map[int]int {
	out := make(map[int]int)
	for c := 0; c < p.geom.NumClasses(); c++ {
		out[c] = p.mgr.QueueAt(c).Items()
	}
	return out
}

func (p *managedPolicy) used() map[int]int64 {
	out := make(map[int]int64)
	for c := 0; c < p.geom.NumClasses(); c++ {
		out[c] = p.mgr.QueueAt(c).Used()
	}
	return out
}

func (p *managedPolicy) usedBytes() int64 {
	var sum int64
	for c := 0; c < p.geom.NumClasses(); c++ {
		sum += p.mgr.QueueAt(c).Used()
	}
	return sum
}

func (p *managedPolicy) manager() *core.Manager { return p.mgr }

// newPartitionPolicy builds the policy for cfg's mode.
func newPartitionPolicy(cfg TenantConfig, geom *slab.Geometry) (partitionPolicy, error) {
	switch cfg.Mode {
	case AllocCliffhanger, AllocMemshare:
		return newManagedPolicy(cfg, geom)
	case AllocGlobalLRU:
		return newGlobalLRUPolicy(cfg), nil
	case AllocStatic:
		return newStaticPolicy(cfg, geom), nil
	default: // AllocDefault
		return newDefaultPolicy(cfg, geom), nil
	}
}
