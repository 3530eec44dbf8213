// Package store implements the multi-tenant, slab-allocated cache engine the
// experiments and the server run on: a Memcached-style key-value store with
// per-application memory reservations, per-slab-class LRU queues, and an
// allocation mode that is one of two things: plain eviction queues (the
// default first-come-first-serve page allocation, a static solver-provided
// split, or a global LRU, which differ only in where the reservation starts),
// or queues managed by the paper's algorithm (Cliffhanger, and Memshare, which
// is Cliffhanger within each tenant plus cross-tenant arbitration).
//
// The engine is split in three layers:
//
//   - Tenant (this file, with the two policies in policy.go) tracks one
//     application's cache *structure* — which keys are resident in which
//     slab class and how memory is divided — without holding values. It is
//     single-threaded by design; in a Store only the bookkeeper calls it.
//     The trace-driven simulator (internal/sim) replays through a
//     synchronous Store like any other caller, so a simulation holds its
//     values in the arena too: a Memcachier replay at scale 1 (192 MiB of
//     reservations) leases 204 one-MiB pages after two million requests.
//
//   - Store (store.go) is the data plane the network server runs on. Each
//     tenant's values live in an N-way key-hash-sharded table with striped
//     locks, so GET/SET traffic for independent keys of one hot application
//     proceeds in parallel across cores; the tenant registry itself is a
//     copy-on-write map read without locks. Value bytes live in a per-tenant
//     slab arena (arena.go): 1 MiB pages carved into per-class chunk
//     freelists, recycled on eviction/expiry/delete/flush instead of handed
//     to the GC, with item records pooled per shard — the mutation path
//     allocates nothing in the steady state. Reads are zero-copy: a GET
//     pins the arena epoch and hands out a borrowed view of the chunk;
//     freed chunks sit in an epoch-stamped quarantine until every pinned
//     reader has moved past, so a recycled chunk can never be observed.
//
//   - bookkeeper (bookkeeper.go) is the accounting plane. All structural
//     consequences of a request — shadow-queue updates, hill-climbing credit
//     transfers, cliff-pointer walks, evictions — are described by small
//     events, batched per value shard, and replayed in arrival order by the
//     request that fills a shard to the batch boundary, so Cliffhanger's
//     bookkeeping is out of every other request's critical section. The
//     store's one maintenance goroutine sweeps what low-rate tenants leave
//     behind. A synchronous mode (Config.SyncBookkeeping) applies events
//     inline for deterministic tests; Store.Flush settles in-flight events
//     so snapshots and stats observe a quiesced engine, and Store.Close
//     stops the maintenance goroutine.
//
// Concurrency contract: Tenant and everything it owns (core.Manager,
// core.Queue) are not safe for concurrent use; the bookkeeper serializes all
// access to them behind its mutex, which is also what makes Stats,
// QueueSnapshots and UsedBytes race-free against request traffic.
package store

import (
	"fmt"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/core"
	"cliffhanger/internal/slab"
)

// AllocationMode selects how a tenant's memory is divided across its slab
// classes.
type AllocationMode int

const (
	// AllocDefault is stock Memcached behaviour: memory is carved into
	// pages handed to slab classes on demand, first come first served; each
	// class runs its own eviction queue (§2 of the paper).
	AllocDefault AllocationMode = iota
	// AllocCliffhanger runs the paper's algorithm: one Cliffhanger manager
	// per tenant moves memory between slab-class queues using shadow-queue
	// hill climbing and scales performance cliffs.
	AllocCliffhanger
	// AllocStatic uses fixed per-class byte budgets, typically produced by
	// the Dynacache solver baseline. Only the simulator can supply them
	// (ParseAllocationMode refuses the name).
	AllocStatic
	// AllocGlobalLRU keeps a single LRU over all of the tenant's items
	// regardless of size, emulating a log-structured memory cache at 100%
	// utilization (Table 2).
	AllocGlobalLRU
	// AllocMemshare runs Cliffhanger within each tenant and additionally
	// opts the tenant into the store's cross-tenant arbiter (arbiter.go),
	// which ranks tenants by marginal hit rate per byte — the shadow-queue
	// credit signal — and moves pages from the lowest-ranked tenant to the
	// highest, never shrinking one below its reserved floor (Memshare,
	// Cidon et al.).
	AllocMemshare
)

// String names the allocation mode.
func (m AllocationMode) String() string {
	switch m {
	case AllocDefault:
		return "default"
	case AllocCliffhanger:
		return "cliffhanger"
	case AllocStatic:
		return "static"
	case AllocGlobalLRU:
		return "global-lru"
	case AllocMemshare:
		return "memshare"
	default:
		return "unknown"
	}
}

// ParseAllocationMode converts a mode name, as String prints it, into the
// mode a store can register tenants under by name and size. "static" is
// refused: such a tenant has no per-class budgets, and without them it holds
// one item per class; the mode exists for the simulator's solver baseline.
func ParseAllocationMode(s string) (AllocationMode, error) {
	for _, m := range []AllocationMode{AllocDefault, AllocCliffhanger, AllocGlobalLRU, AllocMemshare} {
		if m.String() == s {
			return m, nil
		}
	}
	if s == AllocStatic.String() {
		return 0, fmt.Errorf("allocation mode %q exists for the simulator's solver baseline only", s)
	}
	return 0, fmt.Errorf("unknown allocation mode %q", s)
}

// TenantConfig configures one application's cache structure.
type TenantConfig struct {
	// Name identifies the tenant (used in queue IDs and stats).
	Name string
	// MemoryBytes is the tenant's reservation.
	MemoryBytes int64
	// Geometry is the slab-class geometry; nil uses slab.DefaultGeometry.
	Geometry *slab.Geometry
	// Mode selects the allocation policy.
	Mode AllocationMode
	// Cliffhanger configures the AllocCliffhanger and AllocMemshare modes.
	Cliffhanger core.Config
	// StaticClassBytes gives fixed per-class budgets for AllocStatic,
	// indexed by slab class. Classes without an entry get a minimal budget.
	StaticClassBytes map[int]int64
	// ReservedBytes is the floor below which the cross-tenant arbiter never
	// shrinks this tenant — Memshare's reserved memory, with the remainder
	// of the reservation pooled. Zero defaults to half the reservation for
	// AllocMemshare tenants; other modes are never arbitrated, so the value
	// is informational there. It extends core.Config.MinQueueBytes one
	// level up: MinQueueBytes floors a queue within a tenant, ReservedBytes
	// floors the tenant within the server.
	ReservedBytes int64
}

// ClassStats reports per-slab-class counters.
type ClassStats struct {
	Class         int
	ChunkSize     int64
	Requests      int64
	Hits          int64
	Misses        int64
	Evictions     int64
	UsedBytes     int64
	CapacityBytes int64
	Items         int
}

// TenantStats reports a tenant's counters.
type TenantStats struct {
	Name     string
	Requests int64
	Hits     int64
	Misses   int64
	Sets     int64
	Deletes  int64
	// Expired counts structural removals driven by TTL expiry (lazy GET
	// checks and the background reaper), kept separate from client Deletes.
	Expired int64
	// Touches and TouchHits account the touch verb separately (memcached's
	// cmd_touch/touch_hits), so TTL refreshes never pollute the GET hit
	// rate the hill climber and the stats consumers read.
	Touches   int64
	TouchHits int64
	// ReplayProbes counts the lookups and touches with a key whose promotion
	// had to probe the class queue for it because the node the record
	// remembered was stale or missing: its admission had not replayed yet,
	// the touched key was absent, or the mode is unmanaged and remembers
	// none.
	ReplayProbes int64
	Classes      []ClassStats
	// DroppedEvents, Sweeps and InlineApplies are the Store bookkeeper's
	// counters (bookkeeper.dropped and so on); Tenant.Stats leaves them 0.
	DroppedEvents int64
	Sweeps        int64
	InlineApplies int64
}

// HitRate returns hits / (hits + misses).
func (s TenantStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Tenant tracks one application's cache structure. How memory is divided,
// grown and charged lives in the partitionPolicy (policy.go: classQueues or
// managedPolicy); the Tenant owns the mode-independent counters. It is not
// safe for concurrent use; in the Store each tenant's bookkeeper serializes
// access, and the repository benchmark drives a bare one from a single
// goroutine.
type Tenant struct {
	cfg    TenantConfig
	geom   *slab.Geometry
	policy partitionPolicy

	// reserved is the arbiter floor: the part of the original reservation
	// cross-tenant arbitration can never take away, fixed at construction
	// (the reservation itself changes as the tenant is resized).
	reserved int64

	// Counters.
	requests, hits, misses, sets, deletes, expired int64
	touches, touchHits, probes                     int64
	classReq, classHit, classMiss, classEvict      []int64
}

// NewTenant builds a tenant from cfg.
func NewTenant(cfg TenantConfig) (*Tenant, error) {
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("store: tenant %q needs a positive memory reservation", cfg.Name)
	}
	geom := cfg.Geometry
	if geom == nil {
		geom = slab.DefaultGeometry()
	}
	t := &Tenant{cfg: cfg, geom: geom}
	n := geom.NumClasses()
	t.classReq = make([]int64, n)
	t.classHit = make([]int64, n)
	t.classMiss = make([]int64, n)
	t.classEvict = make([]int64, n)

	t.reserved = cfg.ReservedBytes
	if t.reserved <= 0 && cfg.Mode == AllocMemshare {
		t.reserved = cfg.MemoryBytes / 2
	}
	if t.reserved > cfg.MemoryBytes {
		return nil, fmt.Errorf("store: tenant %q reserved floor %d exceeds its %d-byte reservation",
			cfg.Name, t.reserved, cfg.MemoryBytes)
	}

	p, err := newPartitionPolicy(cfg, geom)
	if err != nil {
		return nil, fmt.Errorf("store: tenant %q: %v", cfg.Name, err)
	}
	t.policy = p
	return t, nil
}

func classQueueID(class int) string { return fmt.Sprintf("class%d", class) }

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.cfg.Name }

// Mode returns the tenant's allocation mode.
func (t *Tenant) Mode() AllocationMode { return t.cfg.Mode }

// MemoryBytes returns the tenant's reservation.
func (t *Tenant) MemoryBytes() int64 { return t.cfg.MemoryBytes }

// shadowBytes returns the capacity of the tenant's hill-climbing shadow
// queues after config defaulting — the denominator that converts the
// shadow-hit count into the marginal hit-rate-per-byte estimate the arbiter
// ranks tenants by.
func (t *Tenant) shadowBytes() int64 {
	if sb := t.cfg.Cliffhanger.ShadowBytes; sb > 0 {
		return sb
	}
	return core.DefaultConfig().ShadowBytes
}

// Manager exposes the Cliffhanger manager (nil in unmanaged modes); the
// arbiter reads the shadow-queue credit signal from it.
func (t *Tenant) Manager() *core.Manager { return t.policy.manager() }

// ClassFor returns the slab class for an item of the given size.
func (t *Tenant) ClassFor(size int64) (int, bool) {
	return t.policy.classFor(size)
}

// cost returns the cost charged for an item of the given size in the given
// class: the full chunk size in slab modes (Memcached's real memory
// accounting) and the exact item size under the global-LRU layout.
func (t *Tenant) cost(class int, size int64) int64 {
	return t.policy.cost(class, size)
}

// Lookup performs the GET path: it reports whether key is resident and
// promotes it if so. It never admits the key (admission happens on the SET
// that follows a miss, as in Memcached). An empty key stands for a key the
// caller already knows is not resident (the store's directory said so): the
// miss is counted against the class of size and no queue is probed. node is
// the queue node the admission of key returned (nil if the caller has none):
// while it still holds key the promotion goes through it instead of probing
// the queue's index. Keys a resize applied by the hit evicts are returned so
// the caller can drop their values, as after Admit.
func (t *Tenant) Lookup(key string, node *cache.Node, size int64) (bool, []cache.Victim) {
	class, ok := t.ClassFor(size)
	if !ok {
		return false, nil
	}
	t.requests++
	t.classReq[class]++
	var hit bool
	var victims []cache.Victim
	if key != "" {
		hit, victims = t.promote(class, key, node, size)
	}
	if hit {
		t.hits++
		t.classHit[class]++
	} else {
		t.misses++
		t.classMiss[class]++
	}
	return hit, victims
}

// promote is the queue half of Lookup and Touch, counting the promotions that
// had to probe for key (replay_probes) and the keys it evicted.
func (t *Tenant) promote(class int, key string, node *cache.Node, size int64) (bool, []cache.Victim) {
	hit, victims, probed := t.policy.promoteResident(class, key, node, t.cost(class, size))
	if probed {
		t.probes++
	}
	t.classEvict[class] += evictedOthers(key, victims)
	return hit, victims
}

// Admit performs the SET path: the key becomes resident (if it fits) and any
// evicted keys are returned so the caller can drop their values.
func (t *Tenant) Admit(key string, size int64) []cache.Victim {
	victims, _ := t.admit(key, size)
	return victims
}

// admit is Admit that also returns the queue node key was placed under, for
// the caller to hand back to Lookup and Touch (nil in the unmanaged modes and
// for a key no chunk can hold).
func (t *Tenant) admit(key string, size int64) ([]cache.Victim, *cache.Node) {
	class, ok := t.ClassFor(size)
	if !ok {
		return []cache.Victim{{Key: key, Cost: size}}, nil
	}
	t.sets++
	_, victims, node := t.policy.admit(class, key, t.cost(class, size))
	t.classEvict[class] += evictedOthers(key, victims)
	return victims, node
}

// ReAdmit performs the SET path for a key that already has a resident entry
// charged at oldSize: when the new size maps to a different class (or to a
// different cost, as under the exact-size global-LRU accounting) the stale
// entry is removed from its old queue first, so a re-set key never occupies
// two queues or double-charges UsedBytes. The removal is not counted as a
// delete. It returns what admit does.
func (t *Tenant) ReAdmit(key string, oldSize, newSize int64) ([]cache.Victim, *cache.Node) {
	oldClass, okOld := t.ClassFor(oldSize)
	newClass, okNew := t.ClassFor(newSize)
	if okOld && (!okNew || oldClass != newClass || t.cost(oldClass, oldSize) != t.cost(newClass, newSize)) {
		t.removeFrom(oldClass, key)
	}
	return t.admit(key, newSize)
}

// Touch promotes key like a GET without the hit/miss accounting: touches
// count into their own counters (memcached's cmd_touch/touch_hits), so TTL
// refreshes do not skew the GET hit rate. node and the victims are Lookup's.
func (t *Tenant) Touch(key string, node *cache.Node, size int64) (bool, []cache.Victim) {
	class, ok := t.ClassFor(size)
	if !ok {
		return false, nil
	}
	t.touches++
	hit, victims := t.promote(class, key, node, size)
	if hit {
		t.touchHits++
	}
	return hit, victims
}

// EvictMigrated removes key's structural entry on behalf of a page
// migration, counting it as an eviction: retiring a page evicts its
// residents (Memshare semantics), and the hit-rate damage must be visible in
// the same counters organic evictions land in. Only counted when an entry
// was actually removed, so a migration event racing an eviction replay of
// the same key is not double-counted.
func (t *Tenant) EvictMigrated(key string, size int64) bool {
	class, ok := t.ClassFor(size)
	if !ok {
		return false
	}
	if !t.removeFrom(class, key) {
		return false
	}
	t.classEvict[class]++
	return true
}

// Resize retargets the tenant's reservation at newBytes and returns the
// victims the shrink evicted (nil on growth, whose extra room reaches the
// queues through the normal on-demand grow paths). The caller owns dropping
// the victims' values, exactly as after Admit.
func (t *Tenant) Resize(newBytes int64) []cache.Victim {
	if newBytes <= 0 || newBytes == t.cfg.MemoryBytes {
		return nil
	}
	old := t.cfg.MemoryBytes
	t.cfg.MemoryBytes = newBytes
	return t.policy.resize(old, newBytes)
}

// Expire removes key's structural entry after its TTL lapsed. Unlike Delete
// it counts an expiration, not a client delete — and only when an entry was
// actually removed, so an expiry event racing an eviction replay of the same
// key is not double-counted.
func (t *Tenant) Expire(key string, size int64) bool {
	class, ok := t.ClassFor(size)
	if !ok {
		return false
	}
	if !t.removeFrom(class, key) {
		return false
	}
	t.expired++
	return true
}

// evictedOthers counts victims other than the admitted key itself: an item
// too big for its queue bounces back as its own victim, which is a rejected
// admission rather than an eviction.
func evictedOthers(key string, victims []cache.Victim) int64 {
	var n int64
	for _, v := range victims {
		if v.Key != key {
			n++
		}
	}
	return n
}

// Access performs a demand-fill GET on a bare tenant: a lookup that, on a
// miss, immediately admits the key (modelling the application's read-through
// fill). It returns whether the access hit and any evicted keys. The store
// never calls it (its GET is Lookup, its fill a separate admission); the
// repository benchmark times it.
func (t *Tenant) Access(key string, size int64) (bool, []cache.Victim) {
	class, ok := t.ClassFor(size)
	if !ok {
		return false, nil
	}
	t.requests++
	t.classReq[class]++
	hit, victims, _ := t.policy.admit(class, key, t.cost(class, size))
	if hit {
		t.hits++
		t.classHit[class]++
	} else {
		t.misses++
		t.classMiss[class]++
	}
	t.classEvict[class] += evictedOthers(key, victims)
	return hit, victims
}

// Delete removes key (of the given size class) from the tenant.
func (t *Tenant) Delete(key string, size int64) bool {
	class, ok := t.ClassFor(size)
	if !ok {
		return false
	}
	t.deletes++
	return t.removeFrom(class, key)
}

// removeFrom drops key's structural entry from the given class queue without
// touching any counter.
func (t *Tenant) removeFrom(class int, key string) bool {
	return t.policy.remove(class, key)
}

// ClassCapacities returns the current per-class capacities in bytes, keyed
// by slab class. For global-LRU tenants the single queue is reported as
// class 0.
func (t *Tenant) ClassCapacities() map[int]int64 {
	out := make(map[int]int64, t.policy.numQueues())
	for c := 0; c < t.policy.numQueues(); c++ {
		out[c], _, _ = t.policy.queueView(c)
	}
	return out
}

// UsedBytes returns the tenant's resident bytes.
func (t *Tenant) UsedBytes() int64 {
	var sum int64
	for c := 0; c < t.policy.numQueues(); c++ {
		_, used, _ := t.policy.queueView(c)
		sum += used
	}
	return sum
}

// Stats returns a snapshot of the tenant's counters, with the classes that
// have seen traffic or hold memory in class order.
func (t *Tenant) Stats() TenantStats {
	st := TenantStats{
		Name:         t.cfg.Name,
		Requests:     t.requests,
		Hits:         t.hits,
		Misses:       t.misses,
		Sets:         t.sets,
		Deletes:      t.deletes,
		Expired:      t.expired,
		Touches:      t.touches,
		TouchHits:    t.touchHits,
		ReplayProbes: t.probes,
	}
	for c := 0; c < t.policy.numQueues(); c++ {
		capacity, used, items := t.policy.queueView(c)
		if t.classReq[c] == 0 && capacity == 0 && used == 0 {
			continue
		}
		chunk := int64(0)
		if t.cfg.Mode != AllocGlobalLRU {
			chunk = t.geom.ChunkSize(c)
		}
		st.Classes = append(st.Classes, ClassStats{
			Class:         c,
			ChunkSize:     chunk,
			Requests:      t.classReq[c],
			Hits:          t.classHit[c],
			Misses:        t.classMiss[c],
			Evictions:     t.classEvict[c],
			UsedBytes:     used,
			CapacityBytes: capacity,
			Items:         items,
		})
	}
	return st
}
