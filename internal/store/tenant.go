// Package store implements the multi-tenant, slab-allocated cache engine the
// experiments and the server run on: a Memcached-style key-value store with
// per-application memory reservations, one core.Queue per slab class, and an
// allocation mode that is one of two things: queues with the paper's
// algorithm switched off, which makes each one memcached's LRU (the default
// first-come-first-serve page allocation, a static solver-provided split, or
// a global LRU, which differ only in where the reservation starts), or queues
// managed by the paper's algorithm (Cliffhanger, and Memshare, which is
// Cliffhanger within each tenant plus cross-tenant arbitration).
//
// The engine is split in three layers:
//
//   - Tenant (this file, with the two allocation policies in policy.go)
//     tracks one application's cache *structure* — which keys are resident
//     in which slab class and how memory is divided — without holding
//     values. It is single-threaded by design; in a Store only the
//     bookkeeper calls it.
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
//     events, buffered on the request's value shard under its lock and
//     applied under the tenant's one accounting lock by the same request
//     after it unlocks the shard, before it returns; most GET hits emit no
//     event at all. The store's one maintenance goroutine reaps, reclaims
//     and resizes (Config.SyncBookkeeping runs without it); Store.Flush
//     settles what concurrent requests have in flight, and Store.Close stops
//     the maintenance goroutine.
//
// Concurrency contract: Tenant and everything it owns (core.Manager,
// core.Queue) are not safe for concurrent use; the bookkeeper serializes all
// access to them behind its mutex, which is also what makes Stats,
// QueueSnapshots and UsedBytes race-free against request traffic.
//
// Lock order, for the whole package: a goroutine holding one of these locks
// takes only locks further down the list.
//
//  1. Store.mu, Store.tickMu, Store.arbMu (never held together);
//  2. tenantEntry.reconfMu (a live resize step);
//  3. bookkeeper.mu, the accounting plane's one lock: the Tenant, every
//     steal and replay of a shard's event buffer;
//  4. valueShard.mu (several only in index order, as the sealed audit does);
//  5. arenaStripe.mu;
//  6. arenaCentral.mu;
//  7. pageAllocator.mu.
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
	// HitsUnpromoted is the part of Hits served within the hit window: GET
	// hits on keys still in their queue's front segment, which emitted no
	// event and moved nothing (Reader.Get).
	HitsUnpromoted int64
	Classes        []ClassStats
}

// HitRate returns hits / (hits + misses).
func (s TenantStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Tenant tracks one application's cache structure. It owns the class queues
// and does everything with them that is the same in every mode: mapping an
// item to a queue and a charge, promoting, removing, and the views. Who
// gets the unassigned part of the reservation and who gives memory back lives
// in the partitionPolicy (policy.go: classQueues or managedPolicy). It is not
// safe for concurrent use; in a Store each tenant's bookkeeper serializes
// access, and the repository benchmark drives a bare one from a single
// goroutine.
type Tenant struct {
	cfg    TenantConfig
	geom   *slab.Geometry
	policy partitionPolicy
	// queues are the class queues in class order; a global LRU has one,
	// reported as class 0.
	queues []*core.Queue

	// reserved is the arbiter floor: the part of the original reservation
	// cross-tenant arbitration can never take away, half of it for an
	// AllocMemshare tenant and 0 otherwise, fixed at construction (the
	// reservation itself changes as the tenant is resized).
	reserved int64

	// Counters. The tenant's requests, hits and misses are the sums of the
	// per-class ones (Stats, sum); unpromoted is the part of the hits that
	// a store served within their hit window (countUnpromoted).
	sets, deletes, expired, touches, touchHits, unpromoted int64
	classReq, classHit, classMiss, classEvict              []int64

	// placed is the directory of Access and Admit, which have no Store
	// around them: the node each class queue last placed each key under.
	placed map[placedKey]*cache.Node
}

type placedKey struct {
	class int
	key   string
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
	t := &Tenant{cfg: cfg, geom: geom, placed: make(map[placedKey]*cache.Node)}
	n := geom.NumClasses()
	t.classReq = make([]int64, n)
	t.classHit = make([]int64, n)
	t.classMiss = make([]int64, n)
	t.classEvict = make([]int64, n)

	if cfg.Mode == AllocMemshare {
		t.reserved = cfg.MemoryBytes / 2
	}

	if cfg.Mode != AllocCliffhanger && cfg.Mode != AllocMemshare {
		p := newClassQueues(cfg, geom)
		t.policy, t.queues = p, p.queues
		return t, nil
	}
	p, err := newManagedPolicy(cfg, geom)
	if err != nil {
		return nil, fmt.Errorf("store: tenant %q: %v", cfg.Name, err)
	}
	t.policy = p
	for c := 0; c < p.mgr.NumQueues(); c++ {
		t.queues = append(t.queues, p.mgr.QueueAt(c))
	}
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
func (t *Tenant) Manager() *core.Manager {
	if p, ok := t.policy.(*managedPolicy); ok {
		return p.mgr
	}
	return nil
}

// ClassFor returns the queue an item of the given size belongs to: its slab
// class, or 0 under the global-LRU layout. It reports false for an item no
// chunk can hold, in every mode.
func (t *Tenant) ClassFor(size int64) (int, bool) {
	class, ok := t.geom.ClassFor(size)
	if t.cfg.Mode == AllocGlobalLRU {
		class = 0
	}
	return class, ok
}

// cost returns the cost charged for an item of the given size in the given
// class: the full chunk size in slab modes (Memcached's real memory
// accounting) and the exact item size under the global-LRU layout.
func (t *Tenant) cost(class int, size int64) int64 {
	if t.cfg.Mode == AllocGlobalLRU {
		return max(size, 1)
	}
	return t.geom.ChunkSize(class)
}

// lookup is the replay of a GET (evLookup) or a touch (evTouch): it promotes
// key if it is resident, never admitting it (admission happens on the SET
// that follows a miss, as in Memcached), and counts the outcome, a GET into
// the hit rate and a touch into its own counters (memcached's
// cmd_touch/touch_hits), so TTL refreshes do not skew the hit rate. An empty
// key stands for a key the store's directory already found absent: the miss
// is counted against the class of size and no queue is touched. node is the
// record's: the promotion goes through it while it holds key, and a hit with
// none counts and promotes nothing (rule 2 of event). Keys a resize applied
// by the hit evicts are returned so the caller can drop their values, as
// after admit.
func (t *Tenant) lookup(kind eventKind, key string, node *cache.Node, size int64) (bool, []cache.Victim) {
	class, ok := t.ClassFor(size)
	if !ok {
		return false, nil
	}
	hit := key != ""
	var victims []cache.Victim
	if hit && node != nil {
		hit, victims = t.queues[class].AccessResident(key, node, t.cost(class, size))
		t.classEvict[class] += evictedOthers(key, victims)
	}
	switch {
	case kind == evTouch:
		t.touches++
		if hit {
			t.touchHits++
		}
		return hit, victims
	case hit:
		t.classHit[class]++
	default:
		t.classMiss[class]++
	}
	t.classReq[class]++
	return hit, victims
}

// countUnpromoted counts the GET hits a store's shard served within their
// class's hit window, which emitted no event (Reader.Get), and zeroes counts,
// the shard's per-class tally: each is a request and a hit of its class, and
// of its class queue, as the replay of a front hit would have counted it.
func (t *Tenant) countUnpromoted(counts []int64) {
	for c, n := range counts {
		if n == 0 {
			continue
		}
		t.classReq[c] += n
		t.classHit[c] += n
		t.unpromoted += n
		t.queues[c].CountHits(n)
		counts[c] = 0
	}
}

// Admit performs the SET path of a fresh key: the key becomes resident (if it
// fits) and any evicted keys are returned so the caller can drop their values.
func (t *Tenant) Admit(key string, size int64) []cache.Victim {
	class, _ := t.ClassFor(size)
	k := placedKey{class, key}
	victims, node := t.admit(key, cache.Hash(key), t.placed[k], 0, size)
	t.placed[k] = node
	return victims
}

// admit is the replay of a write (evAdmit): key becomes resident at size, if
// it fits. node and oldSize are the queue node and charge of the record the
// write replaced, nil and 0 for a fresh key: when the new size maps to a
// different class (or to a different cost, as under the exact-size global-LRU
// accounting) the stale entry is removed from its old queue first, so a
// re-set key never occupies two queues or double-charges UsedBytes; that
// removal is not counted as a delete. It returns the evicted keys and the
// queue node key was placed under (nil for a key no chunk can hold).
func (t *Tenant) admit(key string, hash uint64, node *cache.Node, oldSize, size int64) ([]cache.Victim, *cache.Node) {
	class, ok := t.ClassFor(size)
	if oldSize != 0 {
		if old, okOld := t.ClassFor(oldSize); okOld && (!ok || old != class || t.cost(old, oldSize) != t.cost(class, size)) {
			t.queues[old].Remove(key, node)
			node = nil
		}
	}
	if !ok {
		return []cache.Victim{{Key: key, Hash: hash, Cost: size}}, nil
	}
	t.sets++
	out, node := t.policy.admit(class, key, hash, node, t.cost(class, size))
	t.classEvict[class] += evictedOthers(key, out.Evicted)
	return out.Evicted, node
}

// remove is the replay of a structural removal, counted by kind: an
// admission taken back (evAdmit, rule 1 of event) counts nothing; a client
// delete (evRemove) always counts in deletes; an expiry (evExpire) counts in
// expired and a page migration's eviction (evMigrate) in its class's
// evictions only when an entry was removed (through the record's node, or by
// rule 1 of event when it has none), so one racing an eviction replay of the
// same key is not counted twice. Retiring a page evicts its residents
// (Memshare semantics), so the hit-rate damage shows in the same counters
// organic evictions land in.
func (t *Tenant) remove(kind eventKind, key string, node *cache.Node, size int64) bool {
	class, ok := t.ClassFor(size)
	if !ok {
		return false
	}
	removed := node == nil || t.queues[class].Remove(key, node)
	switch {
	case kind == evAdmit:
	case kind == evRemove:
		t.deletes++
	case !removed:
	case kind == evExpire:
		t.expired++
	default:
		t.classEvict[class]++
	}
	return removed
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
// never calls it (its GET is lookup, its fill a separate admission); the
// repository benchmark times it.
func (t *Tenant) Access(key string, size int64) (bool, []cache.Victim) {
	class, ok := t.ClassFor(size)
	if !ok {
		return false, nil
	}
	t.classReq[class]++
	k := placedKey{class, key}
	out, node := t.policy.admit(class, key, cache.Hash(key), t.placed[k], t.cost(class, size))
	t.placed[k] = node
	if out.Hit {
		t.classHit[class]++
	} else {
		t.classMiss[class]++
	}
	t.classEvict[class] += evictedOthers(key, out.Evicted)
	return out.Hit, out.Evicted
}

// ClassCapacities returns the current per-class capacities in bytes, keyed
// by slab class. For global-LRU tenants the single queue is reported as
// class 0.
func (t *Tenant) ClassCapacities() map[int]int64 {
	out := make(map[int]int64, len(t.queues))
	for c, q := range t.queues {
		out[c] = q.Capacity()
	}
	return out
}

// UsedBytes returns the tenant's resident bytes.
func (t *Tenant) UsedBytes() int64 {
	var sum int64
	for _, q := range t.queues {
		sum += q.Used()
	}
	return sum
}

// Stats returns a snapshot of the tenant's counters, with the classes that
// have seen traffic or hold memory in class order.
func (t *Tenant) Stats() TenantStats {
	st := TenantStats{
		Name:      t.cfg.Name,
		Requests:  sum(t.classReq),
		Hits:      sum(t.classHit),
		Misses:    sum(t.classMiss),
		Sets:      t.sets,
		Deletes:   t.deletes,
		Expired:   t.expired,
		Touches:   t.touches,
		TouchHits: t.touchHits,

		HitsUnpromoted: t.unpromoted,
	}
	for c, q := range t.queues {
		capacity, used, items := q.Capacity(), q.Used(), q.Items()
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

// sum totals per-class counters.
func sum(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}
