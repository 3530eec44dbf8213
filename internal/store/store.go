package store

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/core"
	"cliffhanger/internal/slab"
)

// Config configures a Store.
type Config struct {
	// Geometry is the slab-class geometry shared by all tenants; nil uses
	// the default geometry.
	Geometry *slab.Geometry
	// DefaultMode is the allocation mode for tenants registered without an
	// explicit mode.
	DefaultMode AllocationMode
	// DefaultPolicy is read by nothing: every unmanaged tenant evicts by
	// memcached's LRU. It stays because the repository benchmark sets it.
	DefaultPolicy cache.PolicyKind
	// Cliffhanger configures Cliffhanger-managed tenants.
	Cliffhanger core.Config
	// SyncBookkeeping makes every request apply its own events before it
	// returns, where asynchronous mode (the default, faster) leaves them
	// buffered until a shard reaches the batch boundary and one request
	// sweeps them all. Synchronous mode is deterministic, has no background
	// reaper or reclaim, and is what tests and the simulator run.
	SyncBookkeeping bool
	// Now supplies the expiry clock in unix seconds; nil uses time.Now.
	// Tests stub it to drive TTL expiry deterministically.
	Now func() int64
	// Arbiter configures cross-tenant Memshare arbitration (arbiter.go).
	// A positive Interval makes the maintenance goroutine tick it; with
	// Interval zero the arbiter only runs when ArbiterTick is called.
	Arbiter ArbiterConfig
}

// valueShards is the per-tenant lock stripe count, a power of two: enough
// that a server's worth of connection goroutines rarely collide on one
// stripe.
const valueShards = 64

// Store is a multi-tenant in-memory key-value cache: the value-holding layer
// over Tenant. It is safe for concurrent use. Values live in an N-way
// key-hash-sharded table with striped locks, so operations on independent
// keys proceed in parallel even within one tenant; structural bookkeeping
// (eviction queues, Cliffhanger shadow queues) is owned by a per-tenant
// bookkeeper and replayed in batches by the requests themselves.
type Store struct {
	cfg Config

	// pa owns the process's raw slab pages; every tenant arena leases from
	// it, which is what makes pages movable between tenants at runtime.
	pa *pageAllocator

	// tenants is a copy-on-write map so the hot path reads it without
	// locking; mu serializes registration, deletion and close.
	mu      sync.Mutex
	tenants atomic.Pointer[map[string]*tenantEntry]
	closed  bool
	// teardowns tracks the asynchronous drains of deleted tenants; Close
	// waits for them so no teardown goroutine outlives the store.
	teardowns sync.WaitGroup

	// stop and done bound the maintenance goroutine (nil when none runs);
	// tickMu is held for each of its passes over the registry.
	stop, done chan struct{}
	tickMu     sync.Mutex

	// arb is the cross-tenant Memshare arbiter's decision engine, guarded
	// by arbMu.
	arbMu sync.Mutex
	arb   *arbiterState
}

// item is one entry of the per-shard metadata directory: the value plus the
// bookkeeping facts the protocol verbs need — the flags SET stored, the CAS
// token of the last mutation, the charged size the admission was accounted
// under (so GET and DELETE never recompute it), and the expiry deadline.
//
// Records are pooled per shard (see valueShard.getItemLocked): a delete,
// eviction, expiry or flush pushes the record onto the shard's freelist
// instead of handing it to the GC, and the next insertion pops it back. The
// value bytes live in a recycled arena chunk of the class the charged size
// maps to (tenantEntry.newValueLocked) — both halves of what used to be the
// SET path's two heap allocations are recycled.
type item struct {
	// key is the interned key string the record was inserted under: the one
	// string materialized per resident key. Byte-keyed reads reuse it for
	// their bookkeeping events so a GET hit never converts []byte to string.
	key string
	// value is a view into an arena chunk. It is valid while the shard lock is
	// held, and — thanks to epoch-based reclamation — also after the lock
	// drops for any reader that had pinned an epoch slot by the time it
	// unlocked (Reader.Get): a retired chunk sits in quarantine until every
	// pin has advanced past it. Mutations never write a live chunk in place;
	// they install a fresh chunk and retire the old one (copy-on-write), so a
	// pinned view is immutable for its lifetime.
	value []byte
	flags uint32
	// class is the class queue the charged size maps to (Tenant.ClassFor):
	// the hit window a GET reads (Reader.Get).
	class int32
	cas   uint64
	// size is the charged size, len(key)+len(value) at the last mutation;
	// it is the size every structural event for the key is emitted with.
	size int64
	// expires is the expiry deadline in unix seconds; 0 means never.
	// Negative deadlines (exptime < 0 on the wire) are already expired.
	expires int64
	// setAt is the unix second of the record's last mutation: the timestamp
	// a delayed flush_all compares against (items last written before the
	// flush deadline die once it passes; later writes survive).
	setAt int64
	// seq is the bookkeeping sequence of the record's last mutation, and
	// node the class queue node the replay of its admission placed the key
	// under (markAdmitted), nil while that admission is pending. The record
	// is the only index of its resident entry: every event that reaches the
	// entry carries node, and eviction replay spares a record whose
	// admission is pending, whose replay will re-establish the entry
	// (dropVictim; event has the rules for what is buffered meanwhile). Read
	// and written under the shard lock; the node itself is the accounting
	// plane's and is only dereferenced by a replay.
	seq  uint64
	node *cache.Node
	// promoted is the stamp of the last event that put the key at the head
	// of its queue's front segment: the admission's, or a GET hit's that was
	// buffered while the record had its node (Reader.Get). A GET hit within
	// its class's hit window of it emits nothing.
	promoted uint64
	// next links the record into its shard's freelist while pooled.
	next *item
}

// expiredAt reports whether the record's TTL has lapsed at the given clock.
func (it *item) expiredAt(now int64) bool {
	return it.expires != 0 && now >= it.expires
}

// deadAt reports whether the record is invalid at now: its TTL lapsed, or a
// delayed flush_all deadline (flushAt, 0 = none armed) has passed that
// postdates the record's last write — memcached's oldest_live rule.
func (it *item) deadAt(now, flushAt int64) bool {
	if it.expiredAt(now) {
		return true
	}
	return flushAt != 0 && now >= flushAt && it.setAt < flushAt
}

// valueShard is one stripe of a tenant's item directory plus its bookkeeping
// event buffer.
type valueShard struct {
	mu    sync.Mutex
	items map[string]*item
	// casCounter provides unique CAS tokens for the gets/cas protocol verbs.
	casCounter uint64
	// idx is the shard's index: it selects the arena stripe the shard's
	// chunk traffic goes through.
	idx int
	// freeItems pools dead item records for reuse (guarded by mu), bounded
	// by the shard's peak residency. A record is pooled only after its chunk
	// has been retired and only under mu; readers capture the value slice
	// and scalar fields before unlocking, never the record pointer, so no
	// reader can still hold it.
	freeItems *item

	// pending buffers this shard's bookkeeping events (guarded by mu); it is
	// only stolen under bk.mu, which makes stealing and replaying it one
	// atomic step so per-key event order is preserved (see
	// bookkeeper.applyShard). spare is the recycled second buffer a steal
	// ping-pongs with, so steady-state event buffering never allocates.
	pending []event
	spare   []event
	// act is what the critical section in progress owes (guarded by mu);
	// bookkeeper.release takes and resets it.
	act recordAction
	// unpromoted counts, per class queue, the GET hits the shard served
	// within their hit window, which emit no event (guarded by mu), and
	// unpromotedSum is their total. The next steal of the shard's buffer
	// folds them into the tenant's counters (Tenant.countUnpromoted).
	unpromoted    []int64
	unpromotedSum int64
}

// getItemLocked pops a pooled record (or allocates the shard's first). The
// caller must hold sh.mu and must initialize every field it needs; pooled
// records come back zeroed.
func (sh *valueShard) getItemLocked() *item {
	if it := sh.freeItems; it != nil {
		sh.freeItems = it.next
		it.next = nil
		return it
	}
	return &item{}
}

// putItemLocked zeroes a dead record and pushes it onto the shard freelist.
// The record's chunk must already have been freed (freeValueLocked) and the
// record removed from sh.items; the caller must hold sh.mu.
func (sh *valueShard) putItemLocked(it *item) {
	*it = item{next: sh.freeItems}
	sh.freeItems = it
}

// tenantEntry couples a tenant's sharded value table with the bookkeeper
// that owns its structural state.
type tenantEntry struct {
	tenant *Tenant // structural state; guarded by bk.mu
	bk     *bookkeeper
	shards []valueShard
	mask   uint64
	// arena is the tenant's slab-chunk allocator: every resident value's
	// bytes live in one of its recycled chunks (see arena.go).
	arena *arena
	// flushAt is the armed delayed-flush deadline in unix seconds (0 = none):
	// records last written before it become invalid once it passes. Read
	// lock-free on the hot path.
	flushAt atomic.Int64

	// Live-reconfiguration state (migrate.go). targetBytes is the
	// reservation the tenant should converge to; appliedBytes mirrors the
	// structural reservation already applied (a lock-free hint for the
	// maintenance tick's is-there-work probe — the authoritative value lives
	// in the Tenant under bk.mu). resized latches once a ResizeTenant has ever run:
	// physical page retirement only happens on explicitly resized tenants,
	// so the asynchronous maintenance tick never retires pages of a tenant
	// that was never resized, although its arena, which has no per-tenant
	// cap, may lease more pages than its reservation.
	targetBytes  atomic.Int64
	appliedBytes atomic.Int64
	resized      atomic.Bool
	// everTTL latches once a record has been given an expiry deadline. Until
	// then (and while no delayed flush is armed) nothing in the tenant can
	// die, and the background reaper does not scan it.
	everTTL atomic.Bool
	// reconfMu serializes reconfigure ticks (maintenance tick vs.
	// synchronous ResizeTenant callers).
	reconfMu sync.Mutex
	// dying fences record creation once DeleteTenant has unregistered the
	// tenant: a straggler holding this entry from before the copy-on-write
	// removal must not install new values behind the teardown's flush.
	dying atomic.Bool
}

// shard returns the stripe of a key whose cache.Hash is hash.
func (e *tenantEntry) shard(hash uint64) *valueShard { return &e.shards[hash&e.mask] }

// newValueLocked returns a buffer of vlen bytes for an item charged at size,
// backed by a recycled arena chunk of the matching slab class. Every storage
// verb has refused a size no chunk can hold before it gets here, in every
// mode. The caller must hold sh.mu.
func (e *tenantEntry) newValueLocked(sh *valueShard, size int64, vlen int) []byte {
	class, _ := e.arena.classFor(size)
	return e.arena.alloc(class)[:vlen]
}

// freeValueLocked retires an item's value chunk into the arena's quarantine.
// The caller must hold sh.mu, the happens-before edge that makes pinned
// readers visible to the reclaimer, and must not touch value afterwards: a
// pinned reader may still be streaming it, and once every such pin has
// advanced it is recycled, possibly at once and to another shard.
func (e *tenantEntry) freeValueLocked(sh *valueShard, size int64, value []byte) {
	if value == nil {
		return
	}
	class, _ := e.arena.classFor(size)
	e.arena.freeChunk(sh.idx, class, value)
}

// dropVictim removes key's record on behalf of a structural eviction, unless
// the record was written by a mutation whose admission event has not been
// replayed yet — that pending re-admission will re-establish the entry, so
// the newer value must survive. A dropped record is pooled immediately; its
// chunk is retired to quarantine, where any reader that pinned a view under
// this same shard lock keeps it alive until it unpins.
func (e *tenantEntry) dropVictim(key string, hash uint64) {
	sh := e.shard(hash)
	sh.mu.Lock()
	if it, ok := sh.items[key]; ok && it.node != nil {
		delete(sh.items, key)
		e.freeValueLocked(sh, it.size, it.value)
		sh.putItemLocked(it)
	}
	sh.mu.Unlock()
}

// markAdmitted records that the admission event stamped seq placed key under
// node. Only the record written by that same mutation is marked, and it
// reports whether there was one: if the record is gone, or a newer mutation
// owns it, the caller unlinks node.
func (e *tenantEntry) markAdmitted(key string, hash, seq uint64, node *cache.Node) bool {
	sh := e.shard(hash)
	sh.mu.Lock()
	ok := false
	if it := sh.items[key]; it != nil && it.seq == seq {
		it.node, ok = node, true
	}
	sh.mu.Unlock()
	return ok
}

// setLocked installs head+tail as key's value, over prev (nil for a fresh
// key), and buffers the admission event describing it, with key's hash. The
// event carries prev's charged size and queue node, 0 and nil for a fresh
// key: a re-set admits through the node, or, when its size lands in another
// class, sheds it from the old class in the replay (Tenant.admit). The caller must hold sh.mu and end the section
// with release. prev may be an expired record: its structural entry is still
// resident until an expiry or admission event removes it, so its size must be
// accounted the same way a live one's is. The record is stamped and pending
// until the admission replays (see dropVictim), and forgets its queue node: a
// cross-class re-set moves it.
//
// Allocation discipline: a re-set keeps prev's record and interned key but
// always installs a fresh chunk and retires the old one to quarantine
// (copy-on-write — a pinned zero-copy reader may still be streaming the old
// bytes). head and tail may alias prev's value (append and prepend pass it),
// so they are copied into the fresh chunk before the old one is retired: a
// retired chunk no pin holds may be reclaimed and handed to a writer on
// another shard at once. The fresh chunk comes off the freelists and the
// retired one cycles back through epoch reclamation, so a steady-state write
// allocates nothing. A fresh key pops a pooled record and a recycled chunk;
// only the interned key string is born on the heap.
func (e *tenantEntry) setLocked(sh *valueShard, key []byte, hash uint64, class int, prev *item, head, tail []byte, flags uint32, expires, now int64) {
	sh.casCounter++
	size := int64(len(key) + len(head) + len(tail))
	value := e.newValueLocked(sh, size, len(head)+len(tail))
	copy(value[copy(value, head):], tail)
	ev := event{kind: evAdmit, size: size, hash: hash}
	it := prev
	if it == nil {
		it = sh.getItemLocked()
		it.key = string(key)
		sh.items[it.key] = it
	} else {
		ev.oldSize, ev.node = it.size, it.node
		e.freeValueLocked(sh, it.size, it.value)
	}
	it.value = value
	it.flags = flags
	it.class = int32(class)
	it.cas = sh.casCounter
	it.size = size
	e.setExpiresLocked(it, expires)
	it.setAt = now
	ev.key = it.key
	e.bk.bufferLocked(sh, &ev)
	it.seq, it.promoted = ev.seq, ev.seq
	it.node = nil
}

// setExpiresLocked gives it the expiry deadline expires (0 = never), latching
// everTTL on the tenant's first real deadline. The flag is loaded first
// because it is written once and every later TTL write would otherwise
// contend on it. The caller must hold the record's shard lock.
func (e *tenantEntry) setExpiresLocked(it *item, expires int64) {
	it.expires = expires
	if expires != 0 && !e.everTTL.Load() {
		e.everTTL.Store(true)
	}
}

// removeLocked drops it from the directory, recycles its chunk and record,
// and buffers the structural event (kind: delete, expiry, migration) that
// tells the bookkeeper, with the record's interned key and queue node. The
// caller must hold sh.mu, must end the section with release and must not
// touch it afterwards.
func (e *tenantEntry) removeLocked(sh *valueShard, it *item, kind eventKind) {
	ev := event{kind: kind, key: it.key, size: it.size, node: it.node}
	delete(sh.items, it.key)
	e.freeValueLocked(sh, it.size, it.value)
	sh.putItemLocked(it)
	e.bk.bufferLocked(sh, &ev)
}

// removeWhere removes every record of sh that drop selects, looking at no
// more than limit records (0: the whole shard), in one critical section that
// buffers a removal event of kind for each (delete, expiry, migration), so the
// structural removals replay in arrival order with racing mutations of the
// same keys, and settles once. The caller must hold neither a shard lock nor
// bk.mu: release may replay.
func (e *tenantEntry) removeWhere(sh *valueShard, kind eventKind, limit int, drop func(*item) bool) {
	sh.mu.Lock()
	scanned := 0
	for _, it := range sh.items {
		if drop(it) {
			e.removeLocked(sh, it, kind)
		}
		if scanned++; scanned == limit {
			break
		}
	}
	e.bk.release(sh)
}

// New returns an empty store.
func New(cfg Config) *Store {
	if cfg.Geometry == nil {
		cfg.Geometry = slab.DefaultGeometry()
	}
	if cfg.Cliffhanger.CreditBytes == 0 {
		cfg.Cliffhanger = core.DefaultConfig()
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().Unix() }
	}
	s := &Store{cfg: cfg, pa: newPageAllocator(cfg.Geometry.PageSize)}
	empty := make(map[string]*tenantEntry)
	s.tenants.Store(&empty)
	s.arb = newArbiterState(cfg.Arbiter, s.pa.pageSize)
	if !cfg.SyncBookkeeping || cfg.Arbiter.Interval > 0 {
		s.stop, s.done = make(chan struct{}), make(chan struct{})
		go s.maintain()
	}
	return s
}

// maintain is the store's one background goroutine, whatever its tenant
// count, as memcached runs one LRU maintainer thread. With asynchronous
// bookkeeping it gives every tenant a tick each sweepInterval (bookkeeper.tick:
// reap, sweep what low-rate traffic left below the batch boundary, reclaim,
// resize); with a positive Config.Arbiter.Interval it runs the arbiter.
func (s *Store) maintain() {
	defer close(s.done)
	var ticks, arbTicks <-chan time.Time
	if !s.cfg.SyncBookkeeping {
		t := time.NewTicker(sweepInterval)
		defer t.Stop()
		ticks = t.C
	}
	if s.cfg.Arbiter.Interval > 0 {
		t := time.NewTicker(s.cfg.Arbiter.Interval)
		defer t.Stop()
		arbTicks = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-ticks:
			s.tickMu.Lock()
			for _, e := range *s.tenants.Load() {
				e.bk.tick()
			}
			s.tickMu.Unlock()
		case <-arbTicks:
			s.ArbiterTick()
		}
	}
}

// RegisterTenant creates a tenant with the given memory reservation using
// the store's default mode.
func (s *Store) RegisterTenant(name string, memoryBytes int64) error {
	return s.RegisterTenantConfig(TenantConfig{
		Name:        name,
		MemoryBytes: memoryBytes,
		Mode:        s.cfg.DefaultMode,
	})
}

// RegisterTenantConfig creates a tenant from an explicit configuration.
// Unset geometry and Cliffhanger settings inherit the store defaults.
func (s *Store) RegisterTenantConfig(cfg TenantConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("store: tenant name must not be empty")
	}
	if cfg.Geometry == nil {
		cfg.Geometry = s.cfg.Geometry
	}
	if cfg.Cliffhanger.CreditBytes == 0 {
		cfg.Cliffhanger = s.cfg.Cliffhanger
	}
	tenant, err := NewTenant(cfg)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	old := *s.tenants.Load()
	if _, dup := old[cfg.Name]; dup {
		return fmt.Errorf("store: tenant %q already registered", cfg.Name)
	}
	if cfg.Geometry.PageSize != s.pa.pageSize {
		return fmt.Errorf("store: tenant %q page size %d does not match the store's page pool (%d)",
			cfg.Name, cfg.Geometry.PageSize, s.pa.pageSize)
	}
	n := valueShards
	e := &tenantEntry{
		tenant: tenant,
		shards: make([]valueShard, n),
		mask:   uint64(n - 1),
		arena:  newArena(cfg.Geometry, n, s.pa, cfg.Name),
	}
	e.targetBytes.Store(cfg.MemoryBytes)
	e.appliedBytes.Store(cfg.MemoryBytes)
	for i := range e.shards {
		e.shards[i].items = make(map[string]*item)
		e.shards[i].idx = i
		e.shards[i].unpromoted = make([]int64, len(tenant.queues))
	}
	e.bk = &bookkeeper{tenant: tenant, entry: e, now: s.cfg.Now, window: make([]atomic.Int64, len(tenant.queues)),
		stolen: make([][]event, n), cursor: make([]int, n), slots: make([]*event, sweepWindow)}
	e.bk.inline.Store(s.cfg.SyncBookkeeping)
	next := make(map[string]*tenantEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[cfg.Name] = e
	s.tenants.Store(&next)
	return nil
}

// ResizeTenant retargets a live tenant's memory reservation at newBytes. The
// call only records the target: the resize executes incrementally on the
// store's maintenance ticks — structural capacity moves in bounded steps, and
// surplus pages are retired one at a time through the migration machinery —
// so traffic is never stalled or dropped. With synchronous bookkeeping (no
// maintenance tick) the work is driven here instead, bounded so a long-held
// reader pin cannot wedge the caller: a shrink behind a pinned reader can
// return mid-migration. Flush does not finish it (it only sweeps events);
// the next ResizeTenant goes on with it, and the package's tests that need it
// finished loop reconfigureTick.
func (s *Store) ResizeTenant(name string, newBytes int64) error {
	if newBytes <= 0 {
		return fmt.Errorf("store: tenant %q needs a positive memory reservation", name)
	}
	e, ok := s.entry(name)
	if !ok || e.dying.Load() {
		return ErrNoTenant{name}
	}
	e.targetBytes.Store(newBytes)
	e.resized.Store(true)
	if s.cfg.SyncBookkeeping {
		for i := 0; i < 4096 && e.reconfigureTick(); i++ {
		}
	}
	return nil
}

// DeleteTenant unregisters a tenant: the copy-on-write registry update makes
// it invisible to new requests immediately, and an asynchronous teardown
// flushes its records, waits for the quarantine to fully drain — no recycled
// chunk may still be pinned by a reader of the dying tenant — and only then
// returns its pages to the process-wide pool. In-flight requests holding the
// entry finish safely: reads complete against the still-valid arena, and
// record-creating writes are fenced by the dying flag.
func (s *Store) DeleteTenant(name string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	old := *s.tenants.Load()
	e, ok := old[name]
	if !ok {
		s.mu.Unlock()
		return ErrNoTenant{name}
	}
	next := make(map[string]*tenantEntry, len(old)-1)
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	s.tenants.Store(&next)
	s.teardowns.Add(1)
	s.mu.Unlock()
	e.dying.Store(true)
	go s.teardownTenant(e)
	return nil
}

// teardownTenant drains a deleted tenant: wait out a maintenance pass that
// loaded the registry before the delete (no later one can reap, sweep or
// migrate behind the teardown), close its bookkeeper, flush every record
// through the normal event path, then spin the epoch clock until every chunk
// has left quarantine (a pinned reader of the dying tenant blocks this exactly
// as long as it holds its view) and any in-flight page migration has
// completed. Only a fully drained arena returns its pages.
func (s *Store) teardownTenant(e *tenantEntry) {
	defer s.teardowns.Done()
	s.tickMu.Lock()
	s.tickMu.Unlock()
	e.bk.close()
	s.flushNow(e)
	for {
		if m := e.arena.migrating.Load(); m != nil {
			e.arena.migrationSweep(m)
		}
		e.arena.advanceEpoch()
		e.arena.reclaim()
		if e.arena.usedChunks() == 0 && e.arena.quarantinedChunks() == 0 && e.arena.migrating.Load() == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	e.arena.releaseAll()
}

// PageStats reports the process-wide page pool: total raw pages, pages
// sitting unleased in the free pool, and per-tenant lease counts. A deleted
// tenant's lease entry disappears once its teardown has returned every page.
func (s *Store) PageStats() PageStats {
	return s.pa.stats()
}

// Tenants returns the registered tenant names, sorted.
func (s *Store) Tenants() []string {
	m := *s.tenants.Load()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TenantName returns name as a string without allocating when a tenant of
// that name is registered (the registry's own copy comes back), and as a new
// string otherwise. The server's tenant verb keeps the result for the life
// of the selection, so a session switching between live tenants on every
// command produces no garbage.
func (s *Store) TenantName(name []byte) string {
	if e, ok := (*s.tenants.Load())[string(name)]; ok {
		return e.tenant.Name()
	}
	return string(name)
}

func (s *Store) entry(tenant string) (*tenantEntry, bool) {
	e, ok := (*s.tenants.Load())[tenant]
	return e, ok
}

// ErrNoTenant is returned for operations on unregistered tenants.
type ErrNoTenant struct{ Name string }

func (e ErrNoTenant) Error() string { return fmt.Sprintf("store: unknown tenant %q", e.Name) }

// CASResult is the outcome of a CompareAndSwap.
type CASResult int

const (
	// CASStored means the token matched and the value was replaced.
	CASStored CASResult = iota
	// CASExists means the item was modified since the gets that produced
	// the token.
	CASExists
	// CASNotFound means the key does not exist (or has expired).
	CASNotFound
)

// ErrNotNumeric is returned by Incr/Decr when the stored value is not an
// unsigned decimal integer.
var ErrNotNumeric = errors.New("store: cannot increment or decrement non-numeric value")

// errTooLarge is the oversized-object error shared by every storage verb.
func errTooLarge(key string, size int64) error {
	return fmt.Errorf("store: object %q of %d bytes exceeds the largest slab class", key, size)
}

// maxRelativeExpiry is the memcached cutoff between relative and absolute
// exptime values: up to 30 days the number is seconds from now, above that
// it is an absolute unix timestamp.
const maxRelativeExpiry = 60 * 60 * 24 * 30

// deadline converts a wire exptime into an absolute unix-seconds deadline:
// 0 never expires, negative values are already expired, small values are
// relative to now, large values are absolute timestamps.
func (s *Store) deadline(exptime int64) int64 {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return -1
	case exptime <= maxRelativeExpiry:
		return s.cfg.Now() + exptime
	default:
		return exptime
	}
}

// deadNow is the hot-path dead check for a record: TTL expiry or a passed
// delayed-flush deadline. The clock is read only when the record can expire
// at all or a delayed flush is armed, so the steady-state GET of a
// never-expiring key costs one atomic load.
func (s *Store) deadNow(e *tenantEntry, it *item) bool {
	fa := e.flushAt.Load()
	if it.expires == 0 && fa == 0 {
		return false
	}
	return it.deadAt(s.cfg.Now(), fa)
}

// liveLocked is the one directory probe: it returns key's record if present
// and not dead (TTL lapsed or flushed). A dead record is removed, its chunk
// and record recycled, and its expiry event buffered ahead of any event the
// caller buffers (per-key arrival order); the caller must hold sh.mu and end
// the section with release. A byte key rides Go's allocation-free
// m[string(b)] lookup. The clock is only consulted for records that can die
// at all.
func liveLocked[K ~string | ~[]byte](s *Store, e *tenantEntry, sh *valueShard, key K) *item {
	it := sh.items[string(key)]
	if it == nil || !s.deadNow(e, it) {
		return it
	}
	e.removeLocked(sh, it, evExpire)
	return nil
}

// ItemView is a borrowed read of a resident item: Value points straight into
// the record's arena chunk, kept immutable and un-recycled by an epoch pin.
// A view from GetItemView holds its own pin until Release is called; a view
// from Reader.Get is covered by the run's pin until Reader.End. The holder
// may read Value — e.g. stream it to a connection writer — but must not
// retain it past that point. A view from GetItemView must be Released
// exactly once (a zero-value ItemView's Release is a no-op, so misses need no
// special casing). Copy-on-write mutations and the epoch quarantine together
// guarantee the bytes cannot change or be reused while the pin is held.
type ItemView struct {
	Value []byte
	Flags uint32
	CAS   uint64
	pin   epochPin
}

// Release unpins the view's epoch slot, allowing the chunk to be recycled
// once every older pin has also released. Idempotent on the zero value only;
// a pinned view must be released exactly once.
func (v *ItemView) Release() {
	v.pin.release()
	v.Value = nil
}

// epochPin is a reader's hold on one stripe's pin slot of a tenant's arena;
// the zero value holds nothing.
type epochPin struct {
	arena  *arena
	stripe int
}

func (p *epochPin) release() {
	if p.arena != nil {
		p.arena.unpin(p.stripe)
		p.arena = nil
	}
}

// Reader is a run of reads of one tenant, the shape a pipelined run of GETs
// is served in: BeginRead resolves the tenant once, Get reads one key, and
// End releases the one epoch pin the run's first hit took. Every view Get
// returns stays readable until End. A Reader is a small value owned by one
// goroutine; the zero value (what BeginRead returns with an error) must not
// be read from, and End on it is a no-op.
type Reader struct {
	s   *Store
	e   *tenantEntry
	pin epochPin
}

// BeginRead starts a run of reads of tenant. The caller MUST call End once it
// is done with every view the run returned; nothing else is held meanwhile,
// so a run may interleave with any other store call.
func (s *Store) BeginRead(tenant string) (Reader, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return Reader{}, ErrNoTenant{tenant}
	}
	return Reader{s: s, e: e}, nil
}

// Get is the read path, and it is zero-copy: a byte-keyed lookup whose
// critical section is just the directory probe, the event append and, at the
// run's first hit, the epoch pin — no value bytes move under the shard lock.
// On a hit the returned view borrows the record's chunk directly; on a miss
// (ok false) the view is zero.
//
// A hit emits no event at all when its record was last promoted fewer than
// W of the tenant's stamps ago, W being its class's hit window
// (bookkeeper.window). In a synchronous store, whose every event is replayed
// before this read, the key is then still in its queue's front segment, where
// a replayed hit would only have moved it to the head; in an asynchronous one
// events stamped since may still be buffered, and the rule is approximate
// (the bookkeeper's doc). Stock memcached skips the relink of an item it
// bumped recently the same way (ITEM_UPDATE_INTERVAL), by time; the window
// counts events, so a synchronous store decides it in request order. The
// shard counts such a hit (valueShard.unpromoted) and the next steal of its
// buffer folds it into the tenant's hits.
//
// One pin covers the whole run. The first hit pins its shard's stripe before
// that shard unlocks, as a one-key read must. Every later view is of a chunk
// the run read under its shard's lock after the pin was published, so that
// chunk is retired, if ever, after the pin, at an epoch no older than the
// pinned one; and the reclaimer's minPinned scans every stripe's slot, so it
// holds the chunk in quarantine until End whichever stripe the pin is on.
//
// The map lookup rides Go's allocation-free m[string(b)] optimization; a hit
// reuses the record's interned key string for the bookkeeping event, and a
// miss sends an event with no key at all — so both outcomes perform zero heap
// allocations in this layer (the alloc gates pin hit = 0 and miss = 0).
func (r *Reader) Get(key []byte) (ItemView, bool) {
	e := r.e
	sh := e.shard(cache.Hash(key))
	sh.mu.Lock()
	it := liveLocked(r.s, e, sh, key)
	// Drive the eviction/shadow structures with the charged size recorded at
	// admission, so the lookup lands on the slab class that actually holds the
	// key. Buffered in the same critical section as the record read, so
	// per-key event order matches value order. A miss (a just-expired record
	// included) is an event without a key, counted against the class of the
	// key length: a record leaves the directory only after its structural
	// removal, or ahead of it in this shard's buffer, and a GET never admits,
	// so there is nothing in any queue for the replay to find. A hit within
	// its window sends nothing; one whose admission is pending (no node) is
	// never in it, and its event does not move promoted (rule 2 of event).
	ev := event{kind: evLookup, size: int64(len(key))}
	var out ItemView
	if it != nil {
		if r.pin.arena == nil {
			// Pin before unlocking: the pin-store happens-before any
			// retirement of this chunk (retires run under this same shard
			// mutex), which is what makes the borrowed Value safe to read
			// after the unlock.
			e.arena.pin(sh.idx)
			r.pin = epochPin{arena: e.arena, stripe: sh.idx}
		}
		out = ItemView{Value: it.value, Flags: it.flags, CAS: it.cas}
		if it.node != nil && e.bk.seq.Load()-it.promoted < uint64(e.bk.window[it.class].Load()) {
			sh.unpromoted[it.class]++
			sh.unpromotedSum++
			sh.mu.Unlock() // the section buffered nothing: nothing to settle
			return out, true
		}
		ev.key, ev.size, ev.node = it.key, it.size, it.node
	}
	e.bk.bufferLocked(sh, &ev)
	if it != nil && it.node != nil && ev.seq != 0 {
		it.promoted = ev.seq
	}
	e.bk.release(sh)
	return out, it != nil
}

// End releases the run's epoch pin, if its first hit took one: every view the
// run returned is invalid from here on.
func (r *Reader) End() {
	r.pin.release()
}

// GetItemView is a run of one read: the Reader.Get body, with the pin of a
// hit handed to the view, so the caller streams or copies the value and then
// MUST call Release. On a miss (ok false) the view is zero and needs no
// Release. sim, the tests and the benchmark read through it.
func (s *Store) GetItemView(tenant string, key []byte) (ItemView, bool, error) {
	r, err := s.BeginRead(tenant)
	if err != nil {
		return ItemView{}, false, err
	}
	v, ok := r.Get(key)
	v.pin = r.pin
	return v, ok, nil
}

// SetItemBytes stores value under key with the given flags and exptime
// (memcached semantics: 0 never expires, <= 30 days is relative seconds,
// larger is an absolute unix timestamp, negative is immediately expired),
// evicting older entries as needed. Values too large for any slab class are
// rejected. Key and value are caller-owned (the server's reusable parse
// buffers), as they are for every write verb below: the value is copied into
// a recycled arena chunk under the shard lock, and the key string is
// materialized only at map insertion — re-setting a resident key reuses its
// interned key and its record, so the steady-state SET allocates nothing.
//
// With asynchronous bookkeeping the admission is settled off the request
// path: in the rare case that the key does not fit its tenant at all, the
// value is dropped shortly after the call instead of producing an error.
func (s *Store) SetItemBytes(tenant string, key, value []byte, flags uint32, exptime int64) error {
	_, _, err := s.write(tenant, key, verbSet, value, flags, exptime, 0)
	return err
}

// Add stores value only if key is absent (or expired), per the memcached add
// verb. It reports whether the value was stored.
func (s *Store) Add(tenant string, key, value []byte, flags uint32, exptime int64) (bool, error) {
	res, _, err := s.write(tenant, key, verbAdd, value, flags, exptime, 0)
	return res == CASStored && err == nil, err
}

// Replace stores value only if key is already present and unexpired, per the
// memcached replace verb. It reports whether the value was stored.
func (s *Store) Replace(tenant string, key, value []byte, flags uint32, exptime int64) (bool, error) {
	res, _, err := s.write(tenant, key, verbReplace, value, flags, exptime, 0)
	return res == CASStored && err == nil, err
}

// AppendBytes appends suffix to key's existing value, keeping its flags and
// expiry. It reports whether the key existed.
func (s *Store) AppendBytes(tenant string, key, suffix []byte) (bool, error) {
	res, _, err := s.write(tenant, key, verbAppend, suffix, 0, 0, 0)
	return res == CASStored && err == nil, err
}

// PrependBytes prepends prefix to key's existing value, keeping its flags
// and expiry. It reports whether the key existed.
func (s *Store) PrependBytes(tenant string, key, prefix []byte) (bool, error) {
	res, _, err := s.write(tenant, key, verbPrepend, prefix, 0, 0, 0)
	return res == CASStored && err == nil, err
}

// CompareAndSwap stores value only if key's record still carries the given
// CAS token (from a previous gets), per the memcached cas verb.
func (s *Store) CompareAndSwap(tenant string, key, value []byte, flags uint32, exptime int64, cas uint64) (CASResult, error) {
	res, _, err := s.write(tenant, key, verbCAS, value, flags, exptime, cas)
	if err != nil {
		return CASNotFound, err
	}
	return res, nil
}

// Incr adds delta to the decimal unsigned integer stored under key,
// returning the new value. It reports whether the key existed;
// ErrNotNumeric is returned for non-numeric values.
func (s *Store) Incr(tenant string, key []byte, delta uint64) (uint64, bool, error) {
	res, n, err := s.write(tenant, key, verbIncr, nil, 0, 0, delta)
	return n, res != CASNotFound, err
}

// Decr subtracts delta from the decimal unsigned integer stored under key,
// clamping at zero per the memcached decr verb.
func (s *Store) Decr(tenant string, key []byte, delta uint64) (uint64, bool, error) {
	res, n, err := s.write(tenant, key, verbDecr, nil, 0, 0, delta)
	return n, res != CASNotFound, err
}

// writeVerb names the verb the one write body serves.
type writeVerb uint8

const (
	verbSet writeVerb = iota
	verbAdd
	verbReplace
	verbCAS
	verbAppend
	verbPrepend
	verbIncr
	verbDecr
)

// write is the one locked body of every verb that stores a record. Under the
// shard lock it checks the dying fence, reads the record, lets the verb
// decide, checks the size against the largest slab class and installs the
// value (setLocked), which buffers the admission event in the same critical
// section; release ends it. SET reads the record alive or dead —
// a dead record's structural entry is still resident, so the admission must
// shed it — and every other verb reads the live record only (liveLocked),
// shedding a dead one as an expiry. arg is cas's token or incr and decr's
// delta.
//
// res is what the verb decided: CASNotFound when it needs a record and there
// is none, CASExists when it declined the one there (add of a present key, a
// stale cas token, incr or decr of a non-numeric value), CASStored when it
// stored; err may still follow a stored decision (too large, or in a
// synchronous store a key that does not fit its tenant). n is incr and
// decr's new value; its decimal form is built in a stack array, so no verb
// allocates but for the interned key of a fresh record and an error.
func (s *Store) write(tenant string, key []byte, verb writeVerb, value []byte, flags uint32, exptime int64, arg uint64) (res CASResult, n uint64, err error) {
	e, ok := s.entry(tenant)
	if !ok {
		return CASNotFound, 0, ErrNoTenant{tenant}
	}
	hash := cache.Hash(key)
	sh := e.shard(hash)
	sh.mu.Lock()
	if e.dying.Load() {
		// The tenant was deleted after this caller resolved the entry: the
		// check runs under the shard lock, ordered before the teardown's
		// flush sweep of this shard, so no record can be created behind it.
		sh.mu.Unlock()
		return CASNotFound, 0, ErrNoTenant{tenant}
	}
	it := sh.items[string(key)]
	if verb != verbSet {
		it = liveLocked(s, e, sh, key)
	}
	var num [20]byte
	head, tail, expires := value, []byte(nil), s.deadline(exptime)
	res = CASStored
	switch {
	case verb == verbSet:
	case verb == verbAdd:
		if it != nil {
			res = CASExists
		}
	case it == nil:
		res = CASNotFound
	case verb == verbReplace:
	case verb == verbCAS:
		if it.cas != arg {
			res = CASExists
		}
	default:
		// append, prepend, incr and decr keep the record's flags and expiry.
		flags, expires = it.flags, it.expires
		switch verb {
		case verbAppend:
			head, tail = it.value, value
		case verbPrepend:
			tail = it.value
		default:
			if n, ok = addDelta(it.value, arg, verb == verbDecr); ok {
				head = strconv.AppendUint(num[:0], n, 10)
			} else {
				res, err = CASExists, ErrNotNumeric
			}
		}
	}
	size := int64(len(key) + len(head) + len(tail))
	class, fits := e.tenant.ClassFor(size)
	if res == CASStored && !fits {
		err = errTooLarge(string(key), size)
	}
	if res != CASStored || err != nil {
		e.bk.release(sh)
		return res, n, err
	}
	e.setLocked(sh, key, hash, class, it, head, tail, flags, expires, s.cfg.Now())
	e.bk.release(sh)
	return res, n, e.admitOutcome(tenant, sh, key)
}

// addDelta is incr (decr false) or decr of the unsigned decimal value: incr
// wraps at 2^64 and decr clamps at zero, like memcached. It reports false
// for a value that is not a number.
func addDelta(value []byte, delta uint64, decr bool) (uint64, bool) {
	cur, err := strconv.ParseUint(string(value), 10, 64)
	switch {
	case err != nil:
		return 0, false
	case !decr:
		return cur + delta, true
	case delta > cur:
		return 0, true
	}
	return cur - delta, true
}

// admitOutcome reports the does-not-fit error of an admission its producer
// applied (synchronous mode, or after Close): by the time release has
// returned, a bounced key's record has been dropped by the replay
// (dropVictim), so a missing record means the key did not fit its tenant.
// Asynchronous admissions settle later and always report nil (the value is
// shed shortly after; see SetItemBytes). Under concurrent use the check is
// best-effort — a racing delete of the same key can be indistinguishable
// from a bounce.
func (e *tenantEntry) admitOutcome(tenant string, sh *valueShard, key []byte) error {
	if !e.bk.inline.Load() {
		return nil
	}
	sh.mu.Lock()
	_, alive := sh.items[string(key)]
	sh.mu.Unlock()
	if !alive {
		return fmt.Errorf("store: object %q does not fit in tenant %q", string(key), tenant)
	}
	return nil
}

// Touch updates key's expiry deadline without touching the value, promoting
// it like a GET. It reports whether the key existed.
func (s *Store) Touch(tenant string, key []byte, exptime int64) (bool, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return false, ErrNoTenant{tenant}
	}
	expires := s.deadline(exptime)
	sh := e.shard(cache.Hash(key))
	sh.mu.Lock()
	it := liveLocked(s, e, sh, key)
	// A touch refreshes recency in the eviction queues but is accounted
	// into its own counters (cmd_touch/touch_hits), never the GET hit rate.
	// Like a GET it is sized by the resident record's charge and carries its
	// queue node, and a miss is an event without a key, sized by the key
	// length: a record leaves the directory only after its structural
	// removal, or ahead of it in this shard's buffer, so there is nothing in
	// any queue for the replay to find.
	ev := event{kind: evTouch, size: int64(len(key))}
	if it != nil {
		e.setExpiresLocked(it, expires)
		ev.key, ev.size, ev.node = it.key, it.size, it.node
	}
	e.bk.bufferLocked(sh, &ev)
	e.bk.release(sh)
	return it != nil, nil
}

// Delete removes key from the tenant, reporting whether it was present (an
// expired record is reaped and reported as absent). The record's chunk and
// the record itself go back to the freelists.
func (s *Store) Delete(tenant, key string) (bool, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return false, ErrNoTenant{tenant}
	}
	sh := e.shard(cache.Hash(key))
	sh.mu.Lock()
	it := liveLocked(s, e, sh, key)
	if it != nil {
		e.removeLocked(sh, it, evRemove)
	}
	e.bk.release(sh)
	return it != nil, nil
}

// FlushAll implements the memcached flush_all verb for one tenant: with
// exptime 0 (or a deadline already in the past) every current item is
// invalidated immediately; a future deadline arms a delayed flush under
// which items last written before the deadline become invalid once it
// passes, while items written after it survive (memcached's oldest_live
// rule). A later flush_all of either kind replaces any pending one. Records
// a delayed flush kills are shed lazily on access and by the background
// reaper, counting as Expired.
func (s *Store) FlushAll(tenant string, exptime int64) error {
	e, ok := s.entry(tenant)
	if !ok {
		return ErrNoTenant{tenant}
	}
	at := s.deadline(exptime)
	if at != 0 && at > s.cfg.Now() {
		e.flushAt.Store(at)
		return nil
	}
	return s.flushNow(e)
}

// flushNow physically removes every record of the tenant, recycling chunks
// and records as it goes. The pending delayed-flush deadline (if any) is
// cleared first: memcached's flush_all replaces an armed deadline, so items
// written after this call must survive the old one.
//
// The removals go through the same per-shard event buffers as every other
// structural event — NOT directly against the tenant — so they serialize in
// arrival order with racing mutations on the same keys. (A direct replay
// used to let a concurrent SET's still-buffered admission apply after the
// flush's removal, leaving a structural entry whose record the flush had
// already dropped — a permanent UsedBytes leak.) Each shard is one critical
// section that settles once, so a flush applies each shard at most once.
func (s *Store) flushNow(e *tenantEntry) error {
	e.flushAt.Store(0)
	for i := range e.shards {
		e.removeWhere(&e.shards[i], evRemove, 0, func(*item) bool { return true })
	}
	return nil
}

// Flush blocks until every bookkeeping event enqueued before the call has
// been applied, so stats and snapshots reflect all completed operations.
func (s *Store) Flush() {
	for _, e := range *s.tenants.Load() {
		e.bk.sweep()
	}
}

// Close stops the maintenance goroutine and settles every tenant's
// bookkeeper. Operations issued after Close fall back to inline bookkeeping;
// Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	for _, e := range *s.tenants.Load() {
		e.bk.close()
	}
	s.teardowns.Wait()
	return nil
}

// Stats returns the tenant's counters, settling in-flight bookkeeping first,
// with its bookkeeper's shed events, producer sweeps and inline applies.
func (s *Store) Stats(tenant string) (TenantStats, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return TenantStats{}, ErrNoTenant{tenant}
	}
	e.bk.mu.Lock()
	e.bk.sweepLocked()
	st := e.tenant.Stats()
	e.bk.mu.Unlock()
	st.DroppedEvents = e.bk.dropped.Load()
	st.Sweeps = e.bk.sweeps.Load()
	st.InlineApplies = e.bk.inlineApplies.Load()
	return st, nil
}

// SlabStats returns the tenant's per-class arena occupancy: chunk size,
// leased pages, and used/free/quarantined/migrating/uncarved chunk counts
// (the data behind the protocol's "stats slabs"). Under live traffic the
// split is approximate; on a quiesced store the five states sum to
// pages * chunks-per-page exactly.
func (s *Store) SlabStats(tenant string) ([]ArenaClassStats, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return nil, ErrNoTenant{tenant}
	}
	return e.arena.stats(), nil
}

// ReclaimStats returns the tenant's epoch-reclamation counters: the current
// global epoch, the chunks parked in quarantine right now, and the monotone
// count of frees ever deferred through it (served as epoch_current,
// epoch_quarantined_chunks and epoch_deferred_frees by the stats verb).
func (s *Store) ReclaimStats(tenant string) (ArenaReclaimStats, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return ArenaReclaimStats{}, ErrNoTenant{tenant}
	}
	return e.arena.reclaimStats(), nil
}

// QueueSnapshots returns the per-queue Cliffhanger state of the tenant (nil
// for tenants in other allocation modes) and the bytes of its reservation
// that no class queue has been granted yet, settling in-flight bookkeeping
// first. It is safe to call concurrently with request traffic.
func (s *Store) QueueSnapshots(tenant string) (queues []core.QueueSnapshot, freeBytes int64, err error) {
	e, ok := s.entry(tenant)
	if !ok {
		return nil, 0, ErrNoTenant{tenant}
	}
	e.bk.mu.Lock()
	defer e.bk.mu.Unlock()
	e.bk.sweepLocked()
	p, ok := e.tenant.policy.(*managedPolicy)
	if !ok {
		return nil, 0, nil
	}
	return p.mgr.Snapshot(), p.free, nil
}

// ClassCapacities returns the tenant's current per-class capacities in
// bytes, settling in-flight bookkeeping first.
func (s *Store) ClassCapacities(tenant string) (map[int]int64, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return nil, ErrNoTenant{tenant}
	}
	e.bk.mu.Lock()
	defer e.bk.mu.Unlock()
	e.bk.sweepLocked()
	return e.tenant.ClassCapacities(), nil
}

// Items reports the number of item records the tenant currently holds.
// Expired records that neither a read nor the reaper has shed yet are still
// counted.
func (s *Store) Items(tenant string) (int, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return 0, ErrNoTenant{tenant}
	}
	e.bk.sweep()
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n, nil
}

// UsedBytes reports the tenant's resident bytes as accounted by its slab
// queues, settling in-flight bookkeeping first.
func (s *Store) UsedBytes(tenant string) (int64, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return 0, ErrNoTenant{tenant}
	}
	e.bk.mu.Lock()
	defer e.bk.mu.Unlock()
	e.bk.sweepLocked()
	return e.tenant.UsedBytes(), nil
}

// AuditConservation verifies the tenant's arena chunk-conservation
// invariant against a walk of the item directory: every chunk of every
// leased page is backing a resident value, sitting on its class's freelist,
// parked in quarantine, captured by an in-flight page migration, or not
// carved yet (used + free + quarantined + migrating + uncarved ==
// pages * chunks-per-page); the arena's used counts match the directory
// walk; and UsedBytes matches the structural charge of the resident records.
// The caller must quiesce traffic on the tenant. The tenant's own background
// work need not be: the whole audit is one critical section against the
// maintenance tick's reaper and page migration (auditSealed), retried until
// it finds no bookkeeping event in flight. The chaos and shutdown suites run this after
// every fault storm: a fault that leaks or double-frees a chunk fails here.
func (s *Store) AuditConservation(tenant string) error {
	e, ok := s.entry(tenant)
	if !ok {
		return ErrNoTenant{tenant}
	}
	for {
		if settled, err := e.auditSealed(); settled {
			return err
		}
	}
}

// auditSealed is AuditConservation's critical section. It holds bk.mu, sweeps,
// and then takes every shard lock, in index order (the documented lock
// order), so nothing can enter or leave the directory and no event can reach
// the queues while the three counts are compared; taken one after the other,
// a record the reaper expires between the directory walk and the UsedBytes
// read is a charge nobody holds. Holding bk.mu also means no applier is
// sitting on events it stole and has not replayed; events buffered on a shard
// after the sweep (the reaper's) make the pass report settled = false.
func (e *tenantEntry) auditSealed() (settled bool, err error) {
	e.bk.mu.Lock()
	defer e.bk.mu.Unlock()
	e.bk.sweepLocked()
	for i := range e.shards {
		e.shards[i].mu.Lock()
		defer e.shards[i].mu.Unlock()
	}
	usedWant := make([]int64, e.arena.geom.NumClasses())
	var charge int64
	for i := range e.shards {
		sh := &e.shards[i]
		if len(sh.pending) > 0 {
			return false, nil
		}
		for _, it := range sh.items {
			chunk, fits := e.arena.classFor(it.size)
			if !fits {
				return true, fmt.Errorf("store: key %q resident at size %d beyond the largest class", it.key, it.size)
			}
			usedWant[chunk]++
			queue, _ := e.tenant.ClassFor(it.size)
			charge += e.tenant.cost(queue, it.size)
		}
	}
	if err := e.arena.checkConservation(usedWant); err != nil {
		return true, err
	}
	if used := e.tenant.UsedBytes(); used != charge {
		return true, fmt.Errorf("store: UsedBytes %d != live structural charge %d", used, charge)
	}
	return true, nil
}

// DroppedEvents reports how many advisory bookkeeping events the tenant has
// shed under overload (structural events are never dropped).
func (s *Store) DroppedEvents(tenant string) (int64, error) {
	e, ok := s.entry(tenant)
	if !ok {
		return 0, ErrNoTenant{tenant}
	}
	return e.bk.dropped.Load(), nil
}
