package store

// Slab-arena value storage: the allocation discipline that keeps the mutation
// path off the Go garbage collector. Each tenant owns an arena that carves
// 1 MiB pages (slab.Geometry.PageSize) into fixed-size chunks, one chunk pool
// per slab class, exactly like memcached's slab allocator. A stored item's
// value bytes live in a chunk of the class its charged size (key+value) maps
// to; on eviction, expiry, delete, flush and re-set the chunk is recycled
// instead of handed to the GC, so a churning write-heavy workload reuses a
// fixed set of pages instead of continuously allocating.
//
// Layout: each slab class has ONE freelist (arenaCentral.free, a LIFO under
// the class mutex) holding only chunks that were used and freed, which are the
// free chunks worth reusing first because they are already resident. Pages are
// carved on demand: a class keeps the uncarved remainder of its newest page
// (tail) and alloc cuts one chunk off it when the freelist is empty, so
// leasing a page materialises no chunk headers and touches none of its
// memory. There are no per-shard chunk caches: a tenant's footprint follows
// what it stores, not shards x classes. What stays per stripe (one stripe per
// value shard) is the quarantine list and the pin slot, which are what reader
// safety rests on: pin and free run while the caller holds the owning value
// shard's mutex.
//
// Reclamation safety — epoch-based quarantine: a chunk must never be recycled
// while a reader can still observe it. Readers used to be forced to copy the
// value out under the shard lock; now they pin instead. A reader that wants a
// borrowed view of a chunk pins the current global epoch into its shard's pin
// slot (pin, while still holding the shard mutex), captures the value slice,
// releases the lock, streams or copies the bytes at leisure, and unpins. A
// freed chunk is never pushed straight onto a freelist: freeChunk parks it on
// its stripe's quarantine list stamped with the epoch current at retirement,
// and only a reclaim pass that finds every active pin to be newer than the
// stamp recycles it.
//
// Why that is safe: a shard's chunks are only ever retired while holding that
// shard's mutex, and a reader publishes its pin before releasing the same
// mutex. So for any chunk a reader can still see, pin-store happens-before
// the retire, the retire's epoch stamp is >= the pinned epoch (the global
// epoch only grows), and the reclaimer — which seals the quarantine by
// holding the stripe mutex BEFORE scanning the pin slots — must observe
// either the pin (stamp >= pinned epoch => not harvested) or the unpin (the
// reader is done with the view). Sealing first is load-bearing: scanning
// slots before taking the stripe lock could miss a pin published after the
// scan while harvesting a chunk retired before it. A run of reads (Reader)
// pins once, at its first hit, and reads every later key's chunk under that
// key's shard mutex after the pin was published: the same argument holds for
// those chunks with the pin on another stripe, because the reclaimer scans
// every stripe's slot (minPinned).
//
// The epoch advances on the store's maintenance tick (if it runs one), on free
// pressure (an alloc that finds its class's freelist and tail both empty
// advances and harvests every stripe before leasing a page — this is what
// keeps synchronous stores, which have no maintenance tick, recycling), and
// when a stripe's quarantine reaches the freeing class's high-water mark.
//
// Growth and shrink: pages are leased lazily from the process-wide
// pageAllocator when a class has neither a free chunk nor an uncarved one,
// and — unlike stock memcached — can be RETURNED: live tenant resize retires
// pages one at a time through the migration machinery in migrate.go (capture
// the page's free chunks and uncarved remainder, evict its residents through
// the event buffers, let stragglers drain through quarantine, then release
// the whole page), and tenant delete returns everything once quarantine fully
// drains. A chunk is in exactly one of five states, and the conservation
// invariant reads
// used + free + quarantined + migrating + uncarved == pages * chunks-per-page
// (migrating: captured by the in-flight page retirement, counted on its
// record).
//
// Lock order: the package doc (tenant.go) lists it; the arena's locks are its
// last three, arenaStripe.mu > arenaCentral.mu > pageAllocator.mu, below
// valueShard.mu. The arena never calls back into the store, so the order
// cannot invert. Alloc takes the class mutex without a
// stripe mutex, and only the sealed audit ever holds two stripe mutexes (all
// of them, in index order), so the pressure harvest may block on each stripe
// in turn.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cliffhanger/internal/slab"
)

const (
	// quarantineHighWaterBytes and quarantineHighWaterChunks bound how much
	// deferred frees can park on one stripe between maintenance ticks: a free
	// that finds the stripe's quarantine at the smaller of the two, measured
	// in chunks of the class being freed, advances the epoch and reclaims
	// inline.
	quarantineHighWaterBytes  = 64 << 10
	quarantineHighWaterChunks = 128
	// pinCountBits splits a pin slot's packed word: the low bits count the
	// shard's active pinned readers, the high bits carry the epoch the oldest
	// of them pinned. 16 bits allow 65535 concurrent readers per shard.
	pinCountBits = 16
	pinCountMask = (1 << pinCountBits) - 1
	// poisonByte is what the test-only poison mode (poisonReclaim, on in
	// builds tagged arenapoison) writes over every chunk reclaim recycles;
	// there, a free no pin covers is also reclaimed at once, so a read after
	// retire sees the pattern every time.
	poisonByte = 0xdb
)

// pinSlot is one shard's reader-pin word: epoch<<pinCountBits | count,
// padded out to a cache line so concurrent readers on different shards never
// false-share.
type pinSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// arena is one tenant's chunk allocator. Safe for concurrent use.
type arena struct {
	geom    *slab.Geometry
	classes []arenaCentral
	stripes []arenaStripe

	// pa is the process-wide page pool this arena leases pages from (and
	// returns them to); owner is the tenant name the leases are booked under.
	pa    *pageAllocator
	owner string
	// migrating points at the at-most-one in-flight page retirement. It is
	// loaded on the alloc path (nil in steady state) and by the freelist
	// sweep, the quarantine redirect and the stats walk.
	migrating atomic.Pointer[migration]

	// epoch is the global reclamation clock: it only ever advances. A chunk
	// quarantined at epoch E may be recycled once every active pin is > E.
	epoch atomic.Uint64
	// slots holds one pin word per stripe (== per value shard).
	slots []pinSlot
	// deferredFrees counts chunks that ever went through quarantine (the
	// epoch_deferred_frees stat): a monotone measure of how much reclamation
	// the epoch discipline deferred.
	deferredFrees atomic.Int64
}

// arenaCentral is one slab class's page store and freelist.
type arenaCentral struct {
	mu        sync.Mutex
	free      [][]byte // used-and-freed chunks, LIFO, len == cap == chunk size
	tail      []byte   // uncarved remainder of the newest page, whole chunks
	pages     int64    // pages currently leased for this class
	pageBufs  [][]byte // the raw page buffers backing those pages
	chunkSize int64
	perPage   int64
	// quarHighWater is the stripe quarantine length at which a free of this
	// class reclaims inline (see quarantineHighWaterBytes).
	quarHighWater int
	// used counts chunks currently backing resident values: a chunk is used
	// from the moment alloc hands it out until free takes it back. Updated
	// outside the freelist lock, so live reads are approximate; after the
	// store quiesces the conservation invariant holds exactly.
	used atomic.Int64
	// quarantined counts the class's chunks currently parked on stripe
	// quarantine lists awaiting epoch reclamation.
	quarantined atomic.Int64
}

// uncarvedLocked counts the whole chunks left on the newest page's tail. The
// caller must hold cl.mu.
func (cl *arenaCentral) uncarvedLocked() int64 {
	return int64(len(cl.tail)) / cl.chunkSize
}

// quarChunk is one retired chunk awaiting reclamation: the chunk, its class,
// and the global epoch at the moment it was freed. Within one stripe the
// stamps are nondecreasing (pushes are serialized by the stripe mutex and the
// epoch only grows), so the quarantine is harvested from the front.
type quarChunk struct {
	chunk []byte
	class int
	epoch uint64
}

// arenaStripe is one value shard's quarantine list.
type arenaStripe struct {
	mu   sync.Mutex
	quar []quarChunk
}

// newArena builds an arena over geom with one stripe per value shard,
// leasing pages from pa under the given owner name.
func newArena(geom *slab.Geometry, stripes int, pa *pageAllocator, owner string) *arena {
	a := &arena{
		geom:    geom,
		classes: make([]arenaCentral, geom.NumClasses()),
		stripes: make([]arenaStripe, stripes),
		slots:   make([]pinSlot, stripes),
		pa:      pa,
		owner:   owner,
	}
	a.epoch.Store(1)
	for c := range a.classes {
		cl := &a.classes[c]
		cl.chunkSize = geom.ChunkSize(c)
		cl.perPage = geom.ChunksPerPage(c)
		cl.quarHighWater = max(1, min(quarantineHighWaterChunks, int(quarantineHighWaterBytes/cl.chunkSize)))
	}
	return a
}

// classFor maps a charged item size to its arena chunk class. It reports
// false for sizes beyond the largest chunk, which no mode stores.
func (a *arena) classFor(size int64) (int, bool) {
	return a.geom.ClassFor(size)
}

// pin publishes a reader on the given stripe at the current epoch. It MUST be
// called while holding the owning value shard's mutex (that ordering is what
// guarantees the reclaimer sees the pin before any retire of a chunk the
// reader captured), and every pin must be paired with exactly one unpin once
// the reader is done with the borrowed bytes. Nested pins keep the oldest
// epoch, which is the conservative choice.
func (a *arena) pin(stripe int) {
	slot := &a.slots[stripe].v
	for {
		old := slot.Load()
		var next uint64
		if old&pinCountMask == 0 {
			next = a.epoch.Load()<<pinCountBits | 1
		} else {
			next = old + 1
		}
		if slot.CompareAndSwap(old, next) {
			return
		}
	}
}

// unpin retires one reader from the stripe's pin slot. A slot whose count
// reaches zero is inactive regardless of the stale epoch bits it still
// carries.
func (a *arena) unpin(stripe int) {
	a.slots[stripe].v.Add(^uint64(0))
}

// minPinned returns the oldest epoch any active reader holds, or the current
// epoch when no reader is pinned. Chunks stamped strictly below the result
// are unobservable and may be recycled.
func (a *arena) minPinned() uint64 {
	min := a.epoch.Load()
	for i := range a.slots {
		v := a.slots[i].v.Load()
		if v&pinCountMask != 0 {
			if e := v >> pinCountBits; e < min {
				min = e
			}
		}
	}
	return min
}

// advanceEpoch ticks the global reclamation clock, making chunks quarantined
// before the tick eligible as soon as no reader still pins the old epoch.
func (a *arena) advanceEpoch() {
	a.epoch.Add(1)
}

// reclaim harvests every stripe's quarantine. Called after advanceEpoch by
// the store's maintenance tick, by an alloc under free pressure, and by tests
// that force a settle.
func (a *arena) reclaim() {
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		a.reclaimStripeLocked(st)
		st.mu.Unlock()
	}
}

// reclaimStripeLocked recycles the prefix of the stripe's quarantine whose
// stamps every active reader has advanced past, pushing the chunks onto their
// classes' freelists under one cl.mu hold per class. The caller must hold
// st.mu — holding it is the seal that makes the slot scan sound: no new chunk
// can be pushed while we scan, so any pin that could protect a quarantined
// chunk was published before the scan and is observed by it.
func (a *arena) reclaimStripeLocked(st *arenaStripe) {
	if len(st.quar) == 0 {
		return
	}
	min := a.minPinned()
	n := 0
	for n < len(st.quar) && st.quar[n].epoch < min {
		n++
	}
	if n == 0 {
		return
	}
	m := a.migrating.Load()
	for i := 0; i < n; i++ {
		class := st.quar[i].class
		if class < 0 {
			continue // went back with an earlier chunk of its class
		}
		cl := &a.classes[class]
		var moved, captured int64
		cl.mu.Lock()
		for j := i; j < n; j++ {
			q := &st.quar[j]
			if q.class != class {
				continue
			}
			q.class = -1
			moved++
			if poisonReclaim {
				for b := range q.chunk {
					q.chunk[b] = poisonByte
				}
			}
			if m != nil && m.class == class && m.contains(q.chunk) {
				// The chunk belongs to the retiring page: it has now outlived
				// every pinned reader, so it joins the migration instead of the
				// freelist. This is the path that makes page retirement respect
				// zero-copy readers.
				captured++
				continue
			}
			cl.free = append(cl.free, q.chunk)
		}
		cl.mu.Unlock()
		cl.quarantined.Add(-moved)
		if captured > 0 {
			m.got.Add(captured)
			a.maybeFinishMigration(m)
		}
	}
	rest := copy(st.quar, st.quar[n:])
	clear(st.quar[rest:])
	st.quar = st.quar[:rest]
}

// quarantinedChunks totals the chunks currently awaiting reclamation across
// all classes (the epoch_quarantined_chunks stat, and the maintenance tick's
// is-there-anything-to-do probe).
func (a *arena) quarantinedChunks() int64 {
	var n int64
	for c := range a.classes {
		n += a.classes[c].quarantined.Load()
	}
	return n
}

// alloc returns a full-length chunk of the given class: the class's most
// recently freed chunk, else one cut off the uncarved tail of its newest page,
// else — after free pressure has advanced the epoch and harvested every
// stripe's quarantine, which is what keeps synchronous stores, which have no
// maintenance tick, recycling instead of growing — one cut off a freshly
// leased page. While a page retirement is in flight, a chunk belonging to the
// retiring page is captured for the migration instead of handed out — this
// intercept is what guarantees that from the moment a migration is published,
// no new resident can land on the retiring page. The steady-state cost is one
// mutex and one atomic nil load.
func (a *arena) alloc(class int) []byte {
	cl := &a.classes[class]
	cs := cl.chunkSize
	harvested := false
	cl.mu.Lock()
	for {
		var c []byte
		switch n := len(cl.free) - 1; {
		case n >= 0:
			c, cl.free[n] = cl.free[n], nil
			cl.free = cl.free[:n]
		case len(cl.tail) > 0:
			// The three-index slice caps the chunk at its own boundary, so an
			// append through a stale reference can never bleed into a
			// neighbouring chunk.
			c, cl.tail = cl.tail[:cs:cs], cl.tail[cs:]
		case !harvested && a.quarantinedChunks() > 0:
			harvested = true
			cl.mu.Unlock()
			a.advanceEpoch()
			a.reclaim()
			cl.mu.Lock()
			continue
		default:
			page := a.pa.lease(a.owner)
			cl.tail = page[:cl.perPage*cs]
			cl.pages++
			cl.pageBufs = append(cl.pageBufs, page)
			continue
		}
		m := a.migrating.Load()
		if m == nil || m.class != class || !m.contains(c) {
			cl.mu.Unlock()
			cl.used.Add(1)
			return c
		}
		m.got.Add(1)
		cl.mu.Unlock()
		a.maybeFinishMigration(m)
		cl.mu.Lock()
	}
}

// freeChunk retires a chunk of the given class into the stripe's quarantine,
// stamped with the current epoch; a later reclaim pass recycles it once no
// pinned reader can still observe it. The chunk must have been allocated from
// the same class; the capacity check turns any accounting mismatch (a chunk
// freed under the wrong charged size) into a loud failure instead of silent
// pool corruption. The caller must hold the owning value shard's mutex — that
// is the happens-before edge between a reader's pin and this retirement.
func (a *arena) freeChunk(stripe, class int, chunk []byte) {
	cl := &a.classes[class]
	if int64(cap(chunk)) != cl.chunkSize {
		panic(fmt.Sprintf("store: arena chunk of cap %d freed into class %d (chunk size %d)",
			cap(chunk), class, cl.chunkSize))
	}
	chunk = chunk[:cl.chunkSize]
	st := &a.stripes[stripe]
	st.mu.Lock()
	st.quar = append(st.quar, quarChunk{chunk: chunk, class: class, epoch: a.epoch.Load()})
	cl.quarantined.Add(1)
	a.deferredFrees.Add(1)
	if poisonReclaim || len(st.quar) >= cl.quarHighWater {
		a.advanceEpoch()
		a.reclaimStripeLocked(st)
	}
	st.mu.Unlock()
	cl.used.Add(-1)
}

// ArenaClassStats reports one slab class's arena occupancy.
type ArenaClassStats struct {
	// Class is the slab class index; ChunkSize its chunk size in bytes.
	Class     int
	ChunkSize int64
	// Pages is the number of pages leased for the class; PageSize is the
	// page size in bytes.
	Pages    int64
	PageSize int64
	// TotalChunks is Pages times chunks-per-page.
	TotalChunks int64
	// UsedChunks counts chunks backing resident values; FreeChunks counts
	// chunks on the class's freelist (used before and freed);
	// QuarantinedChunks counts retired chunks parked until every reader
	// epoch advances past them; MigratingChunks counts chunks of the class's
	// retiring page already captured by an in-flight page migration;
	// UncarvedChunks counts chunks of the newest page never handed out yet.
	// Under live traffic the split is approximate (a chunk in flight between
	// states is momentarily in none); on a quiesced store
	// Used + Free + Quarantined + Migrating + Uncarved == Total exactly.
	UsedChunks        int64
	FreeChunks        int64
	QuarantinedChunks int64
	MigratingChunks   int64
	UncarvedChunks    int64
}

// ArenaBytes returns the bytes the class's pages occupy.
func (s ArenaClassStats) ArenaBytes() int64 { return s.Pages * s.PageSize }

// ArenaReclaimStats reports a tenant's epoch-reclamation state: the current
// epoch, the chunks currently parked in quarantine, and the monotone count of
// frees ever deferred through it. Served as epoch_current,
// epoch_quarantined_chunks and epoch_deferred_frees by the stats verb.
type ArenaReclaimStats struct {
	Epoch             uint64
	QuarantinedChunks int64
	DeferredFrees     int64
}

// reclaimStats snapshots the arena's epoch-reclamation counters.
func (a *arena) reclaimStats() ArenaReclaimStats {
	return ArenaReclaimStats{
		Epoch:             a.epoch.Load(),
		QuarantinedChunks: a.quarantinedChunks(),
		DeferredFrees:     a.deferredFrees.Load(),
	}
}

// SumArenaStats totals per-class occupancy into the three numbers every
// consumer wants: bytes carved into pages, bytes backing resident chunks,
// and total chunk bytes (the occupancy denominator). The stats verb and the
// periodic daemon log both aggregate through here so they can never
// disagree on what "occupancy" means.
func SumArenaStats(classes []ArenaClassStats) (arenaBytes, usedBytes, totalBytes int64) {
	for _, cl := range classes {
		arenaBytes += cl.ArenaBytes()
		usedBytes += cl.UsedChunks * cl.ChunkSize
		totalBytes += cl.TotalChunks * cl.ChunkSize
	}
	return arenaBytes, usedBytes, totalBytes
}

// stats snapshots every class's occupancy, including classes that hold no
// page yet (Pages == 0). Locks are taken one class at a time and the used and
// quarantined counters move outside them, so under live traffic the split is
// approximate; exact accounting goes through statsSealed.
func (a *arena) stats() []ArenaClassStats {
	out := make([]ArenaClassStats, len(a.classes))
	for c := range a.classes {
		cl := &a.classes[c]
		cl.mu.Lock()
		out[c] = ArenaClassStats{
			Class:             c,
			ChunkSize:         cl.chunkSize,
			Pages:             cl.pages,
			PageSize:          a.geom.PageSize,
			TotalChunks:       cl.pages * cl.perPage,
			UsedChunks:        cl.used.Load(),
			FreeChunks:        int64(len(cl.free)),
			QuarantinedChunks: cl.quarantined.Load(),
			UncarvedChunks:    cl.uncarvedLocked(),
		}
		// The migrating count must come from the same cl.mu section as pages,
		// the freelist and the tail: migration completion (pages--, pointer
		// cleared) and the sweep both mutate under cl.mu, so reading here
		// keeps the per-class snapshot internally consistent.
		if m := a.migrating.Load(); m != nil && m.class == c {
			out[c].MigratingChunks = m.got.Load()
		}
		cl.mu.Unlock()
	}
	return out
}

// statsSealed snapshots occupancy with every stripe mutex held for the whole
// walk: on a store with no traffic the only thing still moving chunks between
// states is the maintenance tick's reclaim, which needs a stripe mutex, so the
// sealed snapshot is internally consistent even while it runs. Used by the
// conservation audit; the live stats verb keeps the cheaper approximate walk.
func (a *arena) statsSealed() []ArenaClassStats {
	for i := range a.stripes {
		a.stripes[i].mu.Lock()
	}
	out := a.stats()
	for i := range a.stripes {
		a.stripes[i].mu.Unlock()
	}
	return out
}

// checkConservation verifies the arena's chunk-conservation invariant on a
// quiesced store: for every class, every chunk of every leased page is
// backing a resident value, sitting on the freelist, parked in quarantine,
// captured by an in-flight page migration, or not carved yet —
// used + free + quarantined + migrating + uncarved == pages * chunks-per-page,
// with no chunk leaked and none double-freed. usedWant gives the
// caller-counted resident chunks per class (from walking the item directory);
// pass nil to skip that cross-check. The sealed snapshot keeps the check sound
// even while the maintenance tick reclaims — or a migration collects —
// concurrently.
func (a *arena) checkConservation(usedWant []int64) error {
	for _, st := range a.statsSealed() {
		if st.UsedChunks+st.FreeChunks+st.QuarantinedChunks+st.MigratingChunks+st.UncarvedChunks != st.TotalChunks {
			return fmt.Errorf("class %d (chunk %d): used %d + free %d + quarantined %d + migrating %d + uncarved %d != total %d (%d pages)",
				st.Class, st.ChunkSize, st.UsedChunks, st.FreeChunks, st.QuarantinedChunks, st.MigratingChunks, st.UncarvedChunks, st.TotalChunks, st.Pages)
		}
		if st.UsedChunks < 0 || st.QuarantinedChunks < 0 || st.MigratingChunks < 0 {
			return fmt.Errorf("class %d: negative occupancy (used %d, quarantined %d, migrating %d)",
				st.Class, st.UsedChunks, st.QuarantinedChunks, st.MigratingChunks)
		}
		if usedWant != nil && st.UsedChunks != usedWant[st.Class] {
			return fmt.Errorf("class %d: arena counts %d used chunks, directory holds %d",
				st.Class, st.UsedChunks, usedWant[st.Class])
		}
	}
	return nil
}
