package store

import (
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/cache"
)

// The bookkeeper batches Cliffhanger's structural accounting — shadow-queue
// updates, hill-climbing credit transfers, cliff-pointer walks and eviction
// decisions — out of the request's critical section. Request handlers touch
// only their value shard; the structural consequences of each request are
// described by a small event appended to a per-shard buffer (BP-Wrapper style
// batching). The request whose event brings its shard's buffer to
// eventBatchSize replays every shard's buffer itself, on the goroutine that
// just touched the keys, unless another goroutine is already sweeping (flat
// combining: whoever holds sweepMu sweeps for everyone). There is no
// bookkeeper goroutine; the store's one maintenance goroutine sweeps what
// low-rate tenants leave below the threshold (Store.maintain).
//
// Ordering: a key always hashes to the same shard, and a shard's buffer is
// stolen and applied atomically under that shard's applyMu, so bookkeeping
// for one key is always applied in arrival order. Across keys, a sweep merges
// all shard buffers back into arrival order using per-event sequence stamps,
// so a settled engine has seen the same global admission/eviction sequence a
// synchronous one would have; only the inline-help path under overload
// applies a single shard's backlog slightly ahead of other shards'. An
// eviction replayed from an old event never clobbers a value the client
// re-set in the meantime: each item record remembers whether its own
// admission event is still pending, and dropVictim spares such records (the
// upcoming re-admission re-establishes their structural entry), so a settled
// engine holds exactly one value per structural entry.
//
// Overload behaviour: lookup (GET) events are advisory — they feed hit/miss
// counters and the shadow queues — and are shed once a shard's buffer hits
// its high-water mark, which a shard only reaches while sweeps in progress
// keep its own producers from sweeping. Structural events (SET admissions,
// DELETEs) are never dropped; instead, a producer that finds the buffer past
// the high-water mark applies the backlog inline, so the value table and the
// eviction queues cannot diverge without bound.

// eventKind identifies a bookkeeping event.
type eventKind uint8

const (
	// evLookup records a GET: hit/miss accounting plus shadow-queue and
	// cliff-pointer updates. Advisory; may be shed under overload.
	evLookup eventKind = iota
	// evTouch records a touch: recency promotion accounted separately from
	// GETs (cmd_touch/touch_hits). Advisory; may be shed under overload.
	evTouch
	// evAdmit records a SET: the key becomes resident and evictions may
	// cascade. Structural; never dropped.
	evAdmit
	// evReAdmit records a SET of a key that already had a record charged at
	// a different size: the stale entry is removed from its old class queue
	// before the new admission (Tenant.ReAdmit). Structural; never dropped.
	evReAdmit
	// evRemove records a DELETE of a resident key. Structural; never
	// dropped.
	evRemove
	// evExpire records the removal of a record whose TTL lapsed (lazy GET
	// check or background reaper). Structural; never dropped.
	evExpire
	// evMigrate records the eviction of a resident whose chunk sits on a
	// retiring page (page-granular migration, migrate.go). Structural; never
	// dropped.
	evMigrate
)

// event is one deferred bookkeeping operation. seq is a per-tenant arrival
// stamp: sweeps merge the shard buffers back into arrival order so eviction
// recency matches what a synchronous engine would have seen. oldSize carries
// the previous charged size of a re-admitted key. A lookup event with an
// empty key is a GET the directory answered with a miss: size is the key
// length and the replay only counts it (Tenant.Lookup). node is what a lookup
// or touch of a resident record carries of it (item.node), so the replay can
// promote the key without probing its queue.
type event struct {
	kind    eventKind
	key     string
	size    int64
	oldSize int64
	seq     uint64
	node    *cache.Node
}

const (
	// eventBatchSize is the buffered-event count at which a producer sweeps
	// every shard's buffer, if no one else is sweeping.
	eventBatchSize = 32
	// shardBufferHighWater is the buffered-event count past which advisory
	// events are shed and producers apply the backlog inline instead of
	// letting it grow. A sweep therefore replays at most len(shards) ×
	// shardBufferHighWater events, plus one per concurrent producer.
	shardBufferHighWater = 256
	// sweepInterval is the maintenance tick: it bounds the staleness of
	// buffered events on idle or low-rate tenants, whose buffers never reach
	// eventBatchSize, and paces the reaper, reclaim and live resize.
	sweepInterval = 10 * time.Millisecond
	// reapShardsPerTick is how many value shards the background expiry
	// reaper scans per maintenance tick; with 64 shards and a 10 ms tick a
	// full pass over the tenant takes ~160 ms.
	reapShardsPerTick = 4
	// reapScanLimit bounds the records examined per shard per reap so a
	// huge shard never stalls the maintenance tick; Go's randomized map
	// iteration makes successive passes cover different subsets.
	reapScanLimit = 512
	// sweepWindow is how many consecutive sequence stamps a sweep orders at
	// a time (see replayInOrder). A notified sweep finds about
	// eventBatchSize events in each of 64 shards, one window's worth; the
	// scratch it sizes is 8 bytes a stamp.
	sweepWindow = 4096
)

// bookkeeper owns a tenant's structural state (the Tenant with its eviction
// queues and Cliffhanger manager). All access to the Tenant goes through
// bk.mu, which is what makes stats and snapshots race-free; in asynchronous
// mode producers sweep the buffered events at the batch boundary, while in
// synchronous mode every caller applies its own shard's events before
// returning (the deterministic path the simulator replays through).
type bookkeeper struct {
	tenant *Tenant
	entry  *tenantEntry
	// now supplies the expiry clock (unix seconds) for the reaper.
	now func() int64
	// reapCursor is the next shard index the incremental reaper will scan;
	// only the maintenance tick reaps.
	reapCursor int

	// mu guards tenant. Sweepers, snapshot readers and inline appliers take
	// it; in synchronous mode every request takes it.
	mu sync.Mutex
	// sweepMu serializes sweeps, which is what lets them share the scratch
	// below. A producer at the batch boundary only tries it: a held lock
	// means someone else is sweeping.
	sweepMu sync.Mutex
	// inline is set in synchronous mode and once the bookkeeper is closed:
	// nothing sweeps later, so every producer applies its own shard's events
	// before returning.
	inline atomic.Bool

	// seq stamps events with their arrival order across all shards.
	seq atomic.Uint64

	// dropped counts advisory events shed because bookkeeping was
	// saturated; sweeps counts sweeps a producer ran at the batch boundary
	// and inlineApplies the shard backlogs a producer applied at the
	// high-water mark. Each moves once per shed event, sweep or apply.
	dropped       atomic.Int64
	sweeps        atomic.Int64
	inlineApplies atomic.Int64

	// Sweep scratch, owned by whoever holds sweepMu: the buffer stolen from
	// each shard, how far into it the replay has got, and one slot per stamp
	// of the window being ordered. Kept between sweeps so a sweep allocates
	// nothing; stolen and slots are nil outside a sweep so they pin no key.
	stolen [][]event
	cursor []int
	slots  []*event
}

// recordAction tells a producer what to do after releasing the shard lock it
// held while buffering an event.
type recordAction uint8

const (
	// actNone: nothing further to do.
	actNone recordAction = iota
	// actSweep: the shard reached the batch boundary; sweep every shard
	// unless someone else is already sweeping.
	actSweep
	// actApply: apply the shard's backlog inline before returning — used
	// when the buffer is past its high-water mark, and for every event of an
	// inline bookkeeper, where the same buffered path keeps per-key events
	// applying in arrival order.
	actApply
)

// bufferLocked stamps ev (writing the assigned sequence back through the
// pointer so callers can tag the shard record they just wrote) and appends
// it to sh's buffer. The caller MUST hold sh.mu and must be the same
// critical section that mutated the shard's items — that is what makes
// per-key event order match per-key value order. The returned action must be
// passed to finish after releasing sh.mu.
//
// An inline bookkeeper's events go through the very same buffer: the
// producer applies the shard's backlog itself right after releasing sh.mu.
// Buffering even the inline-applied events is what serializes same-key
// events from racing goroutines into arrival order — an event applied
// directly, outside the buffer, could overtake an older buffered event for
// the same key between the shard unlock and the apply.
func (b *bookkeeper) bufferLocked(sh *valueShard, ev *event) recordAction {
	if b.inline.Load() {
		ev.seq = b.seq.Add(1)
		sh.pending = append(sh.pending, *ev)
		return actApply
	}
	if (ev.kind == evLookup || ev.kind == evTouch) && len(sh.pending) >= shardBufferHighWater {
		b.dropped.Add(1)
		return actNone
	}
	ev.seq = b.seq.Add(1)
	sh.pending = append(sh.pending, *ev)
	switch n := len(sh.pending); {
	case n >= shardBufferHighWater:
		// Structural backlog: help out inline rather than queue further.
		b.inlineApplies.Add(1)
		return actApply
	case n >= eventBatchSize:
		return actSweep
	}
	return actNone
}

// finish performs the deferred half of bufferLocked. The caller must NOT
// hold any shard lock, applyMu, bk.mu or sweepMu: the replay takes them all.
func (b *bookkeeper) finish(sh *valueShard, act recordAction) {
	switch act {
	case actApply:
		b.applyShard(sh)
	case actSweep:
		if b.sweepMu.TryLock() {
			b.sweeps.Add(1)
			b.sweepLocked()
			b.sweepMu.Unlock()
		}
	}
}

// applyShard atomically steals and replays one shard's buffer. applyMu makes
// steal+apply a single critical section per shard, so two appliers can never
// replay one shard's events out of order. The stolen buffer ping-pongs with
// the shard's spare so steady-state buffering never allocates.
func (b *bookkeeper) applyShard(sh *valueShard) {
	sh.applyMu.Lock()
	batch := sh.steal()
	b.applyEvents(batch)
	sh.handBack(batch)
	sh.applyMu.Unlock()
}

// steal takes the shard's buffered events, leaving its spare buffer to
// collect new ones, and returns nil if there are none. The caller must hold
// sh.applyMu and pass the batch to handBack once it has been replayed.
func (sh *valueShard) steal() []event {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.pending) == 0 {
		return nil
	}
	batch := sh.pending
	sh.pending, sh.spare = sh.spare[:0], nil
	return batch
}

// handBack makes a replayed batch's buffer the shard's next spare.
func (sh *valueShard) handBack(batch []event) {
	if batch == nil {
		return
	}
	sh.mu.Lock()
	sh.spare = batch[:0]
	sh.mu.Unlock()
}

// applyEvents replays events against the tenant, marking each admission as
// applied on its shard record and dropping the values of any keys the tenant
// evicted. Marks and drops are interleaved with the replay (all of it
// serialized by bk.mu), so "is this record's admission still pending?" — the
// criterion dropVictim uses to spare values that a later re-set wrote — is
// evaluated in exact replay order. Shard locks are only ever taken inside
// bk.mu, never the other way around, so the lock order is always bk.mu
// before shard.mu.
func (b *bookkeeper) applyEvents(batch []event) {
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	for i := range batch {
		b.applyEventLocked(&batch[i])
	}
	b.mu.Unlock()
}

// applyEventLocked replays one event against the tenant. The caller must
// hold b.mu.
func (b *bookkeeper) applyEventLocked(ev *event) {
	var evicted []cache.Victim
	var node *cache.Node
	switch ev.kind {
	case evLookup:
		_, evicted = b.tenant.Lookup(ev.key, ev.node, ev.size)
	case evTouch:
		_, evicted = b.tenant.Touch(ev.key, ev.node, ev.size)
	case evAdmit:
		evicted, node = b.tenant.admit(ev.key, ev.size)
	case evReAdmit:
		evicted, node = b.tenant.ReAdmit(ev.key, ev.oldSize, ev.size)
	case evRemove:
		b.tenant.Delete(ev.key, ev.size)
	case evExpire:
		b.tenant.Expire(ev.key, ev.size)
	case evMigrate:
		b.tenant.EvictMigrated(ev.key, ev.size)
	}
	if ev.kind == evAdmit || ev.kind == evReAdmit {
		b.entry.markAdmitted(ev.key, ev.seq, node)
	}
	for _, v := range evicted {
		b.entry.dropVictim(v.Key)
	}
}

// tick is one tenant's share of the store's maintenance pass (Store.maintain):
// expire, sweep what stayed below the batch boundary, so low-rate tenants
// settle within sweepInterval, recycle the quarantined chunks every pinned
// reader has moved past (synchronous stores rely on the arena's free-pressure
// reclaim instead), and advance any live resize by one bounded step, so a
// tenant_resize never stalls traffic. An idle tenant's tick is a few atomic
// loads.
func (b *bookkeeper) tick() {
	b.reap()
	b.sweep()
	if a := b.entry.arena; a.quarantinedChunks() > 0 {
		a.advanceEpoch()
		a.reclaim()
	}
	if b.entry.reconfigureNeeded() {
		b.entry.reconfigureTick()
	}
}

// reap is the incremental background expiry pass: each maintenance tick it
// scans the next few value shards, drops records whose TTL lapsed (or that a
// delayed flush_all deadline killed), and buffers an expiry event for each
// so the structural removal replays in arrival order with the shard's other
// pending events. Synchronous stores have no maintenance goroutine and rely
// on the lazy dead check on the read path alone.
//
// A tenant that never stored a TTL and has no delayed flush armed has
// nothing that can die, so its tick stops here without taking a shard lock.
func (b *bookkeeper) reap() {
	flushAt := b.entry.flushAt.Load()
	if flushAt == 0 && !b.entry.everTTL.Load() {
		return
	}
	now := b.now()
	shards := b.entry.shards
	for n := 0; n < reapShardsPerTick && n < len(shards); n++ {
		sh := &shards[b.reapCursor]
		b.reapCursor = (b.reapCursor + 1) % len(shards)
		var acts []recordAction
		sh.mu.Lock()
		scanned := 0
		for _, it := range sh.items {
			if it.deadAt(now, flushAt) {
				ev := b.entry.removeLocked(sh, it, evExpire)
				acts = append(acts, b.bufferLocked(sh, &ev))
			}
			if scanned++; scanned >= reapScanLimit {
				break
			}
		}
		sh.mu.Unlock()
		for _, act := range acts {
			b.finish(sh, act)
		}
	}
}

// sweep waits for any sweep in progress and then sweeps, so every event
// recorded before the call has been applied when it returns: an application
// already in flight on another goroutine completes before the sweep passes
// its shard (applyMu). It is how Flush and the snapshot APIs settle the
// engine, in synchronous mode too, where a concurrent operation may be caught
// between buffering and applying.
func (b *bookkeeper) sweep() {
	b.sweepMu.Lock()
	b.sweepLocked()
	b.sweepMu.Unlock()
}

// sweepLocked steals every shard's buffer and replays the union in arrival
// order, so a settled engine has seen the same admission/eviction sequence a
// synchronous one would have. All applyMu locks are held (in index order)
// until the union is applied, so a concurrent inline applier cannot replay a
// shard's newer events ahead of the stolen older ones. Buffers are stolen and
// handed back the way applyShard does it, so a sweep copies no event and
// allocates nothing. The caller must hold sweepMu.
func (b *bookkeeper) sweepLocked() {
	shards := b.entry.shards
	n := 0
	for i := range shards {
		shards[i].applyMu.Lock()
		b.stolen[i] = shards[i].steal()
		n += len(b.stolen[i])
	}
	if n > 0 {
		b.mu.Lock()
		b.replayInOrder(n)
		b.mu.Unlock()
	}
	for i := range shards {
		shards[i].handBack(b.stolen[i])
		b.stolen[i] = nil
		shards[i].applyMu.Unlock()
	}
}

// replayInOrder replays the n stolen events in ascending stamp order without
// comparing any two of them. Each stolen buffer is already ascending, and
// stamps are handed out one by one, so the union is a range of stamps with
// few holes (events an inline applier took, or that arrived on a shard
// already stolen): the events of sweepWindow consecutive stamps are scattered
// into slots by stamp and the slots replayed left to right, window after
// window from the lowest stamp not yet replayed. The caller must hold
// sweepMu, b.mu and every applyMu.
func (b *bookkeeper) replayInOrder(n int) {
	clear(b.cursor)
	for n > 0 {
		lo := ^uint64(0)
		for i, batch := range b.stolen {
			if c := b.cursor[i]; c < len(batch) && batch[c].seq < lo {
				lo = batch[c].seq
			}
		}
		top := uint64(0)
		for i, batch := range b.stolen {
			c := b.cursor[i]
			for ; c < len(batch) && batch[c].seq-lo < sweepWindow; c++ {
				off := batch[c].seq - lo
				b.slots[off] = &batch[c]
				top = max(top, off)
			}
			b.cursor[i] = c
		}
		for i, ev := range b.slots[:top+1] {
			if ev != nil {
				b.applyEventLocked(ev)
				b.slots[i] = nil
				n--
			}
		}
	}
}

// close settles outstanding events. Nothing sweeps a closed bookkeeper
// later, so events recorded after close are applied inline by their callers.
func (b *bookkeeper) close() {
	b.inline.Store(true)
	b.sweep()
}
