package store

import (
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/cache"
)

// The bookkeeper moves Cliffhanger's structural accounting — shadow-queue
// updates, hill-climbing credit transfers, cliff-pointer walks and eviction
// decisions — off the request hot path. Request handlers touch only their
// value shard; the structural consequences of each request are described by
// a small event appended to a per-shard buffer (BP-Wrapper style batching),
// and a background goroutine per tenant drains those buffers and replays
// them against the Tenant. The per-request cost on the data plane is a
// striped-lock map operation plus one slice append.
//
// Ordering: a key always hashes to the same shard, and a shard's buffer is
// stolen and applied atomically under that shard's applyMu, so bookkeeping
// for one key is always applied in arrival order. Across keys, the drain
// goroutine's sweep merges all shard buffers back into arrival order using
// per-event sequence stamps, so a settled engine has seen the same global
// admission/eviction sequence a synchronous one would have; only the
// inline-help path under overload applies a single shard's backlog slightly
// ahead of other shards'. An eviction replayed from an old event never
// clobbers a value the client re-set in the meantime: each item record
// remembers whether its own admission event is still pending, and dropVictim
// spares such records (the upcoming re-admission re-establishes their
// structural entry), so a settled engine holds exactly one value per
// structural entry.
//
// Overload behaviour: lookup (GET) events are advisory — they feed hit/miss
// counters and the shadow queues — and are shed once a shard's buffer hits
// its high-water mark. Structural events (SET admissions, DELETEs) are never
// dropped; instead, a producer that finds the buffer past the high-water
// mark applies the backlog inline, so the value table and the eviction
// queues cannot diverge without bound and nobody ever blocks on a channel.

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
// length and the replay only counts it (Tenant.Lookup).
type event struct {
	kind    eventKind
	key     string
	size    int64
	oldSize int64
	seq     uint64
}

const (
	// eventBatchSize is the buffered-event count at which a producer nudges
	// the drain goroutine.
	eventBatchSize = 32
	// shardBufferHighWater is the buffered-event count past which advisory
	// events are shed and producers apply the backlog inline instead of
	// letting it grow.
	shardBufferHighWater = 256
	// sweepInterval bounds the staleness of buffered events on idle or
	// low-rate tenants: the drain goroutine sweeps all shard buffers this
	// often even without notifications.
	sweepInterval = 10 * time.Millisecond
	// reapShardsPerTick is how many value shards the background expiry
	// reaper scans per drain tick; with 64 shards and a 10 ms tick a full
	// pass over the tenant takes ~160 ms.
	reapShardsPerTick = 4
	// reapScanLimit bounds the records examined per shard per reap so a
	// huge shard never stalls the drain goroutine; Go's randomized map
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
// mode a drain goroutine replays buffered events, while in synchronous mode
// callers apply events inline (the deterministic path whose semantics the
// simulator defines).
type bookkeeper struct {
	tenant      *Tenant
	entry       *tenantEntry
	synchronous bool
	// now supplies the expiry clock (unix seconds) for the reaper.
	now func() int64
	// reapCursor is the next shard index the incremental reaper will scan.
	reapCursor int

	// mu guards tenant. The drain goroutine, snapshot readers and inline
	// appliers take it; in synchronous mode every request takes it.
	mu sync.Mutex

	notify chan struct{} // capacity 1; coalesced "buffers are filling" nudge
	stop   chan struct{}
	done   chan struct{}

	closed atomic.Bool

	// seq stamps events with their arrival order across all shards.
	seq atomic.Uint64

	// dropped counts advisory events shed because bookkeeping was
	// saturated.
	dropped atomic.Int64

	// Sweep scratch, owned by whoever holds every shard's applyMu: the
	// buffer stolen from each shard, how far into it the replay has got, and
	// one slot per stamp of the window being ordered. Kept between sweeps so
	// a sweep allocates nothing; stolen and slots are nil outside a sweep so
	// they pin no key.
	stolen [][]event
	cursor []int
	slots  []*event
}

func newBookkeeper(t *Tenant, e *tenantEntry, synchronous bool, now func() int64) *bookkeeper {
	b := &bookkeeper{
		tenant: t, entry: e, synchronous: synchronous, now: now,
		stolen: make([][]event, len(e.shards)),
		cursor: make([]int, len(e.shards)),
		slots:  make([]*event, sweepWindow),
	}
	if !synchronous {
		b.notify = make(chan struct{}, 1)
		b.stop = make(chan struct{})
		b.done = make(chan struct{})
		go b.drainLoop()
	}
	return b
}

// recordAction tells a producer what to do after releasing the shard lock it
// held while buffering an event.
type recordAction uint8

const (
	// actNone: nothing further to do.
	actNone recordAction = iota
	// actNotify: nudge the drain goroutine.
	actNotify
	// actApply: apply the shard's backlog inline before returning — used
	// when the buffer is past its high-water mark, and for every event in
	// synchronous (or closed) mode, where the same buffered path keeps
	// per-key events applying in arrival order without a drain goroutine.
	actApply
)

// bufferLocked stamps ev (writing the assigned sequence back through the
// pointer so callers can tag the shard record they just wrote) and appends
// it to sh's buffer. The caller MUST hold sh.mu and must be the same
// critical section that mutated the shard's items — that is what makes
// per-key event order match per-key value order. The returned action must be
// passed to finish after releasing sh.mu.
//
// Synchronous (and closed-bookkeeper) events go through the very same
// buffer: the producer applies the shard's backlog itself right after
// releasing sh.mu. Buffering even the inline-applied events is what
// serializes same-key events from racing goroutines into arrival order — an
// event applied directly, outside the buffer, could overtake an older
// buffered event for the same key between the shard unlock and the apply.
func (b *bookkeeper) bufferLocked(sh *valueShard, ev *event) recordAction {
	if b.synchronous || b.closed.Load() {
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
		return actApply
	case n == eventBatchSize:
		return actNotify
	}
	return actNone
}

// finish performs the deferred half of bufferLocked. The caller must NOT
// hold any shard lock.
func (b *bookkeeper) finish(sh *valueShard, ev event, act recordAction) {
	switch act {
	case actApply:
		b.applyShard(sh)
	case actNotify:
		select {
		case b.notify <- struct{}{}:
		default:
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
	switch ev.kind {
	case evLookup:
		b.tenant.Lookup(ev.key, ev.size)
	case evTouch:
		b.tenant.Touch(ev.key, ev.size)
	case evAdmit:
		evicted = b.tenant.Admit(ev.key, ev.size)
	case evReAdmit:
		evicted = b.tenant.ReAdmit(ev.key, ev.oldSize, ev.size)
	case evRemove:
		b.tenant.Delete(ev.key, ev.size)
	case evExpire:
		b.tenant.Expire(ev.key, ev.size)
	case evMigrate:
		b.tenant.EvictMigrated(ev.key, ev.size)
	}
	if ev.kind == evAdmit || ev.kind == evReAdmit {
		b.entry.markAdmitted(ev.key, ev.seq)
	}
	for _, v := range evicted {
		b.entry.dropVictim(v.Key)
	}
}

// drainLoop sweeps the shard buffers when nudged by producers and on a
// timer, so low-rate tenants settle within sweepInterval even though their
// buffers never reach a notification boundary.
func (b *bookkeeper) drainLoop() {
	defer close(b.done)
	ticker := time.NewTicker(sweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-b.notify:
			b.sweep()
		case <-ticker.C:
			b.reap()
			b.sweep()
			b.reclaimArena()
			b.reconfigure()
		}
	}
}

// reclaimArena is the background half of epoch-based chunk reclamation: each
// drain tick it advances the global epoch and recycles quarantined chunks
// that every pinned reader has moved past. Skipped entirely while the
// quarantine is empty so an idle tenant's tick stays cheap. Synchronous
// stores have no drain goroutine and rely on the free-pressure reclaim in
// the arena's refill path instead.
func (b *bookkeeper) reclaimArena() {
	a := b.entry.arena
	if a == nil || a.quarantinedChunks() == 0 {
		return
	}
	a.advanceEpoch()
	a.reclaim()
}

// reconfigure advances any pending live-resize work — structural capacity
// steps and page migrations — by one bounded step per drain tick, so a
// tenant_resize executes incrementally off the drain loop and traffic is
// never stalled behind it. The needed check keeps idle ticks at a few atomic
// loads.
func (b *bookkeeper) reconfigure() {
	if b.entry.reconfigureNeeded() {
		b.entry.reconfigureTick()
	}
}

// reap is the incremental background expiry pass: each drain tick it scans
// the next few value shards, drops records whose TTL lapsed (or that a
// delayed flush_all deadline killed), and buffers an expiry event for each
// so the structural removal replays in arrival order with the shard's other
// pending events. Synchronous stores have no drain goroutine and rely on the
// lazy dead check on the read path alone.
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
		var evs []event
		var acts []recordAction
		sh.mu.Lock()
		scanned := 0
		for _, it := range sh.items {
			if it.deadAt(now, flushAt) {
				ev := b.entry.removeLocked(sh, it, evExpire)
				acts = append(acts, b.bufferLocked(sh, &ev))
				evs = append(evs, ev)
			}
			if scanned++; scanned >= reapScanLimit {
				break
			}
		}
		sh.mu.Unlock()
		for i := range evs {
			b.finish(sh, evs[i], acts[i])
		}
	}
}

// sweep steals every shard's buffer and replays the union in arrival order,
// so a settled engine has seen the same admission/eviction sequence a
// synchronous one would have. All applyMu locks are held (in index order)
// until the union is applied, so a concurrent inline applier cannot replay a
// shard's newer events ahead of the stolen older ones — and so sweeps are
// serialized, which is what lets them share the bookkeeper's scratch. Buffers
// are stolen and handed back the way applyShard does it, so a sweep copies no
// event and allocates nothing.
func (b *bookkeeper) sweep() {
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
// window from the lowest stamp not yet replayed. The caller must hold b.mu
// and every applyMu.
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

// flush blocks until every event recorded before the call has been applied:
// buffered events are swept here, and an application already in flight on
// another goroutine completes before the sweep passes its shard (applyMu).
// In synchronous mode each operation applies its own events before
// returning, but the sweep still runs so a concurrent operation caught
// between buffering and applying cannot be missed.
func (b *bookkeeper) flush() {
	b.sweep()
}

// close settles outstanding events and stops the drain goroutine. Events
// recorded after close are applied inline by their callers; close is
// idempotent.
func (b *bookkeeper) close() {
	if b.synchronous || b.closed.Swap(true) {
		return
	}
	close(b.stop)
	<-b.done
	b.sweep()
}
