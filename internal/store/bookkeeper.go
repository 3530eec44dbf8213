package store

import (
	"sort"
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
// the previous charged size of a re-admitted key. keyBuf, when non-nil,
// records that key is a transient view into a pooled buffer (a byte-keyed
// GET-miss event): the replayer must not let the tenant retain it and must
// return the buffer to its home shard once the event is replayed or shed.
type event struct {
	kind    eventKind
	key     string
	size    int64
	oldSize int64
	seq     uint64
	keyBuf  *keyBuf
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
}

func newBookkeeper(t *Tenant, e *tenantEntry, synchronous bool, now func() int64) *bookkeeper {
	b := &bookkeeper{tenant: t, entry: e, synchronous: synchronous, now: now}
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
		if ev.keyBuf != nil {
			// The shed event is the only reference to the pooled key buffer;
			// return it here (sh.mu is held) so overload cannot leak buffers.
			sh.putKeyLocked(ev.keyBuf)
			ev.keyBuf = nil
			ev.key = ""
		}
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
	sh.mu.Lock()
	batch := sh.pending
	sh.pending = sh.spare[:0]
	sh.spare = nil
	sh.mu.Unlock()
	b.applyEvents(batch)
	sh.mu.Lock()
	sh.spare = batch[:0]
	sh.mu.Unlock()
	sh.applyMu.Unlock()
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
	for _, ev := range batch {
		b.applyEventLocked(ev)
	}
	b.mu.Unlock()
}

// applyEventLocked replays one event against the tenant. The caller must
// hold b.mu.
func (b *bookkeeper) applyEventLocked(ev event) {
	var evicted []cache.Victim
	switch ev.kind {
	case evLookup:
		if kb := ev.keyBuf; kb != nil {
			// Pooled-key miss event: the tenant must not retain the transient
			// key string (LookupTransient clones defensively in the
			// can't-happen resident case), and the buffer goes back to its
			// home shard's pool for the next miss.
			b.tenant.LookupTransient(ev.key, ev.size)
			kb.home.mu.Lock()
			kb.home.putKeyLocked(kb)
			kb.home.mu.Unlock()
		} else {
			b.tenant.Lookup(ev.key, ev.size)
		}
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
func (b *bookkeeper) reap() {
	now := b.now()
	flushAt := b.entry.flushAt.Load()
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
// until the merged batch is applied, so a concurrent inline applier cannot
// replay a shard's newer events ahead of the stolen older ones.
func (b *bookkeeper) sweep() {
	shards := b.entry.shards
	var all []event
	for i := range shards {
		shards[i].applyMu.Lock()
		shards[i].mu.Lock()
		all = append(all, shards[i].pending...)
		// The events were copied into the merged batch, so the buffer can be
		// truncated in place (keeping its capacity for reuse).
		shards[i].pending = shards[i].pending[:0]
		shards[i].mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	b.applyEvents(all)
	for i := range shards {
		shards[i].applyMu.Unlock()
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
