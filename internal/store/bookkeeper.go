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
// just touched the keys, unless another goroutine is already applying (flat
// combining: whoever holds bk.mu sweeps for everyone). There is no
// bookkeeper goroutine; the store's one maintenance goroutine sweeps what
// low-rate tenants leave below the threshold (Store.maintain).
//
// Ordering: a key always hashes to the same shard, and a shard's buffer is
// only stolen under bk.mu, the accounting plane's one lock, and replayed
// before it is released, so bookkeeping for one key is always applied in
// arrival order. Across keys, a sweep merges all shard buffers back into
// arrival order using per-event sequence stamps, so a settled engine has seen
// the same global admission/eviction sequence a synchronous one would have;
// only the inline-help path under overload applies a single shard's backlog
// slightly ahead of other shards'. An eviction replayed from an old event
// never clobbers a value the client re-set in the meantime: a record has no
// queue node while its own admission event is pending, and dropVictim spares
// such records (the upcoming re-admission re-establishes their structural
// entry), so a settled engine holds exactly one value per structural entry.
//
// Most GET hits emit no event at all. A hit on a key whose record was last
// promoted (admitted, or hit with an event) fewer than W of the tenant's
// stamps ago emits nothing: the request counts the hit in its shard and
// buffers nothing. W is the class queue's hit window
// (core.Queue.FrontWindow: its smallest front-segment item count less a tail
// window, 0 while a resize is pending that a hit would apply), published per
// class after every replay (window). Only stamped events place entries, so
// counting the tenant's stamps is conservative. With SyncBookkeeping every
// event is replayed before the next request reads a freshly published W, so
// such a key is still in its queue's front segment, where a replayed hit
// would only have moved it to the head; the rule is decided in request
// order, and the simulator and a wire replay still agree. An asynchronous
// store decides against the W its last replay published while events stamped
// since may still be buffered: a shrink that a buffered miss applies, an
// admission that drains several smaller entries, or a high-water apply that
// replays one shard ahead of lower stamps in the others can push the key out
// of its front segment first, and the skipped hit then loses its promotion
// and the tail-window hit cliff scaling would have counted. There the rule is
// approximate, as shed GET events are (TestFrontHitsSkipAsync measures it).
// Either way it is not free: a key whose hits are skipped ages as if it had
// not been hit.
//
// Overload behaviour: lookup (GET) events are advisory — they feed hit/miss
// counters and the shadow queues — and are shed once a shard's buffer hits
// its high-water mark, which a shard only reaches while sweeps in progress
// keep its own producers from sweeping. A shed hit, like one within the
// window, leaves its record's promotion stamp where it was. Structural events
// (SET admissions, DELETEs) are never dropped; instead, a producer that finds
// the buffer past the high-water mark applies the backlog inline, so the value
// table and the eviction queues cannot diverge without bound. A critical
// section of a shard settles once, at its end (release), however many events
// it buffered: a flush_all applies each shard once and does not read as
// overload.

// eventKind identifies a bookkeeping event.
type eventKind uint8

const (
	// evLookup records a GET: hit/miss accounting plus shadow-queue and
	// cliff-pointer updates. Advisory; may be shed under overload.
	evLookup eventKind = iota
	// evTouch records a touch: recency promotion accounted separately from
	// GETs (cmd_touch/touch_hits). Advisory; may be shed under overload.
	evTouch
	// evAdmit records a write of a record (SET and every other verb that
	// stores one): the key becomes resident and evictions may cascade. Its
	// oldSize is the charge of the record the write replaced, 0 for a fresh
	// key; a re-set whose class changed sheds its stale entry from the old
	// class queue first (Tenant.admit). Structural; never dropped.
	evAdmit
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
// recency matches what a synchronous engine would have seen, and a GET hit
// within its class's window of its record's last promoted stamp is no event
// (Reader.Get). oldSize carries the previous charged size of a re-admitted key
// (0 for a fresh one). A lookup or touch event with an empty key is one the
// directory answered with a miss: size is the key length and the replay only
// counts it (Tenant.lookup). node is the record's queue node (item.node), the
// only way to a resident entry; a re-set's admission carries the previous
// record's.
// An admission's hash routes the key and finds its shadow entry and record,
// so no replay hashes a key (victims carry theirs). An event buffered while
// its record's admission is pending carries no node, and two rules settle
// it (a synchronous store never meets them):
//
//  1. An admission whose record is gone, or was rewritten, by the time it
//     replays is unlinked as soon as it is placed. The removal or
//     re-admission that superseded it finds nothing of it and counts as it
//     would have (a removal with no node counts as one that removed).
//  2. A GET or touch hit with no node counts its hit and promotes nothing:
//     its admission has just placed the key at the head of its queue.
type event struct {
	kind    eventKind
	key     string
	size    int64
	oldSize int64
	seq     uint64
	hash    uint64
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

	// mu guards tenant and the sweep scratch below, and every steal of a
	// shard's buffer is made and replayed under it. Sweepers, snapshot
	// readers and inline appliers take it; in synchronous mode every request
	// takes it. A producer at the batch boundary only tries it: a held lock
	// means someone else is applying.
	mu sync.Mutex
	// inline is set in synchronous mode and once the bookkeeper is closed:
	// nothing sweeps later, so every producer applies its own shard's events
	// before returning.
	inline atomic.Bool

	// seq stamps events with their arrival order across all shards.
	seq atomic.Uint64
	// window is each class queue's hit window as of the last replay
	// (publishLocked): a GET hit whose record was promoted fewer stamps ago
	// than its class's window emits no event. Written under mu, read by
	// requests without it.
	window []atomic.Int64

	// dropped counts advisory events shed because bookkeeping was
	// saturated; sweeps counts sweeps a producer ran at the batch boundary
	// and inlineApplies the shard backlogs a producer applied at the
	// high-water mark: once per shed event, or per settle release took.
	dropped       atomic.Int64
	sweeps        atomic.Int64
	inlineApplies atomic.Int64

	// Sweep scratch, owned by whoever holds mu: the buffer stolen from
	// each shard, how far into it the replay has got, and one slot per stamp
	// of the window being ordered. Kept between sweeps so a sweep allocates
	// nothing; stolen and slots are nil outside a sweep so they pin no key.
	stolen [][]event
	cursor []int
	slots  []*event
}

// recordAction is what a shard's critical section owes the accounting plane
// (valueShard.act), the constants in ascending strength: release takes the
// strongest its events asked for, once, since one apply replays all of them
// and one sweep replays every shard.
type recordAction uint8

const (
	// actNone: nothing further to do.
	actNone recordAction = iota
	// actSweep: the shard reached the batch boundary; sweep every shard
	// unless someone else is already sweeping.
	actSweep
	// actApply: apply the shard's backlog inline — used when the buffer is
	// past its high-water mark, and for every event of an inline
	// bookkeeper, where the same buffered path keeps per-key events applying
	// in arrival order.
	actApply
)

// bufferLocked stamps ev (writing the assigned sequence back through the
// pointer so callers can tag the shard record they just wrote), appends it to
// sh's buffer and raises the shard's pending action. The caller MUST hold
// sh.mu, must be the same critical section that mutated the shard's items —
// that is what makes per-key event order match per-key value order — and
// must end that section with release.
//
// An inline bookkeeper's events go through the very same buffer: release
// applies the shard's backlog right after unlocking. Buffering even the
// inline-applied events is what serializes same-key events from racing
// goroutines into arrival order — an event applied directly, outside the
// buffer, could overtake an older buffered event for the same key between
// the shard unlock and the apply.
func (b *bookkeeper) bufferLocked(sh *valueShard, ev *event) {
	inline := b.inline.Load()
	if !inline && (ev.kind == evLookup || ev.kind == evTouch) && len(sh.pending) >= shardBufferHighWater {
		b.dropped.Add(1)
		return
	}
	ev.seq = b.seq.Add(1)
	sh.pending = append(sh.pending, *ev)
	switch n := len(sh.pending); {
	case inline || n >= shardBufferHighWater:
		// Structural backlog: help out inline rather than queue further.
		sh.act = actApply
	case n >= eventBatchSize:
		sh.act = max(sh.act, actSweep)
	}
}

// release ends a critical section of sh: it unlocks sh.mu and takes, and
// counts, the action the section's events raised. The caller must hold no
// other shard lock, nor bk.mu: the replay takes them.
func (b *bookkeeper) release(sh *valueShard) {
	act := sh.act
	sh.act = actNone
	sh.mu.Unlock()
	switch act {
	case actApply:
		if !b.inline.Load() {
			b.inlineApplies.Add(1)
		}
		b.applyShard(sh)
	case actSweep:
		if b.mu.TryLock() {
			b.sweeps.Add(1)
			b.sweepLocked()
			b.mu.Unlock()
		}
	}
}

// applyShard steals and replays one shard's buffer in one critical section
// of bk.mu, so two appliers can never replay one shard's events out of
// order. Marks and drops are interleaved with the replay, so "is this
// record's admission still pending?" — the criterion dropVictim uses to
// spare values that a later re-set wrote — is evaluated in exact replay
// order. The stolen buffer ping-pongs with the shard's spare so steady-state
// buffering never allocates.
func (b *bookkeeper) applyShard(sh *valueShard) {
	b.mu.Lock()
	batch := sh.steal(b.tenant)
	for i := range batch {
		b.applyEventLocked(&batch[i])
	}
	sh.handBack(batch)
	b.publishLocked()
	b.mu.Unlock()
}

// hitWindowOff makes publishLocked publish 0 for every class, so that every
// GET hit emits its event as it did before the window rule. Tests set it.
var hitWindowOff atomic.Bool

// publishLocked publishes every class queue's hit window (window), its
// FrontWindow. Only a changed window is stored, so a steady run of hits
// writes nothing that the requests read. The caller must hold b.mu, having
// replayed every event that could have moved a queue.
func (b *bookkeeper) publishLocked() {
	off := hitWindowOff.Load()
	for c, q := range b.tenant.queues {
		w := int64(0)
		if !off {
			w = int64(q.FrontWindow())
		}
		if b.window[c].Load() != w {
			b.window[c].Store(w)
		}
	}
}

// steal folds the hits the shard served within their window into t's counters
// and takes the shard's buffered events, leaving its spare buffer to collect
// new ones; it returns nil if there are none. The caller must hold bk.mu and
// pass the batch to handBack once it has been replayed.
func (sh *valueShard) steal(t *Tenant) []event {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.unpromotedSum > 0 {
		t.countUnpromoted(sh.unpromoted)
		sh.unpromotedSum = 0
	}
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

// applyEventLocked replays one event against the tenant, marking an
// admission as applied on its shard record and dropping the values of any
// keys the tenant evicted. The caller must hold b.mu; the shard locks it
// takes come after it in the lock order.
func (b *bookkeeper) applyEventLocked(ev *event) {
	var evicted []cache.Victim
	switch ev.kind {
	case evLookup, evTouch:
		_, evicted = b.tenant.lookup(ev.kind, ev.key, ev.node, ev.size)
	case evAdmit:
		var node *cache.Node
		evicted, node = b.tenant.admit(ev.key, ev.hash, ev.node, ev.oldSize, ev.size)
		if !b.entry.markAdmitted(ev.key, ev.hash, ev.seq, node) {
			b.tenant.remove(evAdmit, ev.key, node, ev.size) // rule 1 of event
		}
	default:
		b.tenant.remove(ev.kind, ev.key, ev.node, ev.size)
	}
	for _, v := range evicted {
		b.entry.dropVictim(v.Key, v.Hash)
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
	dead := func(it *item) bool { return it.deadAt(now, flushAt) }
	shards := b.entry.shards
	for n := 0; n < reapShardsPerTick && n < len(shards); n++ {
		b.entry.removeWhere(&shards[b.reapCursor], evExpire, reapScanLimit, dead)
		b.reapCursor = (b.reapCursor + 1) % len(shards)
	}
}

// sweep waits for any application in progress and then sweeps, so every
// event recorded before the call has been applied when it returns: an
// applier holding stolen events replays them before it releases bk.mu. It is
// how Flush and the maintenance tick settle the engine, in synchronous mode
// too, where a concurrent operation may be caught between buffering and
// applying.
func (b *bookkeeper) sweep() {
	b.mu.Lock()
	b.sweepLocked()
	b.mu.Unlock()
}

// sweepLocked steals every shard's buffer and replays the union in arrival
// order, so a settled engine has seen the same admission/eviction sequence a
// synchronous one would have. No inline applier can steal a shard's newer
// events while the union is replayed, since it needs bk.mu too. Buffers are
// stolen and handed back the way applyShard does it, so a sweep copies no
// event and allocates nothing. The caller must hold b.mu.
func (b *bookkeeper) sweepLocked() {
	shards := b.entry.shards
	n := 0
	for i := range shards {
		b.stolen[i] = shards[i].steal(b.tenant)
		n += len(b.stolen[i])
	}
	if n > 0 {
		b.replayInOrder(n)
	}
	for i := range shards {
		shards[i].handBack(b.stolen[i])
		b.stolen[i] = nil
	}
	b.publishLocked()
}

// replayInOrder replays the n stolen events in ascending stamp order without
// comparing any two of them. Each stolen buffer is already ascending, and
// stamps are handed out one by one, so the union is a range of stamps with
// few holes (events an inline applier took, or that arrived on a shard
// already stolen): the events of sweepWindow consecutive stamps are scattered
// into slots by stamp and the slots replayed left to right, window after
// window from the lowest stamp not yet replayed. The caller must hold b.mu.
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
