package store

import (
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/cache"
)

// The bookkeeper is the accounting plane: Cliffhanger's structural
// accounting (shadow-queue updates, hill-climbing credit transfers,
// cliff-pointer walks and eviction decisions) replayed against the Tenant
// under one lock, bk.mu. A request touches only its value shard under the
// shard's lock and describes the structural consequences of what it did as
// small events appended to the shard's buffer; the critical section that
// buffered them ends in release, which applies the shard's buffer under bk.mu
// before the request returns. Stock memcached relinks an item inline under a
// lock the same way.
//
// Ordering: a key always hashes to the same shard, and a shard's buffer is
// only stolen under bk.mu and replayed before it is released, so bookkeeping
// for one key is always applied in arrival order, even when racing
// goroutines buffer it: whoever applies first replays every event buffered on
// the shard before its steal. An eviction replayed from an old event never
// clobbers a value the client re-set in the meantime: a record has no queue
// node while its own admission event is pending, and dropVictim spares such
// records (the upcoming re-admission re-establishes their structural entry),
// so a settled engine holds exactly one value per structural entry.
//
// Most GET hits emit no event at all. A hit on a key whose record was last
// promoted (admitted, or hit with an event) fewer than W of the tenant's
// stamps ago emits nothing: the request counts the hit in its shard and
// buffers nothing. W is the class queue's hit window
// (core.Queue.FrontWindow: its smallest front-segment item count less a tail
// window, 0 while a resize is pending that a hit would apply), published per
// class after every replay (window). Only stamped events place entries, so
// counting the tenant's stamps is conservative. Every request applies its own
// events before it returns, so on one connection each request reads a W
// published after every earlier event was replayed: such a key is still in
// its queue's front segment, where a replayed hit would only have moved it to
// the head, and the rule is decided in request order, so the simulator and a
// wire replay agree. Under concurrency a hit can decide while another
// connection's section is between its unlock and its apply, and the rule is
// then approximate (TestFrontHitsSkipAsync measures it). Either way it is not
// free: a key whose hits are skipped ages as if it had not been hit.

// eventKind identifies a bookkeeping event.
type eventKind uint8

const (
	// evLookup records a GET: hit/miss accounting plus shadow-queue and
	// cliff-pointer updates.
	evLookup eventKind = iota
	// evTouch records a touch: recency promotion accounted separately from
	// GETs (cmd_touch/touch_hits).
	evTouch
	// evAdmit records a write of a record (SET and every other verb that
	// stores one): the key becomes resident and evictions may cascade. Its
	// oldSize is the charge of the record the write replaced, 0 for a fresh
	// key; a re-set whose class changed sheds its stale entry from the old
	// class queue first (Tenant.admit).
	evAdmit
	// evRemove records a DELETE of a resident key.
	evRemove
	// evExpire records the removal of a record whose TTL lapsed (lazy GET
	// check or background reaper).
	evExpire
	// evMigrate records the eviction of a resident whose chunk sits on a
	// retiring page (page-granular migration, migrate.go).
	evMigrate
)

// event is one bookkeeping operation, buffered on its shard until the section
// that buffered it applies it. seq is the tenant's stamp: the clock of the
// hit window, within which a GET hit of its record's last promoted stamp is
// no event (Reader.Get), and the identity markAdmitted checks an admission
// by. oldSize carries the previous charged size of a re-admitted key (0 for a
// fresh one). A lookup or touch event with an empty key is one the directory
// answered with a miss: size is the key length and the replay only counts it
// (Tenant.lookup). node is the record's queue node (item.node), the only way
// to a resident entry; a re-set's admission carries the previous record's.
// An admission's hash routes the key and finds its shadow entry and record,
// so no replay hashes a key (victims carry theirs). An event buffered while
// its record's admission is pending carries no node, and two rules settle it.
// Only concurrent requests meet them: a GET on another connection can land
// between a SET's unlock and its apply.
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
	// tickInterval is the maintenance tick: it paces the reaper, reclaim and
	// live resize.
	tickInterval = 10 * time.Millisecond
	// reapShardsPerTick is how many value shards the background expiry
	// reaper scans per maintenance tick; with 64 shards and a 10 ms tick a
	// full pass over the tenant takes ~160 ms.
	reapShardsPerTick = 4
	// reapScanLimit bounds the records examined per shard per reap so a
	// huge shard never stalls the maintenance tick; Go's randomized map
	// iteration makes successive passes cover different subsets.
	reapScanLimit = 512
)

// bookkeeper owns a tenant's structural state (the Tenant with its eviction
// queues and Cliffhanger manager). All access to the Tenant goes through
// bk.mu, which is what makes stats and snapshots race-free: every request
// that buffered events applies its shard under it before returning, and every
// settled reader applies what a request caught between its unlock and its
// apply still holds (settleLocked).
type bookkeeper struct {
	tenant *Tenant
	entry  *tenantEntry
	// now supplies the expiry clock (unix seconds) for the reaper.
	now func() int64
	// reapCursor is the next shard index the incremental reaper will scan;
	// only the maintenance tick reaps.
	reapCursor int

	// mu guards tenant and applies, and every steal of a shard's buffer is
	// made and replayed under it.
	mu sync.Mutex
	// applies counts applyShard's critical sections (guarded by mu); the
	// tests hold a section to one apply with it.
	applies int64

	// seq stamps events in arrival order across all shards.
	seq atomic.Uint64
	// window is each class queue's hit window as of the last replay
	// (publishLocked): a GET hit whose record was promoted fewer stamps ago
	// than its class's window emits no event. Written under mu, read by
	// requests without it.
	window []atomic.Int64
}

// bufferLocked stamps ev (writing the assigned sequence back through the
// pointer so callers can tag the shard record they just wrote) and appends it
// to sh's buffer. The caller MUST hold sh.mu, must be the same critical
// section that mutated the shard's items — that is what makes per-key event
// order match per-key value order — and must end that section with release.
//
// Buffering the events that release applies at once is what serializes
// same-key events from racing goroutines into arrival order: an event applied
// directly, outside the buffer, could overtake an older buffered event for
// the same key between the shard unlock and the apply.
func (b *bookkeeper) bufferLocked(sh *valueShard, ev *event) {
	ev.seq = b.seq.Add(1)
	sh.pending = append(sh.pending, *ev)
}

// release ends a critical section of sh: it unlocks sh.mu and, if the shard
// holds events, applies them, so a section applies at most once however many
// events it buffered. The caller must hold no other shard lock, nor bk.mu:
// the replay takes them.
func (b *bookkeeper) release(sh *valueShard) {
	buffered := len(sh.pending) > 0
	sh.mu.Unlock()
	if buffered {
		b.applyShard(sh)
	}
}

// applyShard steals and replays one shard's buffer in one critical section
// of bk.mu, so two appliers can never replay one shard's events out of
// order.
func (b *bookkeeper) applyShard(sh *valueShard) {
	b.mu.Lock()
	b.applies++
	b.replayLocked(sh)
	b.publishLocked()
	b.mu.Unlock()
}

// settleLocked applies every shard that still holds events, in shard order,
// and folds every shard's unpromoted hits: what a request caught between its
// unlock and its apply has left. Flush and every settled reader (Stats, the
// snapshots, the audit, the arbiter's observation) run it. The caller must
// hold b.mu.
func (b *bookkeeper) settleLocked() {
	for i := range b.entry.shards {
		b.replayLocked(&b.entry.shards[i])
	}
	b.publishLocked()
}

// replayLocked steals sh's buffer and replays it. Marks and drops are
// interleaved with the replay, so "is this record's admission still
// pending?" — the criterion dropVictim uses to spare values that a later
// re-set wrote — is evaluated in exact replay order. The stolen buffer
// ping-pongs with the shard's spare so steady-state buffering never
// allocates. The caller must hold b.mu.
func (b *bookkeeper) replayLocked(sh *valueShard) {
	batch := sh.steal(b.tenant)
	if batch == nil {
		return
	}
	for i := range batch {
		b.applyEventLocked(&batch[i])
	}
	sh.mu.Lock()
	sh.spare = batch[:0]
	sh.mu.Unlock()
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
// give the batch back as the shard's spare once it has been replayed.
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
// expire, recycle the quarantined chunks every pinned reader has moved past
// (synchronous stores rely on the arena's free-pressure reclaim instead), and
// advance any live resize by one bounded step, so a tenant_resize never
// stalls traffic. An idle tenant's tick is a few atomic loads.
func (b *bookkeeper) tick() {
	b.reap()
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
// events. A store without a maintenance goroutine (Config.SyncBookkeeping)
// relies on the lazy dead check on the read path alone.
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

// settle waits for any apply in progress and then applies what is left, so
// every event recorded before the call has been applied when it returns: an
// applier holding stolen events replays them before it releases bk.mu.
func (b *bookkeeper) settle() {
	b.mu.Lock()
	b.settleLocked()
	b.mu.Unlock()
}
