package core

import (
	"cliffhanger/internal/cache"
)

// segment identifies where in a partition's chain a key was found.
type segment int

const (
	segMiss segment = iota
	segFront
	segTail  // physical hit in the tail window ("left of pointer")
	segCliff // hit in the cliff-scaling shadow queue ("right of pointer")
	segHill  // hit in the hill-climbing shadow queue
)

// partition is one half of a cliff-scaled queue (Figure 5): a physical LRU
// split into a front segment and a tail window, followed by a short
// cliff-scaling shadow queue and a share of the hill-climbing shadow queue.
// Keys cascade down the chain as they age: front -> tail window -> cliff
// shadow -> hill shadow -> forgotten. Crossing the tail-window boundary is a
// physical eviction (the caller must drop the value).
type partition struct {
	front *cache.LRU
	tail  *cache.LRU
	cliff *cache.Shadow
	hill  *cache.Shadow

	physCapacity int64 // target capacity of front+tail, in cost units
	tailCapacity int64 // capacity reserved for the tail window
}

func newPartition(physCapacity, tailCapacity, cliffCapacity, hillCapacity int64) *partition {
	if physCapacity < 0 {
		physCapacity = 0
	}
	frontCap := physCapacity - tailCapacity
	if frontCap < 0 {
		frontCap = 0
	}
	tailCap := physCapacity - frontCap
	return &partition{
		front:        cache.NewLRU(frontCap),
		tail:         cache.NewLRU(tailCap),
		cliff:        cache.NewShadow(cliffCapacity),
		hill:         cache.NewShadow(hillCapacity),
		physCapacity: physCapacity,
		tailCapacity: tailCapacity,
	}
}

// lookup reports where key currently resides without modifying the chain.
// For segFront it also returns the front entry's handle, so promote need not
// probe the front LRU a second time.
func (p *partition) lookup(key string) (segment, cache.Handle) {
	if h, ok := p.front.Probe(key); ok {
		return segFront, h
	}
	switch {
	case p.tail.Contains(key):
		return segTail, cache.Handle{}
	case p.cliff.Contains(key):
		return segCliff, cache.Handle{}
	case p.hill.Contains(key):
		return segHill, cache.Handle{}
	default:
		return segMiss, cache.Handle{}
	}
}

// remove deletes key from whichever segment holds it.
func (p *partition) remove(key string) bool {
	return p.front.Remove(key) || p.tail.Remove(key) || p.cliff.Remove(key) || p.hill.Remove(key)
}

// promote handles a reference to key that was found in segment seg: the key
// is moved to the front of the physical chain (for segFront a plain LRU
// promotion of the entry h, which lookup returned, suffices) and overflow
// cascades down the chain. It returns the keys physically evicted by the
// cascade.
func (p *partition) promote(key string, cost int64, seg segment, h cache.Handle) []cache.Victim {
	switch seg {
	case segFront:
		p.front.Promote(h)
		return nil
	case segTail:
		p.tail.Remove(key)
	case segCliff:
		p.cliff.Remove(key)
	case segHill:
		p.hill.Remove(key)
	}
	return p.insert(key, cost)
}

// insert places key at the head of the physical chain and cascades overflow
// down the segments, returning physical evictions.
func (p *partition) insert(key string, cost int64) []cache.Victim {
	var physical []cache.Victim
	// If the front segment cannot hold this entry (tiny partitions, or cost
	// exceeding the front capacity), insert directly into the tail window —
	// checked up front so the steady-state path never pays front.Add's
	// rejection-victim allocation.
	if p.front.Capacity() <= 0 || cost > p.front.Capacity() {
		overflow := p.tail.Add(key, cost)
		physical = append(physical, p.cascadeFromTail(overflow)...)
		return physical
	}
	// Normal cascade: front overflow enters the tail window.
	for _, v := range p.front.Add(key, cost) {
		ov := p.tail.Add(v.Key, v.Cost)
		physical = append(physical, p.cascadeFromTail(ov)...)
	}
	return physical
}

// cascadeFromTail handles entries falling out of the tail window: they are
// physically evicted (reported to the caller) and their keys are remembered
// by the cliff shadow, whose own overflow flows into the hill shadow.
func (p *partition) cascadeFromTail(victims []cache.Victim) []cache.Victim {
	for _, v := range victims {
		for _, cv := range p.cliff.Push(v.Key, v.Cost) {
			p.hill.Push(cv.Key, cv.Cost)
		}
	}
	return victims
}

// setPhysCapacity retargets the partition's physical capacity, keeping the
// tail window at its configured size, and cascades any overflow. It returns
// physical evictions.
func (p *partition) setPhysCapacity(physCapacity int64) []cache.Victim {
	if physCapacity < 0 {
		physCapacity = 0
	}
	p.physCapacity = physCapacity
	frontCap := physCapacity - p.tailCapacity
	if frontCap < 0 {
		frontCap = 0
	}
	tailCap := physCapacity - frontCap
	var physical []cache.Victim
	// Shrink the tail first so front overflow has room to cascade sanely.
	for _, v := range p.tail.Resize(tailCap) {
		physical = append(physical, v)
		for _, cv := range p.cliff.Push(v.Key, v.Cost) {
			p.hill.Push(cv.Key, cv.Cost)
		}
	}
	for _, v := range p.front.Resize(frontCap) {
		ov := p.tail.Add(v.Key, v.Cost)
		physical = append(physical, p.cascadeFromTail(ov)...)
	}
	return physical
}

// setHillCapacity retargets the partition's share of the hill-climbing
// shadow queue.
func (p *partition) setHillCapacity(capacity int64) {
	p.hill.Resize(capacity)
}

// used reports the physically resident cost.
func (p *partition) used() int64 { return p.front.Used() + p.tail.Used() }

// popOldest removes and returns the coldest resident entry without
// remembering it in the shadow queues: the caller is moving it, not evicting
// it.
func (p *partition) popOldest() (cache.Victim, bool) {
	if v, ok := p.tail.RemoveOldest(); ok {
		return v, true
	}
	return p.front.RemoveOldest()
}

// hasRoom reports whether cost more fits under the physical capacity.
func (p *partition) hasRoom(cost int64) bool { return p.used()+cost <= p.physCapacity }

// items reports the number of physically resident entries.
func (p *partition) items() int { return p.front.Len() + p.tail.Len() }

// AccessOutcome describes the result of one access to a managed queue.
type AccessOutcome struct {
	// Hit is true when the key was physically resident (a cache hit).
	Hit bool
	// ShadowHit is true when the key was found in the hill-climbing shadow
	// queue (a miss that signals the queue would benefit from more memory).
	ShadowHit bool
	// CliffShadowHit is true when the key was found in a cliff-scaling
	// shadow queue ("right of pointer").
	CliffShadowHit bool
	// TailWindowHit is true when the key hit in the physical tail window
	// ("left of pointer"). TailWindowHit implies Hit.
	TailWindowHit bool
	// Evicted lists keys physically evicted as a consequence of this
	// access; the caller must drop their values.
	Evicted []cache.Victim
}

// QueueStats accumulates per-queue counters.
type QueueStats struct {
	Requests        int64
	Hits            int64
	ShadowHits      int64
	CliffShadowHits int64
	Evictions       int64
	Resizes         int64
	// Pointer-event counters, useful when diagnosing cliff-scaling
	// behaviour: hits in the cliff shadow ("right of pointer") and the tail
	// window ("left of pointer") of each partition.
	LeftCliffEvents  int64
	LeftTailEvents   int64
	RightCliffEvents int64
	RightTailEvents  int64
	// StalePointerEvents counts shadow/tail hits that were ignored because
	// the partition was not full (its shadow contents were stale).
	StalePointerEvents int64
	// RelaxEvents counts pointer pull-backs triggered by clearly underfull
	// partitions.
	RelaxEvents int64
}

// underfullBy reports whether the partition's resident cost is below its
// target capacity by more than margin.
func underfullBy(p *partition, margin int64) bool {
	return p.used()+margin < p.physCapacity
}

// relaxMargin is the slack a partition must show before its pointer is
// relaxed: several credits plus the tail-window size (the tail drains while
// the front refills after any capacity increase, creating benign slack of up
// to one tail window), or a sixteenth of capacity for large partitions —
// whichever is larger. That covers the transients of credit-sized growth. It
// does not cover a page grant: a partition that was just handed half a
// megabyte is underfull by far more than this, by construction, which is why
// relaxation is also held off while the owner still has memory to grant
// (Queue.ownerHasSpare).
func relaxMargin(p *partition, credit int64) int64 {
	m := 4*credit + p.tailCapacity
	if alt := p.physCapacity/16 + p.tailCapacity; alt > m {
		m = alt
	}
	return m
}

// Queue is one Cliffhanger-managed eviction queue: a slab class or an
// application. It owns the Figure-5 structure (two partitions, each with a
// tail window, a cliff shadow and a hill shadow) and runs the cliff-scaling
// pointer algorithm locally. Capacity changes come from the Manager's hill
// climbing (or from the caller when hill climbing is disabled).
type Queue struct {
	id       string
	cfg      Config
	unitCost int64

	capacity int64 // target total physical capacity (cost units)

	left, right *partition
	split       bool

	// Cliff-scaling state (Algorithm 2/3), in cost units.
	leftPointer  int64
	rightPointer int64
	ratio        float64 // fraction of requests routed to the left partition
	// leftEvents and rightEvents count pointer-update events per side and
	// drive the slow leak that pulls idle pointers back toward the
	// operating point (see updatePointers).
	leftEvents  uint64
	rightEvents uint64

	pendingResize bool
	rr            uint64 // round-robin counter for SplitRoundRobin
	missCount     uint64 // drives the relaxation rate limit

	// spare reports whether the queue's owner still holds memory it has
	// given to no queue (Manager.SetSpare); nil means it never does.
	spare func() bool

	stats QueueStats
}

// newQueue builds a queue with the given initial capacity. unitCost is the
// typical per-item cost (the slab chunk size) used to convert the item-based
// window parameters into cost units.
func newQueue(id string, cfg Config, capacity, unitCost int64) *Queue {
	if unitCost <= 0 {
		unitCost = 1
	}
	if capacity < 0 {
		capacity = 0
	}
	q := &Queue{
		id:       id,
		cfg:      cfg,
		unitCost: unitCost,
		capacity: capacity,
		ratio:    1.0,
	}
	tailCap := cfg.TailWindowItems * unitCost
	cliffCap := cfg.CliffShadowItems * unitCost
	// Unsplit layout: everything lives in the left partition.
	q.left = newPartition(capacity, tailCap, cliffCap, cfg.ShadowBytes)
	q.right = newPartition(0, tailCap, cliffCap, 0)
	q.leftPointer = capacity
	q.rightPointer = capacity
	// Apply the initial layout immediately (splitting the capacity in half
	// when cliff scaling activates) so the very first requests already see
	// correctly sized partitions.
	q.pendingResize = true
	q.applyResize()
	return q
}

// ID returns the queue's identifier.
func (q *Queue) ID() string { return q.id }

// Capacity returns the queue's target physical capacity in cost units.
func (q *Queue) Capacity() int64 { return q.capacity }

// AppliedCapacity returns the physical capacity currently applied to the
// queue's partitions. It lags Capacity while a resize is pending (resizes are
// applied lazily on misses per the paper's thrash-avoidance rule); the
// documented occupancy invariant is Used() <= AppliedCapacity(), not
// Used() <= Capacity().
func (q *Queue) AppliedCapacity() int64 {
	return q.left.physCapacity + q.right.physCapacity
}

// PendingResize reports whether a capacity or partition change is still
// waiting to be applied (on the next miss, or via ForceApplyResize).
func (q *Queue) PendingResize() bool { return q.pendingResize }

// Used returns the physically resident cost.
func (q *Queue) Used() int64 { return q.left.used() + q.right.used() }

// Items returns the number of physically resident entries.
func (q *Queue) Items() int { return q.left.items() + q.right.items() }

// Stats returns a copy of the queue's counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// Split reports whether cliff scaling is currently active on this queue.
func (q *Queue) Split() bool { return q.split }

// Ratio returns the current fraction of requests routed to the left
// partition (0.5 on concave curves, shifted when a cliff is detected).
func (q *Queue) Ratio() float64 { return q.ratio }

// Pointers returns the cliff-scaling pointers (left, right) in cost units.
func (q *Queue) Pointers() (int64, int64) { return q.leftPointer, q.rightPointer }

// PartitionCapacities returns the current physical capacities of the left
// and right partitions.
func (q *Queue) PartitionCapacities() (int64, int64) {
	return q.left.physCapacity, q.right.physCapacity
}

// SetCapacity retargets the queue's total physical capacity. The change is
// applied lazily on the next miss when ResizeOnMissOnly is set, matching the
// paper's thrash-avoidance rule.
func (q *Queue) SetCapacity(capacity int64) {
	if capacity < 0 {
		capacity = 0
	}
	if capacity == q.capacity {
		return
	}
	q.capacity = capacity
	q.clampPointers()
	q.pendingResize = true
}

// Grow raises the capacity by delta bytes that come from outside the
// manager's queues — a free page — rather than from a sibling queue. Nothing
// was taken from anyone, so the grant says nothing about where a cliff is: a
// left pointer that is home (inside the dead zone, where recomputeRatio
// already treats it as not having moved) moves with the operating point.
// SetCapacity alone would leave it a page behind, which reads as "the convex
// region starts a page back" and holds the left partition to half of the old
// size. The right pointer needs no help: clampPointers lifts it.
func (q *Queue) Grow(delta int64) {
	home := q.capacity-q.leftPointer <= q.deadZone()
	q.SetCapacity(q.capacity + delta)
	if home {
		q.leftPointer = q.capacity
	}
}

// HasRoom reports whether admitting key at cost would evict nothing. Eviction
// is per partition, so the question is put to the partition key routes to: a
// full partition evicts even while its sibling has slack.
func (q *Queue) HasRoom(key string, cost int64) bool {
	if !q.split {
		return q.left.hasRoom(cost)
	}
	// Hash the key only when the partitions disagree.
	l, r := q.left.hasRoom(cost), q.right.hasRoom(cost)
	if l == r {
		return l
	}
	return q.routesLeft(key) == l
}

// Contains reports whether key is physically resident.
func (q *Queue) Contains(key string) bool {
	_, seg, _ := q.holder(key)
	return seg != segMiss
}

// holder finds the partition and physical segment (segFront, with the entry's
// handle, or segTail) that key is resident in; seg is segMiss if it is in
// neither. A key is in at most one segment of one partition, so the order of
// the probes is free: both fronts come first because that is where all
// resident keys but the two tail windows' worth are.
func (q *Queue) holder(key string) (*partition, segment, cache.Handle) {
	for _, p := range [...]*partition{q.left, q.right} {
		if h, ok := p.front.Probe(key); ok {
			return p, segFront, h
		}
	}
	for _, p := range [...]*partition{q.left, q.right} {
		if p.tail.Contains(key) {
			return p, segTail, cache.Handle{}
		}
	}
	return nil, segMiss, cache.Handle{}
}

// Remove deletes key from the queue entirely (physical and shadow segments).
func (q *Queue) Remove(key string) bool {
	l := q.left.remove(key)
	r := q.right.remove(key)
	return l || r
}

// Access processes one request for key with the given cost and returns the
// outcome. On a miss the key is admitted (demand fill); the caller stores
// the value and drops the values of any Evicted keys.
func (q *Queue) Access(key string, cost int64) AccessOutcome {
	q.stats.Requests++
	target, other := q.route(key)

	// Find the key, preferring its routed partition but falling back to the
	// other so that ratio changes migrate keys instead of losing them.
	found := target
	seg, h := target.lookup(key)
	if seg == segMiss {
		if s, oh := other.lookup(key); s != segMiss {
			found, seg, h = other, s, oh
		}
	}
	return q.settle(key, cost, target, found, seg, h)
}

// AccessResident is exactly `if q.Contains(key) { q.Access(key, cost) }` —
// the GET path of a store whose misses must not admit — reporting whether the
// access happened. For a key in a front segment, which is nearly every hit,
// the whole call costs one LRU probe (two if the queue is split and the key
// in its right half), against the pair's three or more.
func (q *Queue) AccessResident(key string, cost int64) (AccessOutcome, bool) {
	found, seg, h := q.holder(key)
	if seg == segMiss {
		return AccessOutcome{}, false
	}
	q.stats.Requests++
	// When key routes to the other partition than the one holding it, Access
	// finds nothing there (see holder) and falls back to found.
	target, _ := q.route(key)
	return q.settle(key, cost, target, found, seg, h), true
}

// settle finishes an access once the key has been located: in segment seg of
// partition found (seg is segMiss if nowhere), h being its handle when seg is
// segFront; target is the partition the key routes to.
func (q *Queue) settle(key string, cost int64, target, found *partition, seg segment, h cache.Handle) AccessOutcome {
	var out AccessOutcome
	switch seg {
	case segFront, segTail:
		out.Hit = true
		out.TailWindowHit = seg == segTail
		q.stats.Hits++
	case segCliff:
		out.CliffShadowHit = true
		q.stats.CliffShadowHits++
	case segHill:
		out.ShadowHit = true
		q.stats.ShadowHits++
	}

	// Cliff-scaling pointer updates (Algorithm 2): driven by hits at the
	// tail window (left of pointer) and in the cliff shadow (right of
	// pointer) of each partition.
	if q.split && q.cfg.EnableCliffScaling {
		q.updatePointers(found, seg)
	}

	// Promote or admit the key. Misses and shadow hits are admissions into
	// the routed partition; physical hits are promotions within the
	// partition where the key resides.
	var evicted []cache.Victim
	if out.Hit {
		evicted = found.promote(key, cost, seg, h)
	} else {
		if seg != segMiss {
			// Drop the key's shadow entry (wherever it lives) so it is
			// admitted exactly once.
			found.remove(key)
		}
		evicted = append(evicted, target.insert(key, cost)...)
	}
	// Relax pointers toward "just full" partition sizes. A partition that is
	// underfull by a clear margin has more memory than its key subset needs,
	// which means its pointer overshot the anchor Talus would choose (the
	// size at which the partition exactly fits its share of the working
	// set). The paper's pointer rules have no restoring force in that state
	// because an underfull partition stops evicting and its measurement
	// windows go quiet, so we pull the pointer back one credit at a time, at
	// most once per pointerLeakPeriod misses. This also implements lazy
	// growth: partitions only keep memory they demonstrably fill.
	//
	// None of this holds while the owner has memory it has handed to nobody.
	// Relaxation moves memory a partition is not filling to its sibling, and
	// there is nothing to gain by that when the sibling can be given a free
	// page instead; worse, a partition that was just granted one is underfull
	// by construction, so every cold fill would read as pointer overshoot and
	// squeeze the left partition while most of the tenant is empty. The paper
	// never meets this state (memcached has handed out every page before
	// Cliffhanger starts moving memory); relaxation is ours, so the guard is
	// too.
	if q.split && q.cfg.EnableCliffScaling && !out.Hit {
		q.missCount++
		if q.missCount%pointerLeakPeriod == 0 && !q.ownerHasSpare() {
			credit := q.cfg.CreditBytes
			if q.rightPointer > q.capacity && underfullBy(q.right, relaxMargin(q.right, credit)) {
				q.stats.RelaxEvents++
				q.rightPointer -= credit
				q.clampPointers()
				q.recomputeRatio()
				q.pendingResize = true
			}
			if q.leftPointer > q.unitCost*q.cfg.TailWindowItems && underfullBy(q.left, relaxMargin(q.left, credit)) {
				q.stats.RelaxEvents++
				q.leftPointer -= credit
				q.clampPointers()
				q.recomputeRatio()
				q.pendingResize = true
			}
		}
	}
	// Apply pending capacity changes: on every access when thrash avoidance
	// is disabled, otherwise only when this access was a miss (§5.1).
	if q.pendingResize && (!q.cfg.ResizeOnMissOnly || !out.Hit) {
		evicted = append(evicted, q.applyResize()...)
	}
	out.Evicted = evicted
	q.stats.Evictions += int64(len(evicted))
	return out
}

// ownerHasSpare asks the owner whether it still holds memory no queue has been
// given (Manager.SetSpare).
func (q *Queue) ownerHasSpare() bool { return q.spare != nil && q.spare() }

// route returns the partition the key is routed to and the other partition.
func (q *Queue) route(key string) (target, other *partition) {
	if !q.split {
		return q.left, q.right
	}
	toLeft := q.routesLeft(key)
	if q.cfg.Splitter == SplitRoundRobin {
		q.rr++
	}
	if toLeft {
		return q.left, q.right
	}
	return q.right, q.left
}

// routesLeft reports whether the next request for key on a split queue goes
// to the left partition, without consuming a round-robin turn.
func (q *Queue) routesLeft(key string) bool {
	if q.cfg.Splitter == SplitRoundRobin {
		// Route in proportion to ratio using a deterministic low-discrepancy
		// sequence: the fractional part of rr*ratio.
		return float64((q.rr+1)%1000)/1000.0 < q.ratio
	}
	return float64(fnv1a(key)%(1<<20))/float64(1<<20) < q.ratio
}

// updatePointers implements Algorithm 2. The "shadow queue" of each
// partition conceptually straddles that partition's pointer: its left half
// is the partition's physical tail window and its right half is the
// partition's cliff shadow queue (§5.1). Hits right of a pointer push it
// outward (right pointer grows, left pointer shrinks); hits left of a
// pointer pull it back toward the current operating point.
func (q *Queue) updatePointers(p *partition, seg segment) {
	if seg != segTail && seg != segCliff {
		return
	}
	credit := q.cfg.CreditBytes
	// Only full partitions produce meaningful pointer signals. An underfull
	// partition is not evicting, so anything found in its tail window or
	// cliff shadow is a stale leftover from before its last resize; acting
	// on those would let the pointers ratchet away from the operating point
	// on noise (and during warm-up).
	if p.used()+credit < p.physCapacity {
		q.stats.StalePointerEvents++
		return
	}
	switch {
	case p == q.right && seg == segCliff:
		q.stats.RightCliffEvents++
		q.rightPointer += credit
	case p == q.right && seg == segTail:
		q.stats.RightTailEvents++
		if q.rightPointer > q.capacity {
			q.rightPointer -= credit
		}
	case p == q.left && seg == segCliff:
		q.stats.LeftCliffEvents++
		q.leftPointer -= credit
	case p == q.left && seg == segTail:
		q.stats.LeftTailEvents++
		if q.leftPointer < q.capacity {
			q.leftPointer += credit
		}
	}
	// Slow leak toward the operating point. On concave (or locally linear)
	// curves the left/right window hit rates are nearly equal, so the
	// pointers perform an almost unbiased random walk; without a weak
	// restoring force they wander far from the operating point and skew the
	// partition sizes for no benefit. One extra credit of pull per
	// pointerLeakPeriod events is negligible against the sustained
	// imbalance a real cliff produces but keeps idle pointers home.
	if p == q.left {
		q.leftEvents++
		if q.leftEvents%pointerLeakPeriod == 0 && q.leftPointer < q.capacity {
			q.leftPointer += credit
		}
	} else {
		q.rightEvents++
		if q.rightEvents%pointerLeakPeriod == 0 && q.rightPointer > q.capacity {
			q.rightPointer -= credit
		}
	}
	q.clampPointers()
	q.recomputeRatio()
	q.pendingResize = true
}

// pointerLeakPeriod is the number of pointer-update events between leak
// steps; see updatePointers.
const pointerLeakPeriod = 8

// clampPointers keeps the pointers on their respective sides of the current
// operating point: leftPointer in [minQueue, capacity], rightPointer in
// [capacity, +inf).
func (q *Queue) clampPointers() {
	minLeft := q.unitCost * q.cfg.TailWindowItems
	if minLeft <= 0 {
		minLeft = q.unitCost
	}
	if q.leftPointer > q.capacity {
		q.leftPointer = q.capacity
	}
	if q.leftPointer < minLeft {
		q.leftPointer = minLeft
	}
	if q.rightPointer < q.capacity {
		q.rightPointer = q.capacity
	}
}

// recomputeRatio implements Algorithm 3 (ComputeRatio): the fraction of
// requests routed to the left (small) partition is proportional to the
// distance of the right pointer from the operating point.
//
// A small dead zone is applied: while both pointers are within a couple of
// credits of the operating point (which is where they hover on concave
// curves, since their reflecting barriers sit at the operating point) the
// ratio stays pinned at 0.5 so that concave workloads see a stable, evenly
// split queue instead of constant re-partitioning churn.
func (q *Queue) recomputeRatio() {
	if q.ratioPinned() {
		q.ratio = 0.5
		return
	}
	distanceRight := float64(q.rightPointer - q.capacity)
	distanceLeft := float64(q.capacity - q.leftPointer)
	q.ratio = distanceRight / (distanceRight + distanceLeft)
}

// ratioPinned reports whether the pointers are still too close to the
// operating point for the Talus ratio to be meaningful; in that regime the
// request split stays at 0.5. The dead zone is several credits wide because
// a pointer hovering one or two credits past the operating point (which
// happens constantly on concave curves) would otherwise produce wildly
// lopsided ratios (e.g. dR=1 credit against dL=thousands) and thrash the
// partitions.
func (q *Queue) ratioPinned() bool {
	return q.rightPointer-q.capacity <= q.deadZone() || q.capacity-q.leftPointer <= q.deadZone()
}

// deadZone is how far a pointer may sit from the operating point and still
// count as home.
func (q *Queue) deadZone() int64 { return 4 * q.cfg.CreditBytes }

// applyResize implements UpdatePhysicalQueues of Algorithm 3 plus the
// hill-climbing capacity target: the left partition simulates a queue of
// leftPointer items by holding leftPointer*ratio of them, and the right
// partition simulates rightPointer items with rightPointer*(1-ratio). When
// the queue is not split, the left partition simply takes the whole
// capacity. The 1 MiB hill-climbing shadow is split across partitions in
// proportion to their sizes (§5.1).
func (q *Queue) applyResize() []cache.Victim {
	q.pendingResize = false
	q.stats.Resizes++
	if q.maybeToggleSplit() && q.left.used() > q.capacity/2 {
		return q.splitResidents()
	}
	var victims []cache.Victim
	if !q.split {
		victims = append(victims, q.left.setPhysCapacity(q.capacity)...)
		victims = append(victims, q.right.setPhysCapacity(0)...)
		q.left.setHillCapacity(q.cfg.ShadowBytes)
		q.right.setHillCapacity(0)
		return victims
	}
	// Target partition sizes per Algorithm 3 (UpdatePhysicalQueues). When
	// the ratio is pinned at 0.5 the Talus identity left·ratio +
	// right·(1-ratio) = capacity does not hold, so the right partition is
	// given whatever the left does not use: this keeps the full budget in
	// use and lets the right partition explore larger simulated sizes,
	// which is how the right pointer discovers the top of a cliff.
	// In the unpinned regime the Talus identity guarantees that
	// right = capacity - left, so deriving the right size from the left
	// keeps the sum exact despite rounding; in the pinned regime it is the
	// reinvestment rule described above.
	leftTarget := int64(float64(q.leftPointer) * q.ratio)
	if leftTarget > q.capacity {
		leftTarget = q.capacity
	}
	// Bound the per-resize movement so that transient ratio or pointer
	// swings never repartition a large fraction of the queue at once; the
	// resize is re-applied on subsequent misses until the target is reached.
	maxStep := 8 * q.cfg.CreditBytes
	if alt := q.capacity / 64; alt > maxStep {
		maxStep = alt
	}
	leftCap := stepToward(q.left.physCapacity, leftTarget, maxStep)
	if leftCap > q.capacity {
		leftCap = q.capacity
	}
	rightCap := q.capacity - leftCap
	// Hysteresis: skip physical repartitioning when the targets moved by
	// less than one credit, so pointer jitter does not thrash the queues.
	if abs64(leftCap-q.left.physCapacity) < q.cfg.CreditBytes &&
		abs64(rightCap-q.right.physCapacity) < q.cfg.CreditBytes &&
		q.left.physCapacity+q.right.physCapacity <= q.capacity {
		return victims
	}
	if leftCap != leftTarget {
		// Not yet at the target: keep resizing on subsequent misses.
		q.pendingResize = true
	}
	return append(victims, q.setPartitions(leftCap, rightCap)...)
}

// setPartitions applies physical capacities to the two partitions of a split
// queue and divides the hill-climbing shadow between them in proportion.
func (q *Queue) setPartitions(leftCap, rightCap int64) []cache.Victim {
	victims := q.left.setPhysCapacity(leftCap)
	victims = append(victims, q.right.setPhysCapacity(rightCap)...)
	total := leftCap + rightCap
	if total <= 0 {
		total = 1
	}
	q.left.setHillCapacity(q.cfg.ShadowBytes * leftCap / total)
	q.right.setHillCapacity(q.cfg.ShadowBytes * rightCap / total)
	return victims
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// stepToward moves cur toward target by at most step.
func stepToward(cur, target, step int64) int64 {
	switch {
	case target > cur+step:
		return cur + step
	case target < cur-step:
		return cur - step
	default:
		return target
	}
}

// maybeToggleSplit activates or deactivates cliff scaling based on the
// queue's size in items (§5.1: only queues above ~1000 items). It reports
// whether this call activated it.
func (q *Queue) maybeToggleSplit() bool {
	if !q.cfg.EnableCliffScaling {
		q.split = false
		q.ratio = 1.0
		return false
	}
	items := q.capacity / q.unitCost
	switch {
	case !q.split && items >= q.cfg.CliffMinItems:
		q.split = true
		q.leftPointer = q.capacity
		q.rightPointer = q.capacity
		q.ratio = 0.5
		return true
	case q.split && items < q.cfg.CliffMinItems*8/10:
		// Hysteresis: deactivate only when clearly below the threshold.
		q.split = false
		q.ratio = 1.0
	}
	return false
}

// splitResidents lays out a queue that has just become split while holding
// more than half its capacity: both pointers are home and the ratio is 0.5,
// so each partition gets half. Until this moment everything lived in the left
// partition, and halving it the way a running queue is repartitioned — shrink
// left a step at a time and evict what no longer fits — would throw out
// residents of a queue that is, as a whole, no fuller than before (a class
// that had just been granted its fourth page lost 256 items this way with 250
// pages free). Instead the colder part moves to the right partition, in
// recency order. Which partition holds a key does not matter to a lookup,
// which tries both, and at ratio 0.5 the partitions are interchangeable; only
// what does not fit the capacity as a whole is evicted. (A queue that holds
// no more than half takes the ordinary path in applyResize: stepping its left
// partition down evicts nothing, and every queue is born that way.)
func (q *Queue) splitResidents() []cache.Victim {
	half := q.capacity / 2
	var colder []cache.Victim // coldest first
	for q.left.used() > half {
		v, ok := q.left.popOldest()
		if !ok {
			break
		}
		colder = append(colder, v)
	}
	victims := q.setPartitions(half, q.capacity-half)
	for _, v := range colder {
		victims = append(victims, q.right.insert(v.Key, v.Cost)...)
	}
	return victims
}

// ForceApplyResize applies any pending capacity changes immediately. It is
// used by tests and by callers that drain a queue.
func (q *Queue) ForceApplyResize() []cache.Victim {
	if !q.pendingResize {
		return nil
	}
	return q.applyResize()
}
