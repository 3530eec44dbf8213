package core

import (
	"cliffhanger/internal/cache"
)

// The segments of a partition's chain, in the order a key ages through them.
const (
	segNone = iota - 1 // not in the queue at all
	segFront
	segTail  // the physical tail window ("left of pointer")
	segCliff // the cliff-scaling shadow queue ("right of pointer")
	segHill  // the partition's share of the hill-climbing shadow queue
	numSegs
)

// segment is one capacity-bounded stretch of a partition's chain: a recency
// list over the queue's nodes, with the cost it holds.
type segment struct {
	list     *cache.List
	capacity int64
	used     int64
}

func (s *segment) pushFront(n *cache.Node) {
	s.list.PushFront(n)
	s.used += int64(n.Cost)
}

func (s *segment) remove(n *cache.Node) {
	s.list.Remove(n)
	s.used -= int64(n.Cost)
}

// partition is one half of a cliff-scaled queue, drawn in Figure 5 as one
// chain: the physical queue (a front segment, then the tail window), then the
// short cliff-scaling shadow queue, then a share of the hill-climbing shadow
// queue. A key ages down the chain a segment at a time and is forgotten when
// it falls off the end. Leaving the tail window is a physical eviction (the
// caller must drop the value); the two shadow segments hold keys only.
type partition struct {
	segs [numSegs]segment
	// tag is what Node.Aux reads for an entry in this partition's front
	// segment; the other segments follow (Queue.segmentOf). The tags of a
	// Manager's queues do not overlap (newQueue's owner), so a tag also says
	// which queue a node belongs to (Queue.owns).
	tag int32

	physCapacity int64 // target capacity of front+tail, in cost units
	tailCapacity int64 // capacity reserved for the tail window
}

func (p *partition) init(tag int32, physCapacity, tailCapacity, cliffCapacity, hillCapacity int64) {
	for i := range p.segs {
		p.segs[i].list = cache.NewList()
	}
	p.tag = tag
	p.tailCapacity = tailCapacity
	p.segs[segCliff].capacity = cliffCapacity
	p.segs[segHill].capacity = hillCapacity
	p.setPhysTargets(physCapacity)
}

// setPhysTargets records a new physical capacity and divides it between the
// front segment and the tail window, which keeps its configured size as long
// as the partition is at least that large. Nothing moves until the segments
// are drained.
func (p *partition) setPhysTargets(physCapacity int64) {
	if physCapacity < 0 {
		physCapacity = 0
	}
	p.physCapacity = physCapacity
	frontCap := physCapacity - p.tailCapacity
	if frontCap < 0 {
		frontCap = 0
	}
	p.segs[segFront].capacity = frontCap
	p.segs[segTail].capacity = physCapacity - frontCap
}

// used reports the physically resident cost.
func (p *partition) used() int64 { return p.segs[segFront].used + p.segs[segTail].used }

// hasRoom reports whether cost more fits under the physical capacity.
func (p *partition) hasRoom(cost int64) bool { return p.used()+cost <= p.physCapacity }

// items reports the number of physically resident entries.
func (p *partition) items() int { return p.segs[segFront].list.Len() + p.segs[segTail].list.Len() }

// coldest returns the least recently used resident entry, nil if there is
// none.
func (p *partition) coldest() *cache.Node {
	if n := p.segs[segTail].list.Back(); n != nil {
		return n
	}
	return p.segs[segFront].list.Back()
}

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
// does not cover a grant of the owner's free memory: a partition that was just
// handed an eighth of a megabyte is underfull by far more than this, by
// construction, which is why relaxation is also held off while the owner
// still has memory to grant (Queue.ownerHasSpare).
func relaxMargin(p *partition, credit int64) int64 {
	m := 4*credit + p.tailCapacity
	if alt := p.physCapacity/16 + p.tailCapacity; alt > m {
		m = alt
	}
	return m
}

// Queue is one Cliffhanger-managed eviction queue: a slab class or an
// application. It owns the Figure-5 structure, two chains of four segments,
// and runs the cliff-scaling pointer algorithm locally. Capacity changes come
// from the Manager's hill climbing (or from the caller when hill climbing is
// disabled).
//
// The queue indexes only its shadow. A key gets one node when it is admitted
// and keeps it, relinked from segment to segment and tagged with the one that
// holds it, until it is removed or falls off the end of a hill shadow. A
// resident node holds its key and is reached only through the caller's
// directory; a shadow node holds none, and the index finds it by the key's
// cache.Hash, which also routes a split queue. So a hash collision can only
// cost a shadow hit (place) and never makes a wrong resident. Every way an
// entry can move (promotion, admission, shadow hit, a capacity change, the
// move of the colder residents when the queue first splits) is the same step:
// put the node at the head of a segment and let what no longer fits fall onto
// the segment below (place, drain).
type Queue struct {
	id       string
	cfg      Config
	unitCost int64

	capacity int64 // target total physical capacity (cost units)

	index       map[uint64]*cache.Node // the shadow segments' nodes, by hash
	parts       [2]partition
	left, right *partition  // &parts[0], &parts[1]
	free        *cache.List // the nodes of forgotten keys, for the next admissions
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
	missCount     uint64 // drives the relaxation rate limit

	// spare reports whether the queue's owner still holds memory it has
	// given to no queue (Manager.SetSpare); nil means it never does.
	spare func() bool

	stats QueueStats
}

// newQueue builds a queue with the given initial capacity. unitCost is the
// typical per-item cost (the slab chunk size) used to convert the item-based
// window parameters into cost units. owner numbers the queue among its
// Manager's (its index there) or its caller's: the segment tags its nodes
// carry start at owner × 2 × numSegs, so no two queues of one owner share a
// tag. Only cliff scaling reads the tail window, and only the two algorithms
// read the shadows, so a queue without cliff scaling has no tail window and a
// queue running neither algorithm has no shadow segments either: its chain is
// the front segment alone, memcached's LRU.
func newQueue(id string, cfg Config, owner int, capacity, unitCost int64) *Queue {
	if unitCost <= 0 {
		unitCost = 1
	}
	if capacity < 0 {
		capacity = 0
	}
	var tailCap, cliffCap int64
	if cfg.EnableCliffScaling {
		tailCap = cfg.TailWindowItems * unitCost
	}
	if cfg.EnableCliffScaling || cfg.EnableHillClimbing {
		cliffCap = cfg.CliffShadowItems * unitCost
	} else {
		cfg.ShadowBytes = 0
	}
	q := &Queue{
		id:       id,
		cfg:      cfg,
		unitCost: unitCost,
		capacity: capacity,
		ratio:    1.0,
		index:    make(map[uint64]*cache.Node),
		free:     cache.NewList(),
	}
	q.left, q.right = &q.parts[0], &q.parts[1]
	// Unsplit layout: everything lives in the left partition.
	tag := int32(owner) * 2 * numSegs
	q.left.init(tag, capacity, tailCap, cliffCap, cfg.ShadowBytes)
	q.right.init(tag+numSegs, 0, tailCap, cliffCap, 0)
	q.leftPointer = capacity
	q.rightPointer = capacity
	// Apply the initial layout immediately (splitting the capacity in half
	// when cliff scaling activates) so the very first requests already see
	// correctly sized partitions.
	q.pendingResize = true
	q.applyResize()
	return q
}

// NewLRUQueue builds a queue no Manager runs: neither algorithm, and every
// capacity change applied by the next access at the latest (the caller may
// apply it at once with ForceApplyResize). Such a queue is memcached's LRU at
// any cost mix. owner gives its nodes their tags, as a Manager's index does
// (newQueue); queues whose nodes may be handed to one another (a store's
// class queues, whose records move between them) need distinct owners.
func NewLRUQueue(id string, owner int, capacity, unitCost int64) *Queue {
	cfg := DefaultConfig()
	cfg.EnableHillClimbing, cfg.EnableCliffScaling, cfg.ResizeOnMissOnly = false, false, false
	return newQueue(id, cfg.withDefaults(), owner, capacity, unitCost)
}

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

// FrontWindow is how many entries may be put at the head of the queue's
// front segments after a resident key was last put there, with the key still
// sure to be in one: the smallest front-segment item count among the
// partitions in use (the left one alone while unsplit), less the tail
// window's length in items (TailWindowItems with cliff scaling on, none
// otherwise). It is 0 while a resize is pending that a hit would apply, which
// only a queue that applies resizes on every access does: under
// ResizeOnMissOnly a front hit moves the key to the head and nothing else
// (settle), whatever is pending, and a pending resize is applied by a miss,
// itself an access that places an entry. A key that has left its front
// segment left it from the back, with only entries placed after it ahead, and
// those are all its segment holds until more are placed; so while fewer
// entries than that count have been placed since the key was, it has not
// left. Entries are placed by accesses and admissions. A resize only drains,
// but for the one that first splits the queue, which moves the colder
// residents to the right partition in recency order and so puts nothing ahead
// of a key that was not already.
//
// The margin keeps a tail window's length of front segment behind a key that
// a caller leaves where it is: such a key ages as if it had not been hit, and
// without the margin enough of them reached the tail window to move cliff
// scaling's pointers, whose signal is the hits there.
func (q *Queue) FrontWindow() int {
	if q.pendingResize && !q.cfg.ResizeOnMissOnly {
		return 0
	}
	n := q.left.segs[segFront].list.Len()
	if q.split {
		n = min(n, q.right.segs[segFront].list.Len())
	}
	return max(0, n-int(q.left.tailCapacity/q.unitCost))
}

// CountHits counts n front-segment hits that promoted nothing, as the
// store's GET hits within their FrontWindow do: the requests and hits a
// settle of each would have counted.
func (q *Queue) CountHits(n int64) {
	q.stats.Requests += n
	q.stats.Hits += n
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
// manager's queues — the owner's free memory — rather than from a sibling
// queue. Nothing was taken from anyone, so the grant says nothing about where
// a cliff is: a left pointer that is home (inside the dead zone, where
// recomputeRatio already treats it as not having moved) moves with the
// operating point.
// SetCapacity alone would leave it a grant behind, which reads as "the convex
// region starts a grant back" and holds the left partition to half of the old
// size. The right pointer needs no help: clampPointers lifts it.
func (q *Queue) Grow(delta int64) {
	home := q.capacity-q.leftPointer <= q.deadZone()
	q.SetCapacity(q.capacity + delta)
	if home {
		q.leftPointer = q.capacity
	}
}

// HasRoom reports whether admitting a key of the given hash at cost would
// evict nothing. Eviction is per partition, so the question is put to the
// partition the key routes to: a full partition evicts even while its sibling
// has slack.
func (q *Queue) HasRoom(hash uint64, cost int64) bool {
	if !q.split {
		return q.left.hasRoom(cost)
	}
	l, r := q.left.hasRoom(cost), q.right.hasRoom(cost)
	if l == r {
		return l
	}
	return q.routesLeft(hash) == l
}

// Holds reports whether n, which may be anything a caller remembers (nil, a
// forgotten node, another queue's), holds key resident in this queue.
func (q *Queue) Holds(key string, n *cache.Node) bool {
	return n != nil && q.owns(n) && n.Key == key && (n.Aux-q.left.tag)%numSegs < segCliff
}

// segmentOf reads the partition and segment n is linked in off its tag.
func (q *Queue) segmentOf(n *cache.Node) (*partition, int) {
	i := n.Aux - q.left.tag
	return &q.parts[i/numSegs], int(i % numSegs)
}

// owns reports whether n is linked in one of this queue's segments: its tag
// is one of the queue's eight (a forgotten node's, -1, is no queue's).
func (q *Queue) owns(n *cache.Node) bool { return uint32(n.Aux-q.left.tag) < 2*numSegs }

// unlink takes n out of the segment that holds it; an index entry stays.
func (q *Queue) unlink(n *cache.Node) {
	p, seg := q.segmentOf(n)
	p.segs[seg].remove(n)
}

// place puts n, which is in no segment, at the head of segment seg of p, and
// drains the segment. An entry the segment can never hold (it costs more than
// the whole segment) passes through it to the one below instead of flushing
// it. Entries that cross the tail-window boundary on the way are physical
// evictions, appended to victims, and enter the shadow keyless, under the
// index (one placed below the cliff shadow is there already); an entry that
// runs off the end of the chain, or whose hash a shadow entry holds, is
// forgotten.
func (q *Queue) place(n *cache.Node, p *partition, seg int, victims []cache.Victim) []cache.Victim {
	shadow := seg > segCliff
	for ; seg < numSegs; seg++ {
		s := &p.segs[seg]
		if int64(n.Cost) <= s.capacity {
			if seg >= segCliff && !shadow {
				if q.index[n.Hash] != nil {
					break // a collision: a lost shadow hit
				}
				q.index[n.Hash], n.Key, shadow = n, "", true
			}
			n.Aux = p.tag + int32(seg)
			s.pushFront(n)
			return q.drain(p, seg, victims)
		}
		if seg == segTail {
			victims = append(victims, cache.Victim{Key: n.Key, Hash: n.Hash, Cost: int64(n.Cost)})
		}
	}
	q.forget(n, shadow)
	return victims
}

// drain moves the oldest entries of segment seg of p onto the segment below
// until what is left fits the segment's capacity.
func (q *Queue) drain(p *partition, seg int, victims []cache.Victim) []cache.Victim {
	s := &p.segs[seg]
	for s.used > s.capacity {
		n := s.list.Back()
		if n == nil {
			break
		}
		s.remove(n)
		if seg == segTail {
			victims = append(victims, cache.Victim{Key: n.Key, Hash: n.Hash, Cost: int64(n.Cost)})
		}
		victims = q.place(n, p, seg+1, victims)
	}
	return victims
}

// newNode returns a node in no segment for a key the queue does not know.
func (q *Queue) newNode() *cache.Node {
	n := q.free.Front()
	if n != nil {
		q.free.Remove(n)
	} else {
		n = &cache.Node{}
	}
	return n
}

// forget drops an unlinked node from the index if it is there (indexed) and
// keeps it for a later admission: at steady state the next one, which pushes
// another key off the end, and under delete-and-set churn the re-set, so that
// neither makes garbage. Its tag becomes no queue's (Holds).
func (q *Queue) forget(n *cache.Node, indexed bool) {
	if indexed {
		delete(q.index, n.Hash)
	}
	n.Key, n.Aux = "", -1
	q.free.PushFront(n)
}

// setPhysCapacity retargets the partition's physical capacity, keeping the
// tail window at its configured size, and returns what that evicts. The tail
// window drains before the front segment so that front overflow finds the
// room the tail window will have.
func (q *Queue) setPhysCapacity(p *partition, physCapacity int64, victims []cache.Victim) []cache.Victim {
	p.setPhysTargets(physCapacity)
	victims = q.drain(p, segTail, victims)
	return q.drain(p, segFront, victims)
}

// setHillCapacity retargets the partition's share of the hill-climbing
// shadow queue.
func (q *Queue) setHillCapacity(p *partition, capacity int64) {
	p.segs[segHill].capacity = capacity
	q.drain(p, segHill, nil)
}

// Remove deletes key from the queue if n holds it resident (Holds), and
// reports whether it did.
func (q *Queue) Remove(key string, n *cache.Node) bool {
	if !q.Holds(key, n) {
		return false
	}
	q.unlink(n)
	q.forget(n, false)
	return true
}

// Access processes one request for key with the given hash and cost, through
// n, the node the caller remembers for it, while n holds it (Holds), and
// otherwise by hash among the shadow entries. On a miss the key is admitted
// (demand fill); the caller stores the value and drops the values of any
// Evicted keys. It returns the node the key was placed under, for the caller
// to remember (one no segment could hold is already forgotten).
func (q *Queue) Access(key string, hash uint64, n *cache.Node, cost int64) (AccessOutcome, *cache.Node) {
	q.stats.Requests++
	if !q.Holds(key, n) {
		if n = q.index[hash]; n == nil {
			return q.settle(key, hash, cost, nil, nil, segNone)
		}
	}
	p, seg := q.segmentOf(n)
	return q.settle(key, hash, cost, n, p, seg)
}

// AccessResident is exactly `if q.Holds(key, n) { q.Access(key, hash, n,
// cost) }` — the GET path of a store whose misses must not admit — reporting
// whether the access happened and what a resize it applied evicted (the
// caller drops their values). A hit routes nothing, so it needs no hash.
func (q *Queue) AccessResident(key string, n *cache.Node, cost int64) (hit bool, evicted []cache.Victim) {
	if !q.Holds(key, n) {
		return false, nil
	}
	q.stats.Requests++
	p, seg := q.segmentOf(n)
	out, _ := q.settle(key, n.Hash, cost, n, p, seg)
	return true, out.Evicted
}

// settle finishes an access once the key has been looked up: n is its node,
// linked in segment seg of partition found (nil, nil and segNone if the queue
// does not know the key). It returns the node the key ends up under.
func (q *Queue) settle(key string, hash uint64, cost int64, n *cache.Node, found *partition, seg int) (AccessOutcome, *cache.Node) {
	if seg == segFront && (q.cfg.ResizeOnMissOnly || !q.pendingResize) {
		// All the rest would do: a front hit moves no pointer, keeps its
		// cost, and applies no resize unless one is pending and every
		// access applies them.
		q.stats.Hits++
		found.segs[segFront].list.MoveToFront(n)
		return AccessOutcome{Hit: true}, n
	}
	var out AccessOutcome
	target := found
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
	if !out.Hit {
		// Routed before the pointer updates below move the ratio.
		target = q.route(hash)
	}

	// Cliff-scaling pointer updates (Algorithm 2): driven by hits at the
	// tail window (left of pointer) and in the cliff shadow (right of
	// pointer) of each partition.
	if q.split && q.cfg.EnableCliffScaling {
		q.updatePointers(found, seg)
	}

	// Promote or admit the key. A front hit moves to the head of its segment
	// and keeps the cost it was stored with. Everything else enters the head
	// of a chain at the caller's cost: a tail-window hit that of the partition
	// it is resident in, a shadow hit or a miss that of the partition the key
	// routes to, so that ratio changes migrate keys instead of losing them. A
	// shadow hit's entry leaves the index and takes the requesting key.
	var evicted []cache.Victim
	if seg == segFront {
		found.segs[segFront].list.MoveToFront(n)
	} else {
		switch {
		case n == nil:
			n = q.newNode()
		case seg >= segCliff:
			delete(q.index, n.Hash)
			fallthrough
		default:
			q.unlink(n)
		}
		n.Key, n.Hash, n.Cost = key, hash, int32(cost)
		evicted = q.place(n, target, segFront, nil)
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
	// there is nothing to gain by that when the sibling can be given free
	// memory instead; worse, a partition that was just granted some is
	// underfull by construction, so every cold fill would read as pointer
	// overshoot and squeeze the left partition while most of the tenant is
	// empty. The paper never meets this state (memcached has handed out every
	// page before Cliffhanger starts moving memory); relaxation is ours, so
	// the guard is too.
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
	return out, n
}

// ownerHasSpare asks the owner whether it still holds memory no queue has been
// given (Manager.SetSpare).
func (q *Queue) ownerHasSpare() bool { return q.spare != nil && q.spare() }

// route returns the partition a key of the given hash is routed to.
func (q *Queue) route(hash uint64) *partition {
	if !q.split || q.routesLeft(hash) {
		return q.left
	}
	return q.right
}

// routesLeft reports whether a request for a key of the given hash goes to
// the left partition of a split queue, in proportion to the ratio.
func (q *Queue) routesLeft(hash uint64) bool {
	return float64(hash%(1<<20))/float64(1<<20) < q.ratio
}

// updatePointers implements Algorithm 2. The "shadow queue" of each
// partition conceptually straddles that partition's pointer: its left half
// is the partition's physical tail window and its right half is the
// partition's cliff shadow queue (§5.1). Hits right of a pointer push it
// outward (right pointer grows, left pointer shrinks); hits left of a
// pointer pull it back toward the current operating point.
func (q *Queue) updatePointers(p *partition, seg int) {
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
	if !q.split {
		victims := q.setPhysCapacity(q.left, q.capacity, nil)
		victims = q.setPhysCapacity(q.right, 0, victims)
		q.setHillCapacity(q.left, q.cfg.ShadowBytes)
		q.setHillCapacity(q.right, 0)
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
		return nil
	}
	if leftCap != leftTarget {
		// Not yet at the target: keep resizing on subsequent misses.
		q.pendingResize = true
	}
	return q.setPartitions(leftCap, rightCap)
}

// setPartitions applies physical capacities to the two partitions of a split
// queue and divides the hill-climbing shadow between them in proportion.
func (q *Queue) setPartitions(leftCap, rightCap int64) []cache.Victim {
	victims := q.setPhysCapacity(q.left, leftCap, nil)
	victims = q.setPhysCapacity(q.right, rightCap, victims)
	total := leftCap + rightCap
	if total <= 0 {
		total = 1
	}
	q.setHillCapacity(q.left, q.cfg.ShadowBytes*leftCap/total)
	q.setHillCapacity(q.right, q.cfg.ShadowBytes*rightCap/total)
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
// recency order: its nodes are taken out of the left chain, tail window
// first, before the partitions get their new sizes, and are then placed at
// the head of the right chain coldest first. Which partition holds a key does
// not matter to a lookup, which finds it wherever it is, and at ratio 0.5 the
// partitions are interchangeable; only what does not fit the capacity as a
// whole is evicted. (A queue that holds no more than half takes the ordinary
// path in applyResize: stepping its left partition down evicts nothing, and
// every queue is born that way.)
func (q *Queue) splitResidents() []cache.Victim {
	half := q.capacity / 2
	var colder []*cache.Node // coldest first, in no segment
	for q.left.used() > half {
		n := q.left.coldest()
		if n == nil {
			break
		}
		q.unlink(n)
		colder = append(colder, n)
	}
	victims := q.setPartitions(half, q.capacity-half)
	for _, n := range colder {
		victims = q.place(n, q.right, segFront, victims)
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
