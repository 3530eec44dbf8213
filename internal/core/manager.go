package core

import (
	"fmt"
	"math/rand"

	"cliffhanger/internal/cache"
)

// QueueSpec describes one queue to be managed by a Manager.
type QueueSpec struct {
	// ID names the queue (e.g. "class5" or "app19/class0").
	ID string
	// UnitCost is the typical per-item cost in bytes (the slab chunk size
	// for slab-class queues, or an average item size for application-level
	// queues). It sizes the item-based windows.
	UnitCost int64
	// InitialCapacity optionally fixes the queue's starting capacity in
	// bytes. Zero means "an equal share of the budget".
	InitialCapacity int64
}

// QueueSnapshot reports a queue's state for monitoring and experiments.
type QueueSnapshot struct {
	ID       string
	Capacity int64
	// AppliedCapacity is the capacity currently applied to the physical
	// partitions; it lags Capacity while a resize is pending (resizes apply
	// lazily on misses). Used never exceeds it.
	AppliedCapacity int64
	Used            int64
	Items           int
	Credits         int64
	Split           bool
	Ratio           float64
	LeftPointer     int64
	RightPointer    int64
	// LeftCapacity and RightCapacity are the physical capacities applied to
	// the two partitions (everything is in the left one while unsplit).
	LeftCapacity  int64
	RightCapacity int64
	Stats         QueueStats
}

// Manager runs Cliffhanger over a set of queues sharing a fixed memory
// budget: it performs hill climbing across the queues (Algorithm 1) and each
// queue performs cliff scaling internally (Algorithms 2 and 3). One Manager
// corresponds to one "optimization domain" — all slab classes of one
// application, or all applications of one server.
type Manager struct {
	cfg     Config
	queues  []*Queue
	byID    map[string]int
	credits []int64
	rng     *rand.Rand
}

// NewManager creates a manager distributing totalBytes across the given
// queues. Queues without an explicit InitialCapacity share the remaining
// budget equally.
func NewManager(cfg Config, totalBytes int64, specs []QueueSpec) (*Manager, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: manager needs at least one queue")
	}
	if totalBytes <= 0 {
		return nil, fmt.Errorf("core: non-positive budget %d", totalBytes)
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		byID:    make(map[string]int, len(specs)),
		credits: make([]int64, len(specs)),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}

	var fixed int64
	unfixed := 0
	for _, s := range specs {
		if s.InitialCapacity > 0 {
			fixed += s.InitialCapacity
		} else {
			unfixed++
		}
	}
	if fixed > totalBytes {
		return nil, fmt.Errorf("core: initial capacities (%d) exceed budget (%d)", fixed, totalBytes)
	}
	share := int64(0)
	if unfixed > 0 {
		share = (totalBytes - fixed) / int64(unfixed)
	}
	for i, s := range specs {
		if s.ID == "" {
			return nil, fmt.Errorf("core: queue %d has an empty ID", i)
		}
		if _, dup := m.byID[s.ID]; dup {
			return nil, fmt.Errorf("core: duplicate queue ID %q", s.ID)
		}
		capacity := s.InitialCapacity
		if capacity <= 0 {
			capacity = share
		}
		if capacity < cfg.MinQueueBytes {
			capacity = cfg.MinQueueBytes
		}
		q := newQueue(s.ID, cfg, len(m.queues), capacity, s.UnitCost)
		m.byID[s.ID] = len(m.queues)
		m.queues = append(m.queues, q)
	}
	return m, nil
}

// SetSpare tells the manager how to ask its owner whether memory is left that
// no queue has been given — for the store, the unassigned part of the tenant's
// reservation. While there is, no queue relaxes a cliff pointer (see
// Queue.settle): a partition short of room is handed spare memory, not its
// sibling's. It is asked each time rather than told once, because tenant
// resizes and the arbiter move the answer in both directions. A manager that
// is never told has none, which is the paper's setting: every page is already
// in some queue.
func (m *Manager) SetSpare(spare func() bool) {
	for _, q := range m.queues {
		q.spare = spare
	}
}

// Config returns the manager's normalized configuration.
func (m *Manager) Config() Config { return m.cfg }

// NumQueues returns the number of managed queues.
func (m *Manager) NumQueues() int { return len(m.queues) }

// QueueAt returns the i-th managed queue in creation order (the order of the
// specs NewManager was given).
func (m *Manager) QueueAt(i int) *Queue { return m.queues[i] }

// Access processes one request for key belonging to the queue with the given
// ID. cost is the item's cost in bytes (its chunk size). It returns the
// access outcome; unknown queue IDs return a zero outcome and false.
func (m *Manager) Access(queueID, key string, cost int64) (AccessOutcome, bool) {
	i, ok := m.byID[queueID]
	if !ok {
		return AccessOutcome{}, false
	}
	out, _ := m.AccessAt(i, key, cost)
	return out, true
}

// AccessAt is Access addressed by queue index (see QueueAt), for callers
// that already know it and should not pay a string-keyed lookup per request.
// It also returns the node key was placed under, which the caller may
// remember and hand to the queue's AccessResident so that a later hit probes
// nothing. (A resident access is never a shadow hit, so AccessResident needs
// no hill climbing and is called on the queue directly.)
func (m *Manager) AccessAt(i int, key string, cost int64) (AccessOutcome, *cache.Node) {
	out, n := m.queues[i].Access(key, cost)
	if out.ShadowHit && m.cfg.EnableHillClimbing && len(m.queues) > 1 {
		m.transferCredit(i)
	}
	return out, n
}

// transferCredit implements Algorithm 1: the queue whose shadow queue was
// hit earns CreditBytes of capacity at the expense of another queue. The
// victim is chosen at random (the paper's policy), with a few retries when
// the pick is the winner itself or already at the floor.
func (m *Manager) transferCredit(winner int) {
	credit := m.cfg.CreditBytes
	victim := -1
	for attempt := 0; attempt < 4 && victim == -1; attempt++ {
		j := m.rng.Intn(len(m.queues))
		if j == winner || m.queues[j].Capacity()-credit < m.cfg.MinQueueBytes {
			continue
		}
		victim = j
	}
	if victim == -1 {
		return
	}
	m.credits[winner] += credit
	m.credits[victim] -= credit
	m.queues[winner].SetCapacity(m.queues[winner].Capacity() + credit)
	m.queues[victim].SetCapacity(m.queues[victim].Capacity() - credit)
}

// Snapshot returns per-queue state in creation order (see QueueAt).
func (m *Manager) Snapshot() []QueueSnapshot {
	out := make([]QueueSnapshot, 0, len(m.queues))
	for i, q := range m.queues {
		lp, rp := q.Pointers()
		lc, rc := q.PartitionCapacities()
		out = append(out, QueueSnapshot{
			ID:              q.id,
			Capacity:        q.Capacity(),
			AppliedCapacity: q.AppliedCapacity(),
			Used:            q.Used(),
			Items:           q.Items(),
			Credits:         m.credits[i],
			Split:           q.Split(),
			Ratio:           q.Ratio(),
			LeftPointer:     lp,
			RightPointer:    rp,
			LeftCapacity:    lc,
			RightCapacity:   rc,
			Stats:           q.Stats(),
		})
	}
	return out
}

// TotalStats aggregates request/hit counters across all queues.
func (m *Manager) TotalStats() QueueStats {
	var t QueueStats
	for _, q := range m.queues {
		s := q.Stats()
		t.Requests += s.Requests
		t.Hits += s.Hits
		t.ShadowHits += s.ShadowHits
		t.CliffShadowHits += s.CliffShadowHits
		t.Evictions += s.Evictions
		t.Resizes += s.Resizes
	}
	return t
}

// HitRate returns the overall hit rate across all managed queues.
func (m *Manager) HitRate() float64 {
	s := m.TotalStats()
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// CapacitySum returns the sum of queue capacities; hill climbing conserves
// it (within one credit of the starting total). Exposed for invariant tests.
func (m *Manager) CapacitySum() int64 {
	var sum int64
	for _, q := range m.queues {
		sum += q.Capacity()
	}
	return sum
}

// Resize retargets the manager at totalBytes and, on a shrink, claws the
// excess capacity back from the largest queues (never below the MinQueueBytes
// floor), applying each cut immediately and returning the evicted victims.
// On growth the extra budget is left unassigned; it reaches the queues
// through the store's grant-on-demand grow path, exactly like boot-time warmup.
// Hill climbing keeps conserving whatever CapacitySum the cuts leave behind.
func (m *Manager) Resize(totalBytes int64) []cache.Victim {
	if totalBytes <= 0 {
		return nil
	}
	var all []cache.Victim
	for {
		excess := m.CapacitySum() - totalBytes
		if excess <= 0 {
			break
		}
		victim := -1
		var most int64
		for j, q := range m.queues {
			if room := q.Capacity() - m.cfg.MinQueueBytes; room > 0 && (victim == -1 || room > most) {
				victim = j
				most = room
			}
		}
		if victim == -1 {
			break // every queue is at the floor; CapacitySum may exceed tiny budgets
		}
		cut := excess
		if cut > most {
			cut = most
		}
		q := m.queues[victim]
		q.SetCapacity(q.Capacity() - cut)
		all = append(all, q.ForceApplyResize()...)
	}
	return all
}
