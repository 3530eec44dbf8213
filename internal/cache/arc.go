package cache

// ARC is the Adaptive Replacement Cache of Megiddo and Modha (FAST '03),
// evaluated in §5.5 of the paper as a baseline that splits the cache between
// a recency list and a frequency list and uses ghost (shadow) queues to tune
// the split. The paper found that ARC provided no improvement on the
// Memcachier traces because items ranked high by LFU are also ranked high by
// LRU there; the simulator reproduces that comparison.
//
// The implementation follows the original paper's pseudo-code with the usual
// generalization from item counts to arbitrary per-entry costs: the adaptive
// target p and all list sizes are tracked in cost units.
type ARC struct {
	capacity int64
	p        int64 // adaptive target size for t1, in cost units

	t1 *LRU // recent entries seen exactly once (resident)
	t2 *LRU // entries seen at least twice (resident)
	b1 *LRU // ghost entries recently evicted from t1
	b2 *LRU // ghost entries recently evicted from t2
}

// NewARC returns an empty ARC with the given capacity in cost units.
func NewARC(capacity int64) *ARC {
	if capacity < 0 {
		capacity = 0
	}
	return &ARC{
		capacity: capacity,
		t1:       NewLRU(capacity),
		t2:       NewLRU(capacity),
		b1:       NewLRU(capacity),
		b2:       NewLRU(capacity),
	}
}

// Access implements Policy.
func (a *ARC) Access(key string, cost int64) (bool, []Victim) {
	if cost > a.capacity {
		return false, []Victim{{Key: key, Cost: cost}}
	}

	// Case I: hit in t1 or t2 -> move to MRU of t2.
	if c, ok := a.t1.Cost(key); ok {
		a.t1.Remove(key)
		a.t2.Add(key, c)
		return true, nil
	}
	if a.t2.Get(key) {
		return true, nil
	}

	var victims []Victim

	// Case II: ghost hit in b1 -> favor recency, grow p.
	if a.b1.Contains(key) {
		delta := int64(1)
		if b1, b2 := a.b1.Used(), a.b2.Used(); b1 > 0 && b2 > b1 {
			delta = b2 / b1
		}
		a.p = min64(a.p+delta*cost, a.capacity)
		victims = a.replace(key, cost, victims)
		a.b1.Remove(key)
		a.t2.Add(key, cost)
		return false, a.trim(victims)
	}

	// Case III: ghost hit in b2 -> favor frequency, shrink p.
	if a.b2.Contains(key) {
		delta := int64(1)
		if b1, b2 := a.b1.Used(), a.b2.Used(); b2 > 0 && b1 > b2 {
			delta = b1 / b2
		}
		a.p = max64(a.p-delta*cost, 0)
		victims = a.replace(key, cost, victims)
		a.b2.Remove(key)
		a.t2.Add(key, cost)
		return false, a.trim(victims)
	}

	// Case IV: complete miss.
	l1 := a.t1.Used() + a.b1.Used()
	l2 := a.t2.Used() + a.b2.Used()
	if l1 >= a.capacity {
		if a.t1.Used() < a.capacity {
			// Discard the LRU ghost in b1 and make room.
			a.b1.RemoveOldest()
			victims = a.replace(key, cost, victims)
		} else {
			// b1 is empty; evict directly from t1.
			if v, ok := a.t1.RemoveOldest(); ok {
				victims = append(victims, v)
			}
		}
	} else if l1+l2 >= a.capacity {
		if l1+l2 >= 2*a.capacity {
			a.b2.RemoveOldest()
		}
		victims = a.replace(key, cost, victims)
	}
	a.t1.Add(key, cost)
	return false, a.trim(victims)
}

// trim evicts from the resident lists until they respect capacity. With
// item-cost-1 workloads the standard ARC invariants already guarantee this;
// the loop matters only for variable-cost entries.
func (a *ARC) trim(victims []Victim) []Victim {
	for a.t1.Used()+a.t2.Used() > a.capacity {
		before := len(victims)
		victims = a.replace("", 0, victims)
		if len(victims) == before {
			break // nothing left to evict
		}
	}
	return victims
}

// replace evicts one entry from t1 or t2 into the corresponding ghost list,
// following the REPLACE subroutine of the ARC paper.
func (a *ARC) replace(key string, cost int64, victims []Victim) []Victim {
	inB2 := key != "" && a.b2.Contains(key)
	if a.t1.Len() > 0 && (a.t1.Used() > a.p || (inB2 && a.t1.Used() == a.p)) {
		if v, ok := a.t1.RemoveOldest(); ok {
			a.b1.Add(v.Key, v.Cost)
			victims = append(victims, v)
		}
		return victims
	}
	if v, ok := a.t2.RemoveOldest(); ok {
		a.b2.Add(v.Key, v.Cost)
		victims = append(victims, v)
		return victims
	}
	// t2 empty: fall back to t1.
	if v, ok := a.t1.RemoveOldest(); ok {
		a.b1.Add(v.Key, v.Cost)
		victims = append(victims, v)
	}
	return victims
}

// Contains implements Policy. Only resident entries (t1/t2) count; ghost
// entries do not.
func (a *ARC) Contains(key string) bool {
	return a.t1.Contains(key) || a.t2.Contains(key)
}

// Remove implements Policy.
func (a *ARC) Remove(key string) bool {
	removed := a.t1.Remove(key) || a.t2.Remove(key)
	a.b1.Remove(key)
	a.b2.Remove(key)
	return removed
}

// Resize implements Policy.
func (a *ARC) Resize(capacity int64) []Victim {
	if capacity < 0 {
		capacity = 0
	}
	a.capacity = capacity
	if a.p > capacity {
		a.p = capacity
	}
	a.b1.Resize(capacity)
	a.b2.Resize(capacity)
	var victims []Victim
	for a.t1.Used()+a.t2.Used() > capacity && a.t1.Len()+a.t2.Len() > 0 {
		victims = a.replace("", 0, victims)
	}
	return victims
}

// Capacity implements Policy.
func (a *ARC) Capacity() int64 { return a.capacity }

// Used implements Policy. Only resident entries (t1+t2) count; ghost lists
// store keys only.
func (a *ARC) Used() int64 { return a.t1.Used() + a.t2.Used() }

// Len implements Policy.
func (a *ARC) Len() int { return a.t1.Len() + a.t2.Len() }

// Target returns the current adaptive target size for the recency list, in
// cost units. Intended for tests and diagnostics.
func (a *ARC) Target() int64 { return a.p }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
