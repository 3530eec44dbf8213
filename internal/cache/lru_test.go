package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLRUBasicHitMiss(t *testing.T) {
	l := NewLRU(3)
	if hit, _ := l.Access("a", 1); hit {
		t.Fatalf("first access to a should miss")
	}
	if hit, _ := l.Access("a", 1); !hit {
		t.Fatalf("second access to a should hit")
	}
	if l.Len() != 1 || l.Used() != 1 {
		t.Fatalf("Len=%d Used=%d, want 1,1", l.Len(), l.Used())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU(3)
	l.Add("a", 1)
	l.Add("b", 1)
	l.Add("c", 1)
	// Touch a so b is now the oldest.
	l.Get("a")
	victims := l.Add("d", 1)
	if len(victims) != 1 || victims[0].Key != "b" {
		t.Fatalf("victims = %v, want [b]", victims)
	}
	want := []string{"d", "a", "c"}
	if got := l.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
}

func TestLRUCostAccounting(t *testing.T) {
	l := NewLRU(100)
	l.Add("a", 40)
	l.Add("b", 40)
	if l.Used() != 80 {
		t.Fatalf("Used = %d, want 80", l.Used())
	}
	victims := l.Add("c", 40)
	if len(victims) != 1 || victims[0].Key != "a" {
		t.Fatalf("victims = %v, want a evicted", victims)
	}
	if l.Used() != 80 {
		t.Fatalf("Used = %d, want 80 after eviction", l.Used())
	}
	// Updating an existing key's cost adjusts usage.
	l.Add("b", 10)
	if l.Used() != 50 {
		t.Fatalf("Used = %d, want 50 after shrinking b", l.Used())
	}
}

func TestLRUOversizedEntryRejected(t *testing.T) {
	l := NewLRU(10)
	l.Add("small", 5)
	victims := l.Add("huge", 100)
	if len(victims) != 1 || victims[0].Key != "huge" {
		t.Fatalf("victims = %v, want the oversized entry itself", victims)
	}
	if !l.Contains("small") {
		t.Fatalf("existing entry should not be disturbed by an oversized insert")
	}
	if l.Contains("huge") {
		t.Fatalf("oversized entry must not be admitted")
	}
}

func TestLRUResize(t *testing.T) {
	l := NewLRU(5)
	for i := 0; i < 5; i++ {
		l.Add(fmt.Sprintf("k%d", i), 1)
	}
	victims := l.Resize(2)
	if len(victims) != 3 {
		t.Fatalf("Resize evicted %d entries, want 3", len(victims))
	}
	// Oldest first: k0, k1, k2.
	for i, v := range victims {
		if want := fmt.Sprintf("k%d", i); v.Key != want {
			t.Fatalf("victim %d = %q, want %q", i, v.Key, want)
		}
	}
	if l.Len() != 2 || l.Used() != 2 {
		t.Fatalf("after resize Len=%d Used=%d, want 2,2", l.Len(), l.Used())
	}
	// Growing back evicts nothing.
	if victims := l.Resize(10); len(victims) != 0 {
		t.Fatalf("growing should evict nothing, got %v", victims)
	}
}

func TestLRURemove(t *testing.T) {
	l := NewLRU(4)
	l.Add("a", 2)
	l.Add("b", 2)
	if !l.Remove("a") {
		t.Fatalf("Remove(a) = false, want true")
	}
	if l.Remove("a") {
		t.Fatalf("Remove(a) twice should report false")
	}
	if l.Used() != 2 || l.Len() != 1 {
		t.Fatalf("Used=%d Len=%d after remove, want 2,1", l.Used(), l.Len())
	}
}

// TestLRUStackProperty verifies the LRU inclusion (stack) property: the
// contents of a smaller LRU are always a subset of a larger LRU processing
// the same request stream. This property underpins stack-distance analysis
// (§2.1) and the segment-stacking construction used by the core package.
func TestLRUStackProperty(t *testing.T) {
	small := NewLRU(16)
	big := NewLRU(64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(200))
		small.Access(key, 1)
		big.Access(key, 1)
	}
	for _, k := range small.Keys() {
		if !big.Contains(k) {
			t.Fatalf("inclusion violated: %q in small LRU but not in big LRU", k)
		}
	}
}

// referenceLRU is a deliberately simple O(n) model used to cross-check the
// linked-list implementation under random workloads.
type referenceLRU struct {
	capacity int64
	keys     []string // most recent first
	costs    map[string]int64
}

func newReferenceLRU(capacity int64) *referenceLRU {
	return &referenceLRU{capacity: capacity, costs: make(map[string]int64)}
}

func (r *referenceLRU) used() int64 {
	var u int64
	for _, k := range r.keys {
		u += r.costs[k]
	}
	return u
}

func (r *referenceLRU) access(key string, cost int64) bool {
	for i, k := range r.keys {
		if k == key {
			r.keys = append(r.keys[:i], r.keys[i+1:]...)
			r.keys = append([]string{key}, r.keys...)
			return true
		}
	}
	if cost > r.capacity {
		return false
	}
	r.keys = append([]string{key}, r.keys...)
	r.costs[key] = cost
	for r.used() > r.capacity {
		last := r.keys[len(r.keys)-1]
		r.keys = r.keys[:len(r.keys)-1]
		delete(r.costs, last)
	}
	return false
}

func TestLRUMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewLRU(50)
	ref := newReferenceLRU(50)
	for i := 0; i < 30000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(80))
		cost := int64(1 + rng.Intn(10))
		hit, _ := l.Access(key, cost)
		// Reference treats repeated access with a different cost the same
		// way only if we keep cost stable per key; derive cost from key.
		_ = cost
		refCost := int64(1 + (len(key) % 10))
		refHit := ref.access(key, refCost)
		// Re-run the real LRU decision with the same stable cost for parity.
		_ = hit
		_ = refHit
	}
	// Run a second pass where both use identical stable costs and compare
	// hit/miss decisions exactly.
	l = NewLRU(50)
	ref = newReferenceLRU(50)
	rng = rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(80))
		cost := int64(1 + (rng.Intn(4)))
		_ = cost
		stable := int64(1 + (len(key) % 4))
		hit, _ := l.Access(key, stable)
		refHit := ref.access(key, stable)
		if hit != refHit {
			t.Fatalf("iteration %d key %s: hit=%v ref=%v", i, key, hit, refHit)
		}
		if l.Used() != ref.used() {
			t.Fatalf("iteration %d: used %d != ref %d", i, l.Used(), ref.used())
		}
	}
}

// TestLRUInvariantNeverOverCapacity is a property-based test: no sequence of
// accesses may leave the queue above its capacity.
func TestLRUInvariantNeverOverCapacity(t *testing.T) {
	f := func(seed int64, capSeed uint16) bool {
		capacity := int64(capSeed%500) + 1
		l := NewLRU(capacity)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(100))
			cost := int64(1 + rng.Intn(20))
			l.Access(key, cost)
			if l.Used() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUInvariantLenMatchesKeys checks internal bookkeeping consistency
// under random operations including removes and resizes.
func TestLRUInvariantLenMatchesKeys(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLRU(int64(1 + rng.Intn(200)))
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(60))
			switch rng.Intn(4) {
			case 0:
				l.Remove(key)
			case 1:
				l.Resize(int64(1 + rng.Intn(200)))
			default:
				l.Access(key, int64(1+rng.Intn(8)))
			}
			if l.Len() != len(l.Keys()) || l.Len() != len(l.items) {
				return false
			}
			var sum int64
			for n := l.ll.Front(); n != nil; n = l.ll.Next(n) {
				if l.items[n.Key] != n {
					return false
				}
				sum += int64(n.Cost)
			}
			if sum != l.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPoliciesRespectCapacityProperty drives the queue NewPolicy builds (the
// repository benchmark's constructor) with a random workload and asserts the
// capacity invariant.
func TestPoliciesRespectCapacityProperty(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		p := NewPolicy(PolicyLRU, 128)
		for i := 0; i < 5000; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(400))
			p.Access(key, int64(1+rng.Intn(5)))
			if p.Used() > p.Capacity() {
				t.Fatalf("exceeded capacity at iteration %d: used=%d", i, p.Used())
			}
		}
	})
}

func BenchmarkLRUAccessHit(b *testing.B) {
	l := NewLRU(1 << 16)
	keys := make([]string, 1<<12)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		l.Add(keys[i], 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Access(keys[i&(len(keys)-1)], 1)
	}
}

func BenchmarkLRUAccessMiss(b *testing.B) {
	l := NewLRU(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Access(fmt.Sprintf("key-%d", i), 1)
	}
}
