package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShadowPushHit(t *testing.T) {
	s := NewShadow(3)
	s.Push("a", 1)
	s.Push("b", 1)
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("shadow should remember pushed keys")
	}
	if !s.Hit("a") {
		t.Fatalf("Hit(a) = false, want true")
	}
	// A hit removes the key (it re-enters the physical queue).
	if s.Contains("a") {
		t.Fatalf("a should be removed from the shadow after a hit")
	}
	if s.Hit("zzz") {
		t.Fatalf("Hit on unknown key should be false")
	}
}

func TestShadowOverflowCascades(t *testing.T) {
	s := NewShadow(2)
	s.Push("a", 1)
	s.Push("b", 1)
	victims := s.Push("c", 1)
	if len(victims) != 1 || victims[0].Key != "a" {
		t.Fatalf("overflow victims = %v, want [a]", victims)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestShadowResize(t *testing.T) {
	s := NewShadow(4)
	for i := 0; i < 4; i++ {
		s.Push(fmt.Sprintf("k%d", i), 1)
	}
	victims := s.Resize(2)
	if len(victims) != 2 {
		t.Fatalf("Resize victims = %d, want 2", len(victims))
	}
	if s.Len() != 2 || s.Used() != 2 {
		t.Fatalf("Len=%d Used=%d after Resize(2), want 2,2", s.Len(), s.Used())
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	l := NewLFU(3)
	l.Access("a", 1)
	l.Access("b", 1)
	l.Access("c", 1)
	// a and b get extra hits; c stays at frequency 1.
	l.Access("a", 1)
	l.Access("b", 1)
	l.Access("a", 1)
	_, victims := l.Access("d", 1)
	if len(victims) != 1 || victims[0].Key != "c" {
		t.Fatalf("victims = %v, want [c]", victims)
	}
	if l.Frequency("a") != 3 {
		t.Fatalf("Frequency(a) = %d, want 3", l.Frequency("a"))
	}
}

func TestLFUTieBrokenByRecency(t *testing.T) {
	l := NewLFU(2)
	l.Access("a", 1)
	l.Access("b", 1)
	// Both have frequency 1; a is older, so a should be evicted.
	_, victims := l.Access("c", 1)
	if len(victims) != 1 || victims[0].Key != "a" {
		t.Fatalf("victims = %v, want [a]", victims)
	}
}

func TestLFUCostAccountingAndResize(t *testing.T) {
	l := NewLFU(100)
	l.Access("a", 60)
	l.Access("b", 30)
	if l.Used() != 90 {
		t.Fatalf("Used = %d, want 90", l.Used())
	}
	victims := l.Resize(50)
	if len(victims) == 0 {
		t.Fatalf("Resize below usage must evict")
	}
	if l.Used() > 50 {
		t.Fatalf("Used = %d exceeds new capacity 50", l.Used())
	}
	if !l.Remove("b") && !l.Remove("a") {
		t.Fatalf("Remove of a resident key should succeed")
	}
}

func TestLFUOversizedRejected(t *testing.T) {
	l := NewLFU(10)
	_, victims := l.Access("huge", 50)
	if len(victims) != 1 || victims[0].Key != "huge" {
		t.Fatalf("oversized entry should bounce, got %v", victims)
	}
	if l.Len() != 0 {
		t.Fatalf("oversized entry must not be admitted")
	}
}

func TestFacebookFirstInsertAtMidpoint(t *testing.T) {
	f := NewFacebookLRU(6)
	// Fill with items that each get a second hit so they live in the top
	// half.
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("hot%d", i)
		f.Access(k, 1)
		f.Access(k, 1)
	}
	// A brand-new key must not land at the very top.
	f.Access("new", 1)
	keys := f.Keys()
	if keys[0] == "new" {
		t.Fatalf("first-time insert landed at the top of the queue: %v", keys)
	}
	// A second access promotes it to the top.
	f.Access("new", 1)
	if f.Keys()[0] != "new" {
		t.Fatalf("re-referenced key should be promoted to the top, got %v", f.Keys())
	}
}

func TestFacebookScanResistance(t *testing.T) {
	// A scan of one-time keys should not evict the re-referenced working
	// set as aggressively as plain LRU does.
	const capacity = 64
	lru := NewLRU(capacity)
	fb := NewFacebookLRU(capacity)
	hot := make([]string, 32)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
	}
	warm := func(p Policy) {
		for round := 0; round < 4; round++ {
			for _, k := range hot {
				p.Access(k, 1)
			}
		}
	}
	warm(lru)
	warm(fb)
	// One pass of scan traffic mixed with occasional hot hits.
	rng := rand.New(rand.NewSource(3))
	lruHits, fbHits := 0, 0
	for i := 0; i < 2000; i++ {
		if rng.Intn(4) == 0 {
			k := hot[rng.Intn(len(hot))]
			if h, _ := lru.Access(k, 1); h {
				lruHits++
			}
			if h, _ := fb.Access(k, 1); h {
				fbHits++
			}
		} else {
			k := fmt.Sprintf("scan%d", i)
			lru.Access(k, 1)
			fb.Access(k, 1)
		}
	}
	if fbHits < lruHits {
		t.Fatalf("mid-point insertion should be at least as scan-resistant as LRU: fb=%d lru=%d", fbHits, lruHits)
	}
}

func TestFacebookInvariantHalves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewFacebookLRU(int64(10 + rng.Intn(100)))
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(50))
			switch rng.Intn(5) {
			case 0:
				q.Remove(key)
			case 1:
				q.Resize(int64(5 + rng.Intn(100)))
			default:
				q.Access(key, int64(1+rng.Intn(4)))
			}
			if q.Used() > q.Capacity() {
				return false
			}
			if q.BottomHalfLen() < 0 || q.BottomHalfLen() > q.Len() {
				return false
			}
			// The marker stays within one element of the true middle.
			diff := q.BottomHalfLen() - q.Len()/2
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestARCBasicAdaptation(t *testing.T) {
	a := NewARC(100)
	// Recency-heavy phase.
	for i := 0; i < 1000; i++ {
		a.Access(fmt.Sprintf("r%d", i%150), 1)
	}
	if a.Used() > a.Capacity() {
		t.Fatalf("ARC over capacity: used=%d cap=%d", a.Used(), a.Capacity())
	}
	// Frequency-heavy phase: a small set of keys hit repeatedly must end up
	// mostly resident.
	hits := 0
	for i := 0; i < 2000; i++ {
		if h, _ := a.Access(fmt.Sprintf("f%d", i%20), 1); h {
			hits++
		}
	}
	if hits < 1500 {
		t.Fatalf("ARC should retain a small frequently-hit working set, got %d/2000 hits", hits)
	}
}

func TestARCGhostHitsAdjustTarget(t *testing.T) {
	a := NewARC(10)
	// Insert 20 distinct keys: the first ten fall out of t1 into b1.
	for i := 0; i < 20; i++ {
		a.Access(fmt.Sprintf("k%d", i), 1)
	}
	before := a.Target()
	// Re-access an early key: it should be a ghost hit in b1 and increase p.
	hit, _ := a.Access("k0", 1)
	if hit {
		t.Fatalf("k0 should have been evicted and be a ghost, not a hit")
	}
	if a.Target() < before {
		t.Fatalf("ghost hit in b1 should not shrink the recency target (before=%d after=%d)", before, a.Target())
	}
}

func TestARCNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(10 + rng.Intn(200))
		a := NewARC(capacity)
		for i := 0; i < 600; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(100))
			a.Access(key, int64(1+rng.Intn(3)))
			if a.Used() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestARCRemoveAndResize(t *testing.T) {
	a := NewARC(50)
	for i := 0; i < 30; i++ {
		a.Access(fmt.Sprintf("k%d", i), 1)
	}
	if !a.Remove("k29") {
		t.Fatalf("Remove of resident key should succeed")
	}
	if a.Remove("nonexistent") {
		t.Fatalf("Remove of unknown key should fail")
	}
	a.Resize(5)
	if a.Used() > 5 {
		t.Fatalf("Used = %d after Resize(5)", a.Used())
	}
}

func TestPolicyKindRoundTrip(t *testing.T) {
	kinds := []PolicyKind{PolicyLRU, PolicyLFU, PolicyARC, PolicyFacebook}
	for _, k := range kinds {
		parsed, ok := ParsePolicyKind(k.String())
		if !ok || parsed != k {
			t.Fatalf("ParsePolicyKind(%q) = %v,%v", k.String(), parsed, ok)
		}
		p := NewPolicy(k, 10)
		if p.Capacity() != 10 {
			t.Fatalf("NewPolicy(%v) capacity = %d", k, p.Capacity())
		}
	}
	if _, ok := ParsePolicyKind("bogus"); ok {
		t.Fatalf("unknown policy name should not parse")
	}
	if PolicyKind(99).String() != "unknown" {
		t.Fatalf("unexpected String for invalid kind")
	}
}

// TestPoliciesRespectCapacityProperty runs the same random workload through
// every policy and asserts the shared capacity invariant.
func TestPoliciesRespectCapacityProperty(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyLRU, PolicyLFU, PolicyARC, PolicyFacebook} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			p := NewPolicy(kind, 128)
			for i := 0; i < 5000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(400))
				p.Access(key, int64(1+rng.Intn(5)))
				if p.Used() > p.Capacity() {
					t.Fatalf("%v exceeded capacity at iteration %d: used=%d", kind, i, p.Used())
				}
			}
		})
	}
}

func BenchmarkShadowPushHit(b *testing.B) {
	s := NewShadow(1 << 14)
	keys := make([]string, 1<<12)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		if !s.Hit(k) {
			s.Push(k, 1)
		}
	}
}

func BenchmarkARCAccess(b *testing.B) {
	a := NewARC(1 << 14)
	keys := make([]string, 1<<13)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(keys[i&(len(keys)-1)], 1)
	}
}

func BenchmarkFacebookLRUAccess(b *testing.B) {
	f := NewFacebookLRU(1 << 14)
	keys := make([]string, 1<<13)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Access(keys[i&(len(keys)-1)], 1)
	}
}
