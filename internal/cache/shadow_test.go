package cache

import (
	"fmt"
	"testing"
)

func TestShadowPushHit(t *testing.T) {
	s := NewShadow(3)
	s.Push("a", 1)
	s.Push("b", 1)
	if !s.Hit("a") || !s.Hit("b") {
		t.Fatalf("shadow should remember pushed keys")
	}
	// A hit removes the key (it re-enters the physical queue).
	if s.Hit("a") {
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
	if s.Hit("a") || !s.Hit("b") || !s.Hit("c") {
		t.Fatalf("shadow should remember b and c, not a")
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
