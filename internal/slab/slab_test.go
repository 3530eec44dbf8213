package slab

import (
	"testing"
	"testing/quick"
)

func TestNewGeometryDefaults(t *testing.T) {
	g := DefaultGeometry()
	if g.NumClasses() != 15 {
		t.Fatalf("default geometry has %d classes, want 15 (64B..1MiB powers of two)", g.NumClasses())
	}
	if g.ChunkSize(0) != 64 {
		t.Fatalf("smallest chunk = %d, want 64", g.ChunkSize(0))
	}
	if g.ChunkSize(g.NumClasses()-1) != DefaultPageSize {
		t.Fatalf("largest chunk = %d, want %d", g.ChunkSize(g.NumClasses()-1), DefaultPageSize)
	}
}

func TestNewGeometryValidation(t *testing.T) {
	cases := []GeometryConfig{
		{MinChunk: -1},
		{MinChunk: 100, MaxChunk: 50},
		{GrowthFactor: 0.5},
		{GrowthFactor: 1.0},
		{MinChunk: 64, MaxChunk: 1 << 20, PageSize: 1024},
	}
	for i, cfg := range cases {
		if _, err := NewGeometry(cfg); err == nil {
			t.Errorf("case %d: NewGeometry(%+v) should fail", i, cfg)
		}
	}
}

func TestGeometryNonPowerOfTwoGrowth(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{MinChunk: 96, MaxChunk: 8192, GrowthFactor: 1.25, PageSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk sizes must be strictly increasing and end at MaxChunk.
	for i := 1; i < g.NumClasses(); i++ {
		if g.ChunkSizes[i] <= g.ChunkSizes[i-1] {
			t.Fatalf("chunk sizes not strictly increasing at %d: %v", i, g.ChunkSizes)
		}
	}
	if g.ChunkSizes[g.NumClasses()-1] != 8192 {
		t.Fatalf("last chunk = %d, want 8192", g.ChunkSizes[g.NumClasses()-1])
	}
}

func TestClassFor(t *testing.T) {
	g := DefaultGeometry()
	cases := []struct {
		size  int64
		class int
		ok    bool
	}{
		{1, 0, true},
		{64, 0, true},
		{65, 1, true},
		{128, 1, true},
		{129, 2, true},
		{1 << 20, 14, true},
		{1<<20 + 1, 0, false},
		{0, 0, true},
	}
	for _, c := range cases {
		class, ok := g.ClassFor(c.size)
		if class != c.class || ok != c.ok {
			t.Errorf("ClassFor(%d) = %d,%v want %d,%v", c.size, class, ok, c.class, c.ok)
		}
	}
}

// TestClassForProperty: every admissible size maps to a class whose chunk is
// at least the size, and the previous class (if any) is strictly smaller.
func TestClassForProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint32) bool {
		size := int64(raw%(1<<20)) + 1
		class, ok := g.ClassFor(size)
		if !ok {
			return false
		}
		if g.ChunkSize(class) < size {
			return false
		}
		if class > 0 && g.ChunkSize(class-1) >= size {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChunksPerPage(t *testing.T) {
	g := DefaultGeometry()
	if got := g.ChunksPerPage(0); got != (1<<20)/64 {
		t.Fatalf("ChunksPerPage(0) = %d, want %d", got, (1<<20)/64)
	}
	if got := g.ChunksPerPage(g.NumClasses() - 1); got != 1 {
		t.Fatalf("ChunksPerPage(last) = %d, want 1", got)
	}
}
