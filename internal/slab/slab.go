// Package slab is Memcached-style slab-class geometry.
//
// Memcached avoids memory fragmentation by carving its memory into 1 MB pages
// and assigning each page to a slab class. A slab class stores items whose
// total size (key + value + item header) falls into a fixed range; chunk
// sizes grow geometrically from a minimum size by a configurable growth
// factor. Each class maintains its own LRU queue. Who gets the pages is not
// decided here: internal/store's classQueues hands them out first come first
// served (the paper's baseline, §2) and its managedPolicy runs Cliffhanger.
package slab

import (
	"fmt"
	"sort"
)

// DefaultPageSize is Memcached's page size.
const DefaultPageSize = 1 << 20 // 1 MiB

// Geometry describes a set of slab classes.
type Geometry struct {
	// ChunkSizes holds the chunk size of each class, ascending.
	ChunkSizes []int64
	// PageSize is the size of a slab page in bytes.
	PageSize int64
}

// GeometryConfig controls NewGeometry.
type GeometryConfig struct {
	// MinChunk is the chunk size of the smallest class (default 64 bytes,
	// mirroring Memcached with a 48-byte minimum item plus overhead).
	MinChunk int64
	// MaxChunk caps the chunk size of the largest class (default 1 MiB).
	MaxChunk int64
	// GrowthFactor is the ratio between consecutive chunk sizes (default
	// 2.0; Memcached's default is 1.25 but the paper's examples use
	// power-of-two ranges: <128B, 128-256B, ...).
	GrowthFactor float64
	// PageSize is the slab page size (default 1 MiB).
	PageSize int64
}

// NewGeometry builds a slab-class geometry from cfg, applying defaults for
// zero fields.
func NewGeometry(cfg GeometryConfig) (*Geometry, error) {
	if cfg.MinChunk == 0 {
		cfg.MinChunk = 64
	}
	if cfg.MaxChunk == 0 {
		cfg.MaxChunk = DefaultPageSize
	}
	if cfg.GrowthFactor == 0 {
		cfg.GrowthFactor = 2.0
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.MinChunk <= 0 || cfg.MaxChunk < cfg.MinChunk {
		return nil, fmt.Errorf("slab: invalid chunk range [%d, %d]", cfg.MinChunk, cfg.MaxChunk)
	}
	if cfg.GrowthFactor <= 1.0 {
		return nil, fmt.Errorf("slab: growth factor %v must be > 1", cfg.GrowthFactor)
	}
	if cfg.PageSize < cfg.MaxChunk {
		return nil, fmt.Errorf("slab: page size %d smaller than max chunk %d", cfg.PageSize, cfg.MaxChunk)
	}
	g := &Geometry{PageSize: cfg.PageSize}
	size := cfg.MinChunk
	for {
		g.ChunkSizes = append(g.ChunkSizes, size)
		if size >= cfg.MaxChunk {
			break
		}
		next := int64(float64(size) * cfg.GrowthFactor)
		if next <= size {
			next = size + 1
		}
		if next > cfg.MaxChunk {
			next = cfg.MaxChunk
		}
		size = next
	}
	return g, nil
}

// DefaultGeometry returns the geometry used throughout the experiments:
// power-of-two chunk sizes from 64 B to 1 MiB with 1 MiB pages, yielding 15
// classes, matching "applications have 15 slab classes at most" (§5.7).
func DefaultGeometry() *Geometry {
	g, err := NewGeometry(GeometryConfig{})
	if err != nil {
		panic("slab: default geometry must be valid: " + err.Error())
	}
	return g
}

// NumClasses reports the number of slab classes.
func (g *Geometry) NumClasses() int { return len(g.ChunkSizes) }

// ClassFor returns the index of the smallest class whose chunk fits an item
// of the given total size. It reports false when the item is larger than the
// largest chunk.
func (g *Geometry) ClassFor(itemSize int64) (int, bool) {
	if itemSize <= 0 {
		return 0, true
	}
	i := sort.Search(len(g.ChunkSizes), func(i int) bool {
		return g.ChunkSizes[i] >= itemSize
	})
	if i == len(g.ChunkSizes) {
		return 0, false
	}
	return i, true
}

// ChunkSize returns the chunk size of class i.
func (g *Geometry) ChunkSize(i int) int64 {
	return g.ChunkSizes[i]
}

// ChunksPerPage returns how many chunks of class i fit in one page.
func (g *Geometry) ChunksPerPage(i int) int64 {
	return g.PageSize / g.ChunkSizes[i]
}
