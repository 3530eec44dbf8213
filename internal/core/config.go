// Package core implements Cliffhanger, the paper's contribution: an
// incremental, local resource-allocation algorithm for web memory caches
// that (a) hill-climbs the hit-rate curves of a set of eviction queues using
// shadow queues (Algorithm 1) and (b) scales performance cliffs by splitting
// each queue in two and walking a pair of pointers to the ends of the convex
// region of the curve (Algorithms 2 and 3), combining both as described in
// §4.3.
//
// The package is written against abstract eviction queues that hold keys and
// per-key costs; values are owned by the caller (internal/store keeps them in
// a hash table and drops whatever the queues evict; internal/sim replays
// traces through that same store). One Manager instance governs the
// set of queues sharing a memory budget — all slab classes of an application,
// or all applications on a server — exactly as one Cliffhanger instance runs
// per Memcached server in the paper. A queue no Manager runs (NewLRUQueue)
// runs neither algorithm and is memcached's LRU: the store's baselines are
// that queue, so every allocation mode shares one queue type.
//
// A Queue is Figure 5 as drawn: per partition one chain (front, tail window,
// cliff shadow, hill shadow, forgotten) that a key ages down, and one index
// over both chains. The segments are cache.List recency lists with a capacity
// each; a key's node stays the same from admission to removal and is tagged
// with the segment it is linked in, so a lookup is one map probe, a caller
// that remembers the node (the store's item record) needs none, and nothing
// outside the queue ever sees a node die at a segment boundary.
//
// None of the types in this package are safe for concurrent use; callers
// serialize access (the store shards by application and locks per shard).
package core

// Config holds Cliffhanger's tuning parameters. The zero value is not
// usable; use DefaultConfig as a starting point. Defaults follow §5.1-§5.3
// of the paper.
type Config struct {
	// CreditBytes is the amount of memory shifted between queues per
	// shadow-queue hit and the step by which cliff pointers move. The
	// paper found 1-4 KiB works best (§5.3); default 4096.
	CreditBytes int64
	// ShadowBytes is the capacity of the hill-climbing shadow queue in
	// bytes of represented requests (§5.7: 1 MiB, e.g. 16384 keys for a
	// 64-byte class). Default 1 MiB.
	ShadowBytes int64
	// CliffShadowItems is the length, in items, of each cliff-scaling
	// shadow queue ("right of pointer" tracker). Default 128 (§5.1).
	CliffShadowItems int64
	// TailWindowItems is the length, in items, of the physical-queue tail
	// window used to detect hits "left of the pointer". Default 128.
	TailWindowItems int64
	// CliffMinItems is the minimum number of items a queue must be able to
	// hold before cliff scaling activates (§5.1: over 1000 items).
	CliffMinItems int64
	// ResizeOnMissOnly applies pending partition resizes only when a miss
	// occurs, avoiding thrashing (§5.1). Disabling it is an ablation.
	ResizeOnMissOnly bool
	// EnableHillClimbing enables Algorithm 1. Disabling it leaves queue
	// capacities fixed (used for the cliff-scaling-only column of Table 4).
	EnableHillClimbing bool
	// EnableCliffScaling enables Algorithms 2 and 3. Disabling it keeps
	// each queue as a single LRU with a shadow queue (the hill-climbing-
	// only column of Table 4).
	EnableCliffScaling bool
	// MinQueueBytes is the floor below which hill climbing will not shrink
	// a queue. Zero defaults to 2*CreditBytes.
	MinQueueBytes int64
	// Seed seeds the manager's random source (victim selection).
	Seed int64
}

// DefaultConfig returns the configuration used in the paper's evaluation:
// 4 KiB credits, 1 MiB hill-climbing shadow queues, 128-item cliff shadow
// queues, cliff scaling enabled for queues above 1000 items, resizes applied
// on misses. Requests are split between a queue's partitions by key hash, so
// a key always lands in the same one (mirroring Talus), and the queue that
// pays for a credit is picked at random (Algorithm 1).
func DefaultConfig() Config {
	return Config{
		CreditBytes:        4096,
		ShadowBytes:        1 << 20,
		CliffShadowItems:   128,
		TailWindowItems:    128,
		CliffMinItems:      1000,
		ResizeOnMissOnly:   true,
		EnableHillClimbing: true,
		EnableCliffScaling: true,
	}
}

// withDefaults fills in zero fields with their defaults and returns the
// normalized config.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.CreditBytes <= 0 {
		c.CreditBytes = d.CreditBytes
	}
	if c.ShadowBytes <= 0 {
		c.ShadowBytes = d.ShadowBytes
	}
	if c.CliffShadowItems <= 0 {
		c.CliffShadowItems = d.CliffShadowItems
	}
	if c.TailWindowItems <= 0 {
		c.TailWindowItems = d.TailWindowItems
	}
	if c.CliffMinItems <= 0 {
		c.CliffMinItems = d.CliffMinItems
	}
	if c.MinQueueBytes <= 0 {
		c.MinQueueBytes = 2 * c.CreditBytes
	}
	return c
}

// HillClimbingOnly returns a copy of the config with cliff scaling disabled.
func (c Config) HillClimbingOnly() Config {
	c.EnableCliffScaling = false
	c.EnableHillClimbing = true
	return c
}

// CliffScalingOnly returns a copy of the config with hill climbing disabled.
func (c Config) CliffScalingOnly() Config {
	c.EnableCliffScaling = true
	c.EnableHillClimbing = false
	return c
}
