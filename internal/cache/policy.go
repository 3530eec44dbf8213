package cache

// PolicyKind names an eviction policy. LRU is the only one: the repository
// benchmark still selects it by name.
type PolicyKind int

// PolicyLRU is plain least-recently-used eviction (memcached's default).
const PolicyLRU PolicyKind = 0

// NewPolicy returns an LRU queue of the given capacity. It exists for the
// repository benchmark, which constructs its queue through it.
func NewPolicy(_ PolicyKind, capacity int64) *LRU { return NewLRU(capacity) }
