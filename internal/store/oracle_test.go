package store

import (
	"slices"
	"strconv"

	"cliffhanger/internal/slab"
)

// refCache is the naive reference the differential tests hold a Store to: one
// tenant as one map of records and one slice-backed LRU per queue, with no
// shards, arena, events or bookkeeper. It answers the verbs the way the Store
// must and keeps the Items, UsedBytes, records and counters the Store must
// show. The unmanaged modes are modelled in full: a queue with no room takes
// a whole page of the free reservation, first come first served, evicts its
// least recent entries when it has none left, and a shrink takes pages off
// the largest queue. The managed modes are modelled only while nothing is
// evicted: their queues never fill, which the tests that run them keep to.
//
// The reference stamps what the Store stamps, one per event a request
// buffers (a GET miss, a GET hit outside its window, a touch, a write that
// stores, a removal, an expiry), and keeps the Store's hit window: a GET hit
// on a record promoted fewer than its queue's length of stamps ago neither
// stamps nor promotes. An unmanaged queue is all front segment, so
// that is the Store's window; a managed queue's segments are not modelled,
// and there every hit promotes, which nothing within capacity can tell apart.
type refCache struct {
	geom    *slab.Geometry
	mode    AllocationMode
	now     func() int64
	memory  int64
	free    int64
	flushAt int64
	cas     uint64
	records map[string]*refRecord
	lru     [][]string // per queue, least recently used first
	cap     []int64
	used    []int64
	stamps  uint64
	st      TenantStats
}

type refRecord struct {
	value          []byte
	flags          uint32
	cas            uint64
	expires, setAt int64
	queue          int
	cost           int64
	promoted       uint64 // the stamp of its admission or last promoting hit
}

func newRefCache(cfg TenantConfig, now func() int64) *refCache {
	n := cfg.Geometry.NumClasses()
	if cfg.Mode == AllocGlobalLRU {
		n = 1
	}
	r := &refCache{geom: cfg.Geometry, mode: cfg.Mode, now: now, memory: cfg.MemoryBytes,
		records: map[string]*refRecord{}, lru: make([][]string, n), cap: make([]int64, n), used: make([]int64, n)}
	switch cfg.Mode {
	case AllocDefault:
		r.free = cfg.MemoryBytes
	case AllocGlobalLRU:
		r.cap[0] = cfg.MemoryBytes
	case AllocStatic:
		for c := range r.cap {
			if r.cap[c] = cfg.StaticClassBytes[c]; r.cap[c] <= 0 {
				r.cap[c] = cfg.Geometry.ChunkSize(c)
			}
		}
	}
	return r
}

// unmanaged reports whether the reference models the mode's evictions.
func (r *refCache) unmanaged() bool { return r.mode != AllocCliffhanger && r.mode != AllocMemshare }

// place returns the queue an item of size lands in and what it is charged.
func (r *refCache) place(size int64) (queue int, cost int64, ok bool) {
	class, ok := r.geom.ClassFor(size)
	if r.mode == AllocGlobalLRU {
		return 0, max(size, 1), ok
	}
	return class, r.geom.ChunkSize(class), ok
}

func (r *refCache) deadline(exptime int64) int64 {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return -1
	case exptime <= maxRelativeExpiry:
		return r.now() + exptime
	}
	return exptime
}

// live returns key's record, shedding a dead one as an expiry.
func (r *refCache) live(key string) *refRecord {
	rec := r.records[key]
	if rec == nil {
		return nil
	}
	now := r.now()
	if (rec.expires != 0 && now >= rec.expires) || (r.flushAt != 0 && now >= r.flushAt && rec.setAt < r.flushAt) {
		r.drop(key)
		r.st.Expired++
		r.stamps++
		return nil
	}
	return rec
}

// unlink takes key's entry out of its queue; drop also forgets its record.
func (r *refCache) unlink(key string) {
	rec := r.records[key]
	r.lru[rec.queue] = slices.DeleteFunc(r.lru[rec.queue], func(k string) bool { return k == key })
	r.used[rec.queue] -= rec.cost
}

func (r *refCache) drop(key string) {
	r.unlink(key)
	delete(r.records, key)
}

func (r *refCache) promote(key string) {
	q := r.records[key].queue
	r.lru[q] = append(slices.DeleteFunc(r.lru[q], func(k string) bool { return k == key }), key)
}

// evict drops the least recent entries of queue q until it fits.
func (r *refCache) evict(q int) {
	for r.unmanaged() && r.used[q] > r.cap[q] {
		r.drop(r.lru[q][0])
	}
}

func (r *refCache) GetItemView(_ string, key []byte) (ItemView, bool, error) {
	rec := r.live(string(key))
	r.st.Requests++
	if rec == nil {
		r.st.Misses++
		r.stamps++
		return ItemView{}, false, nil
	}
	r.st.Hits++
	if r.unmanaged() && r.stamps-rec.promoted < uint64(len(r.lru[rec.queue])) {
		r.st.HitsUnpromoted++
	} else {
		r.stamps++
		rec.promoted = r.stamps
		r.promote(string(key))
	}
	return ItemView{Value: slices.Clone(rec.value), Flags: rec.flags, CAS: rec.cas}, true, nil
}

func (r *refCache) Touch(_ string, key []byte, exptime int64) (bool, error) {
	expires := r.deadline(exptime)
	rec := r.live(string(key))
	r.st.Touches++
	r.stamps++
	if rec != nil {
		r.st.TouchHits++
		rec.expires = expires
		r.promote(string(key))
	}
	return rec != nil, nil
}

func (r *refCache) Delete(_, key string) (bool, error) {
	rec := r.live(key)
	if rec != nil {
		r.drop(key)
		r.st.Deletes++
		r.stamps++
	}
	return rec != nil, nil
}

func (r *refCache) FlushAll(_ string, exptime int64) error {
	if at := r.deadline(exptime); at != 0 && at > r.now() {
		r.flushAt = at
		return nil
	}
	r.flushAt = 0
	for key := range r.records {
		r.drop(key)
		r.st.Deletes++
		r.stamps++
	}
	return nil
}

func (r *refCache) ResizeTenant(_ string, newBytes int64) error {
	if r.unmanaged() {
		for r.free += newBytes - r.memory; r.free < 0; {
			largest := 0
			for q := range r.cap {
				if r.cap[q] > r.cap[largest] {
					largest = q
				}
			}
			if r.cap[largest] == 0 {
				break
			}
			take := min(r.geom.PageSize, r.cap[largest])
			r.free += take
			r.cap[largest] -= take
			r.evict(largest)
		}
	}
	r.memory = newBytes
	return nil
}

// write is Store.write over the reference: the same decisions, then the
// record replaces any old one and is admitted to its queue.
func (r *refCache) write(_ string, key string, verb writeVerb, value []byte, flags uint32, exptime int64, arg uint64) (CASResult, uint64, error) {
	rec := r.records[key]
	if verb != verbSet {
		rec = r.live(key)
	}
	head, tail, expires, n := value, []byte(nil), r.deadline(exptime), uint64(0)
	switch {
	case verb == verbSet, verb == verbReplace && rec != nil:
	case verb == verbAdd:
		if rec != nil {
			return CASExists, 0, nil
		}
	case rec == nil:
		return CASNotFound, 0, nil
	case verb == verbCAS:
		if rec.cas != arg {
			return CASExists, 0, nil
		}
	default:
		flags, expires = rec.flags, rec.expires
		switch verb {
		case verbAppend:
			head, tail = rec.value, value
		case verbPrepend:
			tail = rec.value
		default:
			cur, err := strconv.ParseUint(string(rec.value), 10, 64)
			switch {
			case err != nil:
				return CASExists, 0, ErrNotNumeric
			case verb == verbIncr:
				n = cur + arg
			case arg < cur:
				n = cur - arg
			}
			head = strconv.AppendUint(nil, n, 10)
		}
	}
	size := int64(len(key) + len(head) + len(tail))
	q, cost, ok := r.place(size)
	if !ok {
		return CASStored, n, errTooLarge(key, size)
	}
	resident := rec != nil && rec.queue == q && rec.cost == cost
	if rec != nil && !resident {
		r.unlink(key)
	}
	r.cas++
	r.stamps++
	r.records[key] = &refRecord{value: append(slices.Clone(head), tail...), flags: flags, cas: r.cas,
		expires: expires, setAt: r.now(), queue: q, cost: cost, promoted: r.stamps}
	r.st.Sets++
	for r.unmanaged() && r.used[q]+cost > r.cap[q] && r.free >= r.geom.PageSize {
		r.free -= r.geom.PageSize
		r.cap[q] += r.geom.PageSize
	}
	switch {
	case resident:
		r.promote(key)
	case r.unmanaged() && cost > r.cap[q]:
		delete(r.records, key) // it bounces: no queue entry, no record, no error
	default:
		r.lru[q] = append(r.lru[q], key)
		r.used[q] += cost
		r.evict(q)
	}
	return CASStored, n, nil
}

func (r *refCache) Items(string) (int, error) { return len(r.records), nil }

func (r *refCache) UsedBytes(string) (int64, error) {
	var sum int64
	for _, u := range r.used {
		sum += u
	}
	return sum, nil
}

func (r *refCache) Stats(string) (TenantStats, error) { return r.st, nil }

func (r *refCache) Flush() {}

// The verbs over write, as Store's are.

func (r *refCache) SetItemBytes(tenant string, key, value []byte, flags uint32, exptime int64) error {
	_, _, err := r.write(tenant, string(key), verbSet, value, flags, exptime, 0)
	return err
}

func (r *refCache) Add(tenant string, key, value []byte, flags uint32, exptime int64) (bool, error) {
	return r.stored(r.write(tenant, string(key), verbAdd, value, flags, exptime, 0))
}

func (r *refCache) Replace(tenant string, key, value []byte, flags uint32, exptime int64) (bool, error) {
	return r.stored(r.write(tenant, string(key), verbReplace, value, flags, exptime, 0))
}

func (r *refCache) AppendBytes(tenant string, key, suffix []byte) (bool, error) {
	return r.stored(r.write(tenant, string(key), verbAppend, suffix, 0, 0, 0))
}

func (r *refCache) PrependBytes(tenant string, key, prefix []byte) (bool, error) {
	return r.stored(r.write(tenant, string(key), verbPrepend, prefix, 0, 0, 0))
}

func (r *refCache) CompareAndSwap(tenant string, key, value []byte, flags uint32, exptime int64, cas uint64) (CASResult, error) {
	res, _, err := r.write(tenant, string(key), verbCAS, value, flags, exptime, cas)
	if err != nil {
		return CASNotFound, err
	}
	return res, nil
}

func (r *refCache) Incr(tenant string, key []byte, delta uint64) (uint64, bool, error) {
	res, n, err := r.write(tenant, string(key), verbIncr, nil, 0, 0, delta)
	return n, res != CASNotFound, err
}

func (r *refCache) Decr(tenant string, key []byte, delta uint64) (uint64, bool, error) {
	res, n, err := r.write(tenant, string(key), verbDecr, nil, 0, 0, delta)
	return n, res != CASNotFound, err
}

func (r *refCache) stored(res CASResult, _ uint64, err error) (bool, error) {
	return res == CASStored && err == nil, err
}
