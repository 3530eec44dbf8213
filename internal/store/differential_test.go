package store

import (
	"fmt"
	"maps"
	"math/rand"
	"sync/atomic"
	"testing"

	"cliffhanger/internal/slab"
)

// verbCache is one tenant's verbs as a Store serves them, and as the naive
// reference (refCache) models them.
type verbCache interface {
	GetItemView(tenant string, key []byte) (ItemView, bool, error)
	SetItemBytes(tenant string, key, value []byte, flags uint32, exptime int64) error
	Add(tenant string, key, value []byte, flags uint32, exptime int64) (bool, error)
	Replace(tenant string, key, value []byte, flags uint32, exptime int64) (bool, error)
	AppendBytes(tenant string, key, suffix []byte) (bool, error)
	PrependBytes(tenant string, key, prefix []byte) (bool, error)
	CompareAndSwap(tenant string, key, value []byte, flags uint32, exptime int64, cas uint64) (CASResult, error)
	Incr(tenant string, key []byte, delta uint64) (uint64, bool, error)
	Decr(tenant string, key []byte, delta uint64) (uint64, bool, error)
	Touch(tenant string, key []byte, exptime int64) (bool, error)
	Delete(tenant, key string) (bool, error)
	FlushAll(tenant string, exptime int64) error
	ResizeTenant(tenant string, newBytes int64) error
	Stats(tenant string) (TenantStats, error)
	Items(tenant string) (int, error)
	UsedBytes(tenant string) (int64, error)
	Flush()
}

// refRecordView is what a record shows of itself: its value, flags and
// expiry deadline.
type refRecordView struct {
	value          string
	flags          uint32
	expires, setAt int64
}

// recordsOf returns every record c holds for the tenant "app", dead ones that
// nothing has shed yet included, and casOf the CAS token of key's record (0
// if none); neither moves a counter or a recency.
func recordsOf(c verbCache) map[string]refRecordView {
	out := map[string]refRecordView{}
	switch c := c.(type) {
	case *refCache:
		for k, r := range c.records {
			out[k] = refRecordView{string(r.value), r.flags, r.expires, r.setAt}
		}
	case *Store:
		e, _ := c.entry("app")
		for i := range e.shards {
			sh := &e.shards[i]
			sh.mu.Lock()
			for k, it := range sh.items {
				out[k] = refRecordView{string(it.value), it.flags, it.expires, it.setAt}
			}
			sh.mu.Unlock()
		}
	}
	return out
}

func casOf(c verbCache, key string) uint64 {
	switch c := c.(type) {
	case *refCache:
		if r := c.records[key]; r != nil {
			return r.cas
		}
	case *Store:
		e, _ := c.entry("app")
		sh := shardFor(e, key)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if it := sh.items[key]; it != nil {
			return it.cas
		}
	}
	return 0
}

// diffGeometry has 1 KiB pages and five classes (64 B to 1 KiB chunks), so a
// four-page tenant is under eviction pressure from a few dozen keys.
var diffGeometry = func() *slab.Geometry {
	g, err := slab.NewGeometry(slab.GeometryConfig{MinChunk: 64, MaxChunk: 1024, PageSize: 1024})
	if err != nil {
		panic(err)
	}
	return g
}()

// diffRun is one differential setting: the mode, whether the tenant is under
// eviction pressure (four pages over 40 keys; otherwise 1 MiB, or 32 KiB a
// class under AllocStatic, over 24 keys, which nothing is evicted from) and
// whether bookkeeping is synchronous.
type diffRun struct {
	mode           AllocationMode
	pressure, sync bool
}

func (d diffRun) String() string {
	return fmt.Sprintf("%s/pressure=%v/sync=%v", d.mode, d.pressure, d.sync)
}

func (d diffRun) config() TenantConfig {
	cfg := TenantConfig{Name: "app", MemoryBytes: 1 << 20, Geometry: diffGeometry, Mode: d.mode}
	if d.pressure {
		cfg.MemoryBytes = 4 * diffGeometry.PageSize
	}
	if d.mode == AllocStatic {
		cfg.StaticClassBytes = map[int]int64{}
		for c := range diffGeometry.ChunkSizes {
			cfg.StaticClassBytes[c] = 32 << 10
		}
	}
	return cfg
}

// diffValueLens are the value lengths a script picks from: every class of
// diffGeometry, and one beyond the largest chunk.
var diffValueLens = []int{1, 30, 90, 200, 450, 700, 1000, 1100}

// runDifferential decodes script, four bytes an operation, into a sequence of
// verbs, TTLs and clock steps, delayed and immediate flush_all, and (with
// synchronous bookkeeping) tenant resizes, and runs it on a Store and on the
// reference side by side. Every reply must match; with synchronous
// bookkeeping so must the records, Items, UsedBytes and counters after every
// operation, and with asynchronous bookkeeping after a Flush every eight
// operations and at the end. The maintenance tick is held, so no reaper
// sheds a dead record behind the reference's back.
func runDifferential(t *testing.T, d diffRun, script []byte) {
	var clock atomic.Int64
	clock.Store(1000)
	s := New(Config{Geometry: diffGeometry, SyncBookkeeping: d.sync, Now: clock.Load})
	defer s.Close()
	defer HoldMaintenance(s)()
	cfg := d.config()
	if err := s.RegisterTenantConfig(cfg); err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg, d.sync, clock.Load)
	keys := 24
	if d.pressure {
		keys = 40
	}
	var vals int
	for i := 0; i+4 <= len(script); i += 4 {
		op, k, v, x := script[i]%20, fmt.Sprintf("k%02d", int(script[i+1])%keys), script[i+2], int64(script[i+3])
		exptime := [...]int64{0, 0, 0, 0, 1, 2, 3, -1}[x%8]
		var value []byte
		if vals++; v%4 == 0 {
			value = []byte(fmt.Sprint(int(v) * 7)) // a number for incr and decr
		} else {
			value = fmt.Appendf(nil, "%0*d", diffValueLens[int(v)%len(diffValueLens)], vals)
		}
		do := func(c verbCache) string {
			key := []byte(k)
			switch op {
			case 0, 1, 2:
				return fmt.Sprint(c.SetItemBytes("app", key, value, uint32(v), exptime))
			case 3:
				return fmt.Sprint(c.Add("app", key, value, uint32(v), exptime))
			case 4:
				return fmt.Sprint(c.Replace("app", key, value, uint32(v), exptime))
			case 5, 6:
				return fmt.Sprint(c.CompareAndSwap("app", key, value, uint32(v), exptime, casOf(c, k)+uint64(op-5)))
			case 7:
				return fmt.Sprint(c.AppendBytes("app", key, value[:min(len(value), 1+int(x)%4)]))
			case 8:
				return fmt.Sprint(c.PrependBytes("app", key, value[:min(len(value), 1+int(x)%4)]))
			case 9:
				return fmt.Sprint(c.Incr("app", key, uint64(x)))
			case 10:
				return fmt.Sprint(c.Decr("app", key, uint64(x)))
			case 11:
				return fmt.Sprint(c.Touch("app", key, exptime))
			case 12:
				return fmt.Sprint(c.Delete("app", k))
			case 17:
				return "" // the clock step, taken once for both
			case 18:
				return fmt.Sprint(c.FlushAll("app", [...]int64{0, 1, 2, 3}[x%4]))
			case 19:
				if d.sync {
					return fmt.Sprint(c.ResizeTenant("app", cfg.MemoryBytes+(x%4-1)*diffGeometry.PageSize))
				}
			}
			view, ok, err := c.GetItemView("app", key)
			defer view.Release()
			return fmt.Sprintf("%q %d %v %v", view.Value, view.Flags, ok, err)
		}
		if op == 17 {
			clock.Add(1 + x%4)
		}
		got, want := do(s), do(ref)
		if got != want {
			t.Fatalf("%v op %d (%d on %s, value %d bytes, x %d): store %s, reference %s", d, i/4, op, k, len(value), x, got, want)
		}
		if d.sync || i/4%8 == 7 || i+8 > len(script) {
			compareWithReference(t, d, i/4, s, ref)
		}
	}
}

// compareWithReference settles the store and holds its records, Items,
// UsedBytes and counters to the reference's.
func compareWithReference(t *testing.T, d diffRun, op int, s *Store, ref *refCache) {
	t.Helper()
	s.Flush()
	if got, want := recordsOf(s), recordsOf(ref); !maps.Equal(got, want) {
		t.Fatalf("%v after op %d: store holds\n%v\nreference holds\n%v", d, op, got, want)
	}
	if err := s.AuditConservation("app"); err != nil {
		t.Fatal(err)
	}
	items, _ := s.Items("app")
	used, _ := s.UsedBytes("app")
	wantItems, _ := ref.Items("app")
	wantUsed, _ := ref.UsedBytes("app")
	st, _ := s.Stats("app")
	got := [...]int64{int64(items), used, st.Requests, st.Hits, st.Misses, st.Sets, st.Deletes, st.Expired, st.Touches, st.TouchHits, st.HitsUnpromoted}
	r := ref.st
	want := [...]int64{int64(wantItems), wantUsed, r.Requests, r.Hits, r.Misses, r.Sets, r.Deletes, r.Expired, r.Touches, r.TouchHits, r.HitsUnpromoted}
	if !ref.unmanaged() || !d.sync {
		// The reference has no managed queue's window, and an asynchronous
		// store decides its window against the replays it has seen so far.
		got[10], want[10] = 0, 0
	}
	if got != want {
		t.Fatalf("%v after op %d: items, used, requests, hits, misses, sets, deletes, expired, touches, touch hits, hits within the window: store %v, reference %v",
			d, op, got, want)
	}
}

// diffScript is a seeded random script of n operations.
func diffScript(seed int64, n int) []byte {
	b := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// diffRuns are the synchronous settings: every mode within capacity, and the
// two unmanaged modes whose queues the reference models under pressure.
func diffRuns() []diffRun {
	var runs []diffRun
	for _, m := range []AllocationMode{AllocDefault, AllocStatic, AllocGlobalLRU, AllocCliffhanger, AllocMemshare} {
		runs = append(runs, diffRun{mode: m, sync: true})
	}
	return append(runs, diffRun{mode: AllocDefault, pressure: true, sync: true}, diffRun{mode: AllocGlobalLRU, pressure: true, sync: true})
}

// TestReferenceMatchesVerbSemantics holds the reference to every row of
// TestStoreVerbSemantics before the differential tests trust it.
func TestReferenceMatchesVerbSemantics(t *testing.T) {
	verbStateTable(t, func(now func() int64) (verbCache, func()) {
		cfg := TenantConfig{Name: "app", MemoryBytes: 4 << 20, Geometry: slab.DefaultGeometry(), Mode: AllocDefault}
		return newRefCache(cfg, true, now), func() {}
	})
}

// FuzzStoreMatchesReference runs a synchronous store against the reference
// on a script. Its seed corpus, which go test runs, is a 3000-operation
// script for every synchronous setting of diffRuns.
func FuzzStoreMatchesReference(f *testing.F) {
	runs := diffRuns()
	for i := range runs {
		f.Add(uint8(i), diffScript(int64(i+1), 3000))
	}
	f.Fuzz(func(t *testing.T, run uint8, script []byte) {
		runDifferential(t, runs[int(run)%len(runs)], script)
	})
}

// TestStoreMatchesReferenceAsync is the asynchronous twin, within capacity in
// every mode: replies at once, everything else after a Flush.
func TestStoreMatchesReferenceAsync(t *testing.T) {
	for i, d := range diffRuns()[:5] {
		d.sync = false
		t.Run(d.String(), func(t *testing.T) { runDifferential(t, d, diffScript(int64(100+i), 3000)) })
	}
}
