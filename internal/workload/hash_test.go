package workload

import (
	"testing"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/trace"
)

// TestGeneratorKeysHashApart counts 64-bit FNV-1a (cache.Hash) collisions
// over every distinct key the test streams draw, and requires none: a class
// queue tells its shadow entries apart by hash alone, so a collision among
// them would move a golden or a cross-check by a shadow hit. The streams are
// the cross-check ones (Memcachier at both of its settings, facebook and
// zipf), the ablation table's (Memcachier and facebook at 400 000 requests)
// and the whole key space of the golden tests' two apps (internal/sim's
// smallApps: app 1's classes of 40 000 and 60 000 keys, app 2's 12 000).
func TestGeneratorKeysHashApart(t *testing.T) {
	keys := map[string]bool{}
	for _, o := range []struct {
		spec string
		opts Options
	}{
		{"memcachier", Options{Requests: 40000, Seed: 7, Scale: 0.05}},
		{"memcachier", Options{Requests: 100000, Seed: 7, Scale: 0.25}},
		{"facebook", Options{Requests: 40000, Seed: 7, Keys: 1 << 14, MemoryMB: 4}},
		{"zipf", Requests20kZipf()},
	} {
		w, err := Open(o.spec, o.opts)
		if err != nil {
			t.Fatal(err)
		}
		drain(w.Source, keys)
	}
	drain(trace.NewGenerator(trace.GeneratorConfig{Apps: trace.MemcachierApps(0.25), Requests: 400000, Seed: 1}), keys)
	drain(trace.NewFacebookGenerator(trace.FacebookConfig{Keys: 1 << 18, Requests: 400000, Seed: 1}), keys)
	for _, c := range []struct{ app, class, keys int }{{1, 0, 40000}, {1, 1, 60000}, {2, 0, 12000}} {
		for i := 0; i < c.keys; i++ {
			keys[trace.KeyName(c.app, c.class, i)] = true
		}
	}
	hashes := make(map[uint64]string, len(keys))
	collisions := 0
	for k := range keys {
		h := cache.Hash(k)
		if other, taken := hashes[h]; taken {
			collisions++
			t.Errorf("%q and %q share hash %#x", k, other, h)
		}
		hashes[h] = k
	}
	t.Logf("%d distinct keys, %d collisions", len(keys), collisions)
}

func drain(src trace.Source, keys map[string]bool) {
	for {
		r, ok := src.Next()
		if !ok {
			return
		}
		keys[r.Key] = true
	}
}
