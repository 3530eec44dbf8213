package store

import (
	"fmt"
	"runtime"
	"testing"

	"cliffhanger/internal/cache"
)

// BenchmarkStoreWriteHeavy measures the mutation path under churn: 50% SET /
// 10% DELETE / 40% GET over a key set whose sizes span four slab classes, so
// values are continually born, re-set across classes, deleted and evicted.
// Alongside ns/op, B/op and allocs/op it reports GC cycles per million
// operations (gc/Mop, from runtime.ReadMemStats around the timed loop) — the
// number the slab arena exists to drive down: before the arena every SET
// allocated a fresh value copy plus an item record and every
// eviction/expiry/delete handed them to the garbage collector.
func BenchmarkStoreWriteHeavy(b *testing.B) {
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchmarkWriteHeavy(b, g)
		})
	}
}

// writeHeavySizes spreads values across slab classes (with the default
// power-of-two geometry: 128B, 512B, 1KiB and 4KiB chunks). A key's size
// depends on both the key and the pass number, so long runs re-set keys
// across classes.
var writeHeavySizes = [4]int{100, 400, 900, 3800}

func benchmarkWriteHeavy(b *testing.B, goroutines int) {
	b.ReportAllocs()
	s := New(Config{DefaultMode: AllocCliffhanger, DefaultPolicy: cache.PolicyLRU})
	defer s.Close()
	if err := s.RegisterTenant("hot", 64<<20); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, writeHeavySizes[len(writeHeavySizes)-1])
	const nKeys = 1 << 14
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("wh-key-%d", i))
		if err := s.SetItemBytes("hot", keys[i], payload[:writeHeavySizes[i%len(writeHeavySizes)]], 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	s.Flush()

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	b.ResetTimer()
	per := b.N/goroutines + 1
	done := make(chan struct{}, goroutines)
	for w := 0; w < goroutines; w++ {
		go func(worker int) {
			defer func() { done <- struct{}{} }()
			idx := worker * (nKeys / 8)
			for i := 0; i < per; i++ {
				k := keys[(idx+i*7)&(nKeys-1)]
				// The size class churns with the iteration count, so a SET
				// of a previously resident key frequently crosses classes.
				size := writeHeavySizes[(i*7+i/nKeys)%len(writeHeavySizes)]
				switch i % 10 {
				case 0, 1, 2, 3, 4: // 50% SET
					if err := s.SetItemBytes("hot", k, payload[:size], 0, 0); err != nil {
						b.Error(err)
						return
					}
				case 5: // 10% DELETE
					if _, err := s.Delete("hot", string(k)); err != nil {
						b.Error(err)
						return
					}
				default: // 40% GET (borrowed view, as the server streams it)
					v, _, err := s.GetItemView("hot", k)
					if err != nil {
						b.Error(err)
						return
					}
					v.Release()
				}
			}
		}(w)
	}
	for w := 0; w < goroutines; w++ {
		<-done
	}
	b.StopTimer()
	runtime.ReadMemStats(&msAfter)
	gcs := float64(msAfter.NumGC - msBefore.NumGC)
	b.ReportMetric(gcs*1e6/float64(b.N), "gc/Mop")
}
