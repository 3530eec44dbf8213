package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// queueState is everything about a queue an access can change: the key order
// of every segment of both partitions, the cliff-scaling state and the
// counters.
type queueState struct {
	Segments      [8][]string
	Caps          [4]int64
	Left, Right   int64
	Ratio         float64
	Split         bool
	PendingResize bool
	RR, MissCount uint64
	Stats         QueueStats
}

func stateOf(q *Queue) queueState {
	s := queueState{
		Caps:          [4]int64{q.left.physCapacity, q.right.physCapacity, q.left.hill.Capacity(), q.right.hill.Capacity()},
		Ratio:         q.Ratio(),
		Split:         q.Split(),
		PendingResize: q.PendingResize(),
		RR:            q.rr,
		MissCount:     q.missCount,
		Stats:         q.Stats(),
	}
	s.Left, s.Right = q.Pointers()
	for i, p := range []*partition{q.left, q.right} {
		s.Segments[4*i] = p.front.Keys()
		s.Segments[4*i+1] = p.tail.Keys()
		s.Segments[4*i+2] = p.cliff.Keys()
		s.Segments[4*i+3] = p.hill.Keys()
	}
	return s
}

// TestAccessResidentMatchesContainsThenAccess drives two identical queues
// with one seeded random op stream — GETs of resident, shadowed and unknown
// keys, admissions, removes and capacity changes that switch cliff scaling on
// and off — serving the GETs of one with Contains followed by Access and of
// the other with AccessResident, and requires the same outcome and the same
// state after every op.
func TestAccessResidentMatchesContainsThenAccess(t *testing.T) {
	for _, splitter := range []Splitter{SplitHash, SplitRoundRobin} {
		for _, missOnly := range []bool{true, false} {
			t.Run(fmt.Sprintf("splitter=%d/resizeOnMissOnly=%v", splitter, missOnly), func(t *testing.T) {
				cfg := Config{
					CreditBytes:        4,
					ShadowBytes:        200,
					CliffShadowItems:   16,
					TailWindowItems:    16,
					CliffMinItems:      100,
					ResizeOnMissOnly:   missOnly,
					EnableCliffScaling: true,
					Splitter:           splitter,
				}.withDefaults()
				pair := newQueue("pair", cfg, 150, 1)
				fused := newQueue("fused", cfg, 150, 1)
				rng := rand.New(rand.NewSource(int64(7 + splitter)))
				zipf := rand.NewZipf(rng, 1.1, 8, 599)
				var gets, residentGets, tailHits, shadowAdmits, toggles int
				for op := 0; op < 20000; op++ {
					key := fmt.Sprintf("k%d", zipf.Uint64())
					wasSplit := pair.Split()
					var what string
					switch r := rng.Intn(100); {
					case r < 50:
						what = "get " + key
						var want AccessOutcome
						resident := pair.Contains(key)
						if resident {
							want = pair.Access(key, 1)
						}
						got, ok := fused.AccessResident(key, 1)
						if ok != resident || !reflect.DeepEqual(got, want) {
							t.Fatalf("op %d %s: AccessResident = %+v, %v; Contains+Access = %+v, %v", op, what, got, ok, want, resident)
						}
						gets++
						if ok {
							residentGets++
						}
						if got.TailWindowHit {
							tailHits++
						}
					case r < 88:
						what = "access " + key
						want, got := pair.Access(key, 1), fused.Access(key, 1)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("op %d %s: outcomes diverged: %+v vs %+v", op, what, got, want)
						}
						if got.ShadowHit || got.CliffShadowHit {
							shadowAdmits++
						}
					case r < 94:
						what = "remove " + key
						if want, got := pair.Remove(key), fused.Remove(key); got != want {
							t.Fatalf("op %d %s: %v vs %v", op, what, got, want)
						}
					default:
						capacity := int64(40 + rng.Intn(360))
						what = fmt.Sprintf("SetCapacity %d", capacity)
						pair.SetCapacity(capacity)
						fused.SetCapacity(capacity)
					}
					ps, fs := stateOf(pair), stateOf(fused)
					if !reflect.DeepEqual(ps, fs) {
						t.Fatalf("op %d %s: states diverged:\npair  %+v\nfused %+v", op, what, ps, fs)
					}
					if ps.Split != wasSplit {
						toggles++
					}
				}
				t.Logf("%d GETs (%d resident, %d tail-window hits), %d shadow admissions, %d split toggles",
					gets, residentGets, tailHits, shadowAdmits, toggles)
				if residentGets == 0 || residentGets == gets || tailHits == 0 || shadowAdmits == 0 || toggles == 0 {
					t.Fatalf("op stream too narrow to tell the two paths apart")
				}
			})
		}
	}
}
