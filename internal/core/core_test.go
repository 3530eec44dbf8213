package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// itemCfg returns a config scaled to unit-cost-1 items for compact tests:
// credits of 32 items, a 2000-item hill-climbing shadow, the paper's 128-item
// windows, cliff scaling above 1000 items, and a fixed seed.
func itemCfg() Config {
	return Config{
		CreditBytes:        32,
		ShadowBytes:        2000,
		CliffShadowItems:   128,
		TailWindowItems:    128,
		CliffMinItems:      1000,
		ResizeOnMissOnly:   true,
		EnableHillClimbing: true,
		EnableCliffScaling: true,
		MinQueueBytes:      256,
		Seed:               1,
	}
}

func singleQueue(t testing.TB, cfg Config, capacity int64) (*Manager, string) {
	t.Helper()
	m, err := NewManager(cfg, capacity, []QueueSpec{{ID: "q", UnitCost: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return m, "q"
}

func TestDefaultConfigValues(t *testing.T) {
	c := DefaultConfig()
	if c.CreditBytes != 4096 || c.ShadowBytes != 1<<20 || c.CliffShadowItems != 128 ||
		c.CliffMinItems != 1000 || !c.ResizeOnMissOnly || !c.EnableHillClimbing || !c.EnableCliffScaling {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	norm := Config{}.withDefaults()
	if norm.CreditBytes != 4096 || norm.MinQueueBytes != 2*4096 {
		t.Fatalf("withDefaults = %+v", norm)
	}
	hc := c.HillClimbingOnly()
	if hc.EnableCliffScaling || !hc.EnableHillClimbing {
		t.Fatalf("HillClimbingOnly = %+v", hc)
	}
	cs := c.CliffScalingOnly()
	if !cs.EnableCliffScaling || cs.EnableHillClimbing {
		t.Fatalf("CliffScalingOnly = %+v", cs)
	}
}

func TestManagerValidation(t *testing.T) {
	cfg := itemCfg()
	if _, err := NewManager(cfg, 100, nil); err == nil {
		t.Fatalf("empty queue set should error")
	}
	if _, err := NewManager(cfg, 0, []QueueSpec{{ID: "a"}}); err == nil {
		t.Fatalf("zero budget should error")
	}
	if _, err := NewManager(cfg, 100, []QueueSpec{{ID: ""}}); err == nil {
		t.Fatalf("empty ID should error")
	}
	if _, err := NewManager(cfg, 100, []QueueSpec{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Fatalf("duplicate IDs should error")
	}
	if _, err := NewManager(cfg, 100, []QueueSpec{{ID: "a", InitialCapacity: 200}}); err == nil {
		t.Fatalf("initial capacities above budget should error")
	}
}

func TestQueueBasicHitMissEvict(t *testing.T) {
	cfg := itemCfg()
	cfg.EnableCliffScaling = false
	m, q := singleQueue(t, cfg, 500)
	out, ok := m.Access(q, "a", 1)
	if !ok || out.Hit {
		t.Fatalf("first access should be a miss: %+v ok=%v", out, ok)
	}
	out, _ = m.Access(q, "a", 1)
	if !out.Hit {
		t.Fatalf("second access should hit")
	}
	if _, ok := m.Access("nope", "a", 1); ok {
		t.Fatalf("unknown queue ID should report ok=false")
	}
	if !m.QueueAt(0).Contains("a") || m.QueueAt(0).Contains("zzz") {
		t.Fatalf("Contains misbehaving")
	}
	if !m.QueueAt(0).Remove("a") || m.QueueAt(0).Remove("a") {
		t.Fatalf("Remove misbehaving")
	}
}

func TestQueueRespectsCapacity(t *testing.T) {
	cfg := itemCfg()
	m, q := singleQueue(t, cfg, 2000)
	for i := 0; i < 10000; i++ {
		m.Access(q, fmt.Sprintf("k%d", i%4000), 1)
		used := m.QueueAt(0).Used()
		if used > 2000+1 {
			t.Fatalf("physical usage %d exceeds capacity 2000", used)
		}
	}
	if m.QueueAt(0).Items() == 0 {
		t.Fatalf("queue should hold items")
	}
}

func TestQueueEvictionReportsVictims(t *testing.T) {
	cfg := itemCfg()
	cfg.EnableCliffScaling = false
	m, q := singleQueue(t, cfg, 300)
	resident := map[string]bool{}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", i)
		out, _ := m.Access(q, key, 1)
		resident[key] = true
		for _, v := range out.Evicted {
			if !resident[v.Key] {
				t.Fatalf("evicted key %q was never reported resident", v.Key)
			}
			delete(resident, v.Key)
		}
	}
	// The caller-tracked resident set must match the queue's view.
	if len(resident) != m.QueueAt(0).Items() {
		t.Fatalf("caller tracks %d resident keys, queue reports %d", len(resident), m.QueueAt(0).Items())
	}
	for k := range resident {
		if !m.QueueAt(0).Contains(k) {
			t.Fatalf("key %q tracked resident but not in queue", k)
		}
	}
}

func TestShadowHitDetection(t *testing.T) {
	cfg := itemCfg()
	cfg.EnableCliffScaling = false
	cfg.EnableHillClimbing = true
	m, q := singleQueue(t, cfg, 500)
	// Fill well past capacity so early keys fall into the shadow queue.
	for i := 0; i < 900; i++ {
		m.Access(q, fmt.Sprintf("k%d", i), 1)
	}
	// k100 was evicted (capacity 500, 900 inserts) but should still be in
	// the 2000-item shadow queue.
	out, _ := m.Access(q, "k100", 1)
	if out.Hit {
		t.Fatalf("k100 should have been evicted")
	}
	if !out.ShadowHit && !out.CliffShadowHit {
		t.Fatalf("k100 should hit a shadow queue, got %+v", out)
	}
	if m.QueueAt(0).Stats().ShadowHits == 0 && m.QueueAt(0).Stats().CliffShadowHits == 0 {
		t.Fatalf("shadow hit counters not incremented")
	}
}

func TestHillClimbingShiftsMemoryToHotQueue(t *testing.T) {
	cfg := itemCfg()
	cfg.EnableCliffScaling = false
	m, err := NewManager(cfg, 3000, []QueueSpec{
		{ID: "hot", UnitCost: 1},
		{ID: "cold", UnitCost: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Hot queue: uniform reuse over 2600 keys (needs ~2600 items to hold).
	// Cold queue: 50 keys (needs almost nothing). 90% of traffic is hot.
	for i := 0; i < 200000; i++ {
		if rng.Float64() < 0.9 {
			m.Access("hot", fmt.Sprintf("h%d", rng.Intn(2600)), 1)
		} else {
			m.Access("cold", fmt.Sprintf("c%d", rng.Intn(50)), 1)
		}
	}
	hotCap := m.QueueAt(0).Capacity()
	coldCap := m.QueueAt(1).Capacity()
	if hotCap <= 1800 {
		t.Fatalf("hill climbing should have grown the hot queue well past its 1500 start, got %d (cold %d)", hotCap, coldCap)
	}
	if got := m.CapacitySum(); got > 3000+cfg.CreditBytes || got < 3000-cfg.CreditBytes {
		t.Fatalf("capacity not conserved: %d", got)
	}
	// And the shift must actually pay off: hit rate in the second half of
	// the run should beat a static 50/50 split.
	static := mustManager(t, func() (*Manager, error) {
		c := cfg
		c.EnableHillClimbing = false
		return NewManager(c, 3000, []QueueSpec{{ID: "hot", UnitCost: 1}, {ID: "cold", UnitCost: 1}})
	})
	rng = rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		if rng.Float64() < 0.9 {
			static.Access("hot", fmt.Sprintf("h%d", rng.Intn(2600)), 1)
		} else {
			static.Access("cold", fmt.Sprintf("c%d", rng.Intn(50)), 1)
		}
	}
	if m.HitRate() <= static.HitRate() {
		t.Fatalf("hill climbing hit rate %.3f should beat static %.3f", m.HitRate(), static.HitRate())
	}
}

func mustManager(t *testing.T, f func() (*Manager, error)) *Manager {
	t.Helper()
	m, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cliffWorkload emits a mostly-sequential scan over scanKeys keys mixed with
// a Zipfian foreground, the workload shape that produces performance cliffs.
func cliffWorkload(seed int64, requests, scanKeys, zipfKeys int, scanFrac float64) []string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(zipfKeys-1))
	keys := make([]string, requests)
	scanPos := 0
	for i := range keys {
		if rng.Float64() < scanFrac {
			keys[i] = fmt.Sprintf("scan%d", scanPos)
			scanPos = (scanPos + 1) % scanKeys
		} else {
			keys[i] = fmt.Sprintf("zipf%d", zipf.Uint64())
		}
	}
	return keys
}

// This test passes because of pointer relaxation (Queue.settle), which is this
// repository's addition to the paper's Algorithms 2-3, and because relaxation
// runs during the fill of a queue whose manager has no spare budget. The
// cliff here, a 12 000-key cyclic scan over capacity 8 000, produces no hit
// within 128 items of either pointer, so the paper's pointer rules never see
// it; what finds it is the left pointer being pulled back while the partitions
// are still underfull. Guard relaxation with anything local to the partition
// ("only once the sibling is full", "only after the first eviction") and the
// 0.567 below becomes 0.126, plain LRU. The guard that exists asks the owner
// for spare memory (Manager.SetSpare), and nobody here has any.
func TestCliffScalingBeatsPlainLRUOnCliffWorkload(t *testing.T) {
	const (
		capacity = 8000
		scanKeys = 12000
		requests = 500000
	)
	keys := cliffWorkload(7, requests, scanKeys, 2000, 0.85)

	run := func(cfg Config) (secondHalfHitRate float64, relaxEvents int64) {
		m, err := NewManager(cfg, capacity, []QueueSpec{{ID: "q", UnitCost: 1}})
		if err != nil {
			t.Fatal(err)
		}
		var hits, reqs int64
		for i, k := range keys {
			out, _ := m.Access("q", k, 1)
			if i >= len(keys)/2 {
				reqs++
				if out.Hit {
					hits++
				}
			}
		}
		return float64(hits) / float64(reqs), m.QueueAt(0).Stats().RelaxEvents
	}

	plain := itemCfg()
	plain.EnableCliffScaling = false
	plain.EnableHillClimbing = false
	plainHR, _ := run(plain)

	cliff := itemCfg()
	cliff.EnableHillClimbing = false
	cliff.EnableCliffScaling = true
	cliffHR, relaxEvents := run(cliff)

	t.Logf("plain LRU hit rate %.3f, cliff scaling hit rate %.3f", plainHR, cliffHR)
	if cliffHR < plainHR+0.05 {
		t.Fatalf("cliff scaling (%.3f) should clearly beat plain LRU (%.3f) on a cliff workload", cliffHR, plainHR)
	}
	if relaxEvents == 0 {
		t.Fatalf("no pointer was relaxed, yet cliff scaling beat plain LRU: the dependency this test documents is gone, rewrite its comment")
	}
}

func TestCliffScalingHarmlessOnConcaveWorkload(t *testing.T) {
	// On a purely Zipfian (concave) workload, cliff scaling should behave
	// like a single queue: its hit rate should be within a couple of points
	// of plain LRU.
	const capacity = 4000
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 1, 20000)
	keys := make([]string, 300000)
	for i := range keys {
		keys[i] = fmt.Sprintf("z%d", zipf.Uint64())
	}
	run := func(cfg Config) float64 {
		m, _ := NewManager(cfg, capacity, []QueueSpec{{ID: "q", UnitCost: 1}})
		var hits int64
		for _, k := range keys {
			if out, _ := m.Access("q", k, 1); out.Hit {
				hits++
			}
		}
		return float64(hits) / float64(len(keys))
	}
	plain := itemCfg()
	plain.EnableCliffScaling = false
	plain.EnableHillClimbing = false
	split := itemCfg()
	split.EnableCliffScaling = true
	split.EnableHillClimbing = false
	p, s := run(plain), run(split)
	t.Logf("plain %.4f split %.4f", p, s)
	if s < p-0.03 {
		t.Fatalf("cliff scaling should not hurt concave workloads: plain %.3f vs split %.3f", p, s)
	}
}

// table4Workload builds the Table-4 shaped workload: queue c0 has a
// performance cliff (a mostly sequential loop slightly larger than its
// default allocation), queue c1 is a concave, over-provisioned Zipf queue,
// and a bursty phase change shifts traffic between them. Hill climbing helps
// by moving memory from c1 to c0; cliff scaling helps c0 while it is still
// stuck below its loop; the combined algorithm should do at least as well as
// either alone.
func table4Workload(seed int64, requests int) []struct{ q, k string } {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]struct{ q, k string }, requests)
	scan0 := 0
	limit := 8200 + rng.Intn(1600)
	for i := range reqs {
		// Phase 1 (60%): c0 dominates. Phase 2 (40%): burst toward c1.
		toQ0 := 0.85
		if i > requests*6/10 {
			toQ0 = 0.35
		}
		if rng.Float64() < toQ0 {
			if rng.Float64() < 0.9 {
				reqs[i] = struct{ q, k string }{"c0", fmt.Sprintf("s0-%d", scan0)}
				scan0++
				if scan0 >= limit {
					scan0 = 0
					limit = 8200 + rng.Intn(1600)
				}
			} else {
				reqs[i] = struct{ q, k string }{"c0", fmt.Sprintf("z0-%d", rng.Intn(500))}
			}
		} else {
			reqs[i] = struct{ q, k string }{"c1", fmt.Sprintf("z1-%d", rng.Intn(1500))}
		}
	}
	return reqs
}

// Like TestCliffScalingBeatsPlainLRUOnCliffWorkload, the cliff-only and
// combined columns depend on pointer relaxation running while the queues fill
// with the whole budget already handed out; see the comment there.
func TestCombinedBeatsIndividualAlgorithmsOnTable4Workload(t *testing.T) {
	const budget = 16000
	reqs := table4Workload(21, 600000)
	run := func(cfg Config) (hitRate float64, relaxEvents int64) {
		m, err := NewManager(cfg, budget, []QueueSpec{
			{ID: "c0", UnitCost: 1, InitialCapacity: budget / 2},
			{ID: "c1", UnitCost: 1, InitialCapacity: budget / 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		var hits int64
		for _, r := range reqs {
			if out, _ := m.Access(r.q, r.k, 1); out.Hit {
				hits++
			}
		}
		for _, s := range m.Snapshot() {
			relaxEvents += s.Stats.RelaxEvents
		}
		return float64(hits) / float64(len(reqs)), relaxEvents
	}
	base := itemCfg()
	base.EnableHillClimbing = false
	base.EnableCliffScaling = false
	defaultHR, _ := run(base)
	hillHR, _ := run(itemCfg().HillClimbingOnly())
	cliffHR, cliffRelax := run(itemCfg().CliffScalingOnly())
	combinedHR, combinedRelax := run(itemCfg())
	t.Logf("default %.3f cliff-only %.3f hill-only %.3f combined %.3f", defaultHR, cliffHR, hillHR, combinedHR)
	if cliffRelax == 0 || combinedRelax == 0 {
		t.Fatalf("relax events: cliff-only %d, combined %d; these columns are known to depend on relaxation", cliffRelax, combinedRelax)
	}
	if combinedHR <= defaultHR+0.05 {
		t.Fatalf("combined algorithm (%.3f) should clearly beat the default (%.3f)", combinedHR, defaultHR)
	}
	if cliffHR <= defaultHR {
		t.Fatalf("cliff scaling alone (%.3f) should beat the default (%.3f) on this workload", cliffHR, defaultHR)
	}
	if hillHR <= defaultHR {
		t.Fatalf("hill climbing alone (%.3f) should beat the default (%.3f) on this workload", hillHR, defaultHR)
	}
	// The combined algorithm should be in the same league as the better of
	// the two sub-algorithms (the paper's Table 4 shows a small cumulative
	// gain; we allow a small interference margin on this synthetic trace).
	if combinedHR < cliffHR-0.05 || combinedHR < hillHR-0.05 {
		t.Fatalf("combined (%.3f) should be close to cliff-only (%.3f) and hill-only (%.3f)",
			combinedHR, cliffHR, hillHR)
	}
}

func TestRatioAndPointerInvariants(t *testing.T) {
	cfg := itemCfg()
	m, q := singleQueue(t, cfg, 6000)
	keys := cliffWorkload(13, 200000, 9000, 1000, 0.8)
	for _, k := range keys {
		m.Access(q, k, 1)
		qu := m.QueueAt(0)
		if r := qu.Ratio(); r < 0 || r > 1 {
			t.Fatalf("ratio %v out of range", r)
		}
		lp, rp := qu.Pointers()
		if qu.Split() {
			if lp > qu.Capacity() || rp < qu.Capacity() {
				t.Fatalf("pointers (%d, %d) straddle violated for capacity %d", lp, rp, qu.Capacity())
			}
		}
	}
	// On this cliff workload the cliff-scaling machinery should have engaged:
	// at least one pointer moves away from the operating point (the left
	// anchor drops toward the concave region and/or the right anchor hunts
	// for the top of the cliff), leaving the partitions asymmetric.
	lp, rp := m.QueueAt(0).Pointers()
	lc, rc := m.QueueAt(0).PartitionCapacities()
	if lp >= m.QueueAt(0).Capacity() && rp <= m.QueueAt(0).Capacity() {
		t.Fatalf("neither pointer moved on a cliff workload: lp=%d rp=%d capacity=%d", lp, rp, m.QueueAt(0).Capacity())
	}
	if lc == rc {
		t.Logf("note: partitions still symmetric (%d/%d)", lc, rc)
	}
}

func TestSplitActivationThreshold(t *testing.T) {
	cfg := itemCfg()
	// Below the threshold: no split.
	small, _ := NewManager(cfg, 500, []QueueSpec{{ID: "q", UnitCost: 1}})
	small.Access("q", "a", 1)
	if small.QueueAt(0).Split() {
		t.Fatalf("queue of 500 items should not activate cliff scaling (threshold 1000)")
	}
	// Above the threshold: split active.
	big, _ := NewManager(cfg, 5000, []QueueSpec{{ID: "q", UnitCost: 1}})
	big.Access("q", "a", 1)
	if !big.QueueAt(0).Split() {
		t.Fatalf("queue of 5000 items should activate cliff scaling")
	}
	// With unit cost 8, 5000 bytes is only 625 items: no split.
	units, _ := NewManager(cfg, 5000, []QueueSpec{{ID: "q", UnitCost: 8}})
	units.Access("q", "a", 8)
	if units.QueueAt(0).Split() {
		t.Fatalf("625-item queue should not activate cliff scaling")
	}
}

func TestManagerDeterminism(t *testing.T) {
	cfg := itemCfg()
	run := func() []QueueSnapshot {
		m, _ := NewManager(cfg, 4000, []QueueSpec{
			{ID: "a", UnitCost: 1},
			{ID: "b", UnitCost: 1},
		})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 50000; i++ {
			q := "a"
			if rng.Float64() < 0.3 {
				q = "b"
			}
			m.Access(q, fmt.Sprintf("%s-%d", q, rng.Intn(3000)), 1)
		}
		return m.Snapshot()
	}
	s1, s2 := run(), run()
	if len(s1) != len(s2) {
		t.Fatalf("snapshot lengths differ")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("non-deterministic state at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestSnapshotAndStats(t *testing.T) {
	cfg := itemCfg()
	m, _ := NewManager(cfg, 4000, []QueueSpec{
		{ID: "b", UnitCost: 1},
		{ID: "a", UnitCost: 1},
	})
	for i := 0; i < 1000; i++ {
		m.Access("a", fmt.Sprintf("k%d", i), 1)
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].ID != "b" || snap[1].ID != "a" {
		t.Fatalf("snapshot should be in creation order: %+v", snap)
	}
	if snap[1].Stats.Requests != 1000 {
		t.Fatalf("queue a requests = %d", snap[1].Stats.Requests)
	}
	total := m.TotalStats()
	if total.Requests != 1000 {
		t.Fatalf("TotalStats.Requests = %d", total.Requests)
	}
	if _, ok := m.Access("zzz", "k", 1); ok {
		t.Fatalf("an access to an unknown queue should report false")
	}
	if snap[0].Capacity+snap[1].Capacity != m.CapacitySum() {
		t.Fatalf("snapshot capacities inconsistent with CapacitySum")
	}
	if m.NumQueues() != 2 || m.CapacitySum() != 4000 {
		t.Fatalf("NumQueues = %d, CapacitySum = %d, want 2 queues sharing 4000", m.NumQueues(), m.CapacitySum())
	}
}

func TestDrain(t *testing.T) {
	cfg := itemCfg()
	cfg.EnableCliffScaling = false
	m, q := singleQueue(t, cfg, 500)
	for i := 0; i < 400; i++ {
		m.Access(q, fmt.Sprintf("k%d", i), 1)
	}
	// Draining is a resize to nothing, applied at once, and back.
	queue := m.QueueAt(0)
	queue.SetCapacity(0)
	victims := queue.ForceApplyResize()
	queue.SetCapacity(500)
	queue.ForceApplyResize()
	if len(victims) != 400 {
		t.Fatalf("Drain evicted %d, want 400", len(victims))
	}
	if m.QueueAt(0).Items() != 0 {
		t.Fatalf("queue not empty after Drain")
	}
	if m.QueueAt(0).Capacity() != 500 {
		t.Fatalf("capacity should be restored after Drain")
	}
}

// TestCapacityConservationProperty: hill climbing never creates or destroys
// capacity (the sum of target capacities is exactly conserved), and physical
// usage obeys the documented occupancy invariant.
//
// The invariant is stated against AppliedCapacity, not Capacity: capacity
// changes are applied lazily (on the next miss, per the paper's
// thrash-avoidance rule), and a queue that loses several hill-climbing
// credits before its next miss transiently holds more than its shrunken
// *target* — e.g. seed 6224889757895097368 drives one queue ~10 items over
// Capacity through in-flight cliff-pointer resizes. Physical residency never
// exceeds what is actually applied to the partitions, and once pending
// resizes are drained the strict used <= capacity + one in-flight item bound
// holds again.
func TestCapacityConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := itemCfg()
		cfg.Seed = seed
		nq := 2 + int(uint64(seed)%3)
		specs := make([]QueueSpec, nq)
		for i := range specs {
			specs[i] = QueueSpec{ID: fmt.Sprintf("q%d", i), UnitCost: 1}
		}
		total := int64(nq) * 1500
		m, err := NewManager(cfg, total, specs)
		if err != nil {
			return false
		}
		start := m.CapacitySum()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			q := fmt.Sprintf("q%d", rng.Intn(nq))
			m.Access(q, fmt.Sprintf("%s-%d", q, rng.Intn(2500)), 1)
			if m.CapacitySum() != start {
				return false
			}
		}
		for _, s := range m.Snapshot() {
			// Physical occupancy never exceeds the applied partition sizes.
			if s.Used > s.AppliedCapacity+1 {
				return false
			}
		}
		// Settle every pending resize: the strict per-queue bound must hold
		// on a quiesced manager.
		for i := 0; i < m.NumQueues(); i++ {
			for q := m.QueueAt(i); q.pendingResize; {
				q.ForceApplyResize()
			}
		}
		for _, s := range m.Snapshot() {
			if s.Used > s.Capacity+1 {
				return false
			}
			if s.AppliedCapacity > s.Capacity {
				return false
			}
		}
		return m.CapacitySum() == start
	}
	// The formerly flaky seed (in-flight resizes push usage over the target
	// capacity) must now satisfy the documented invariant.
	if !f(6224889757895097368) {
		t.Fatal("known overshoot seed violates the applied-capacity invariant")
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestVictimPolicies: paying for every credit from a queue picked at random
// (Algorithm 1) moves memory to the queue that earns the credits and conserves
// the total.
func TestVictimPolicies(t *testing.T) {
	cfg := itemCfg()
	cfg.EnableCliffScaling = false
	m, err := NewManager(cfg, 3000, []QueueSpec{
		{ID: "hot", UnitCost: 1},
		{ID: "cold1", UnitCost: 1},
		{ID: "cold2", UnitCost: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		if rng.Float64() < 0.9 {
			m.Access("hot", fmt.Sprintf("h%d", rng.Intn(2000)), 1)
		} else if rng.Float64() < 0.5 {
			m.Access("cold1", fmt.Sprintf("c%d", rng.Intn(20)), 1)
		} else {
			m.Access("cold2", fmt.Sprintf("d%d", rng.Intn(20)), 1)
		}
	}
	if m.QueueAt(0).Capacity() <= 1000 {
		t.Fatalf("hot queue did not grow (capacity %d)", m.QueueAt(0).Capacity())
	}
	if m.CapacitySum() != 3000 {
		t.Fatalf("capacity not conserved")
	}
}

func TestResizeOnMissAblation(t *testing.T) {
	// With ResizeOnMissOnly disabled the algorithm still works; this is the
	// thrash-avoidance ablation. Verify both settings stay within capacity
	// and produce comparable hit rates.
	keys := cliffWorkload(29, 150000, 7000, 800, 0.8)
	run := func(onMiss bool) float64 {
		cfg := itemCfg()
		cfg.ResizeOnMissOnly = onMiss
		m, _ := NewManager(cfg, 5000, []QueueSpec{{ID: "q", UnitCost: 1}})
		var hits int64
		for _, k := range keys {
			if out, _ := m.Access("q", k, 1); out.Hit {
				hits++
			}
			if u := m.QueueAt(0).Used(); u > 5000+1 {
				t.Fatalf("usage %d above capacity", u)
			}
		}
		return float64(hits) / float64(len(keys))
	}
	a, b := run(true), run(false)
	t.Logf("resize-on-miss %.3f, resize-always %.3f", a, b)
	if a == 0 && b == 0 {
		t.Fatalf("both configurations produced zero hits")
	}
}

func TestFNV1aStability(t *testing.T) {
	// The splitter depends on fnv1a being deterministic and well spread.
	if fnv1a("hello") == fnv1a("world") {
		t.Fatalf("suspicious collision")
	}
	if fnv1a("abc") != fnv1a("abc") {
		t.Fatalf("hash must be deterministic")
	}
	buckets := [16]int{}
	for i := 0; i < 10000; i++ {
		buckets[fnv1a(fmt.Sprintf("key-%d", i))%16]++
	}
	for b, c := range buckets {
		if c < 300 || c > 1000 {
			t.Fatalf("bucket %d has %d keys; hash badly skewed", b, c)
		}
	}
}

func BenchmarkQueueAccessCombined(b *testing.B) {
	cfg := itemCfg()
	m, _ := NewManager(cfg, 1<<15, []QueueSpec{{ID: "q", UnitCost: 1}})
	keys := cliffWorkload(1, 1<<16, 40000, 4000, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access("q", keys[i&(len(keys)-1)], 1)
	}
}

func BenchmarkQueueAccessHillClimbingOnly(b *testing.B) {
	cfg := itemCfg().HillClimbingOnly()
	m, _ := NewManager(cfg, 1<<15, []QueueSpec{{ID: "a", UnitCost: 1}, {ID: "b", UnitCost: 1}})
	keys := cliffWorkload(1, 1<<16, 40000, 4000, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := "a"
		if i&3 == 0 {
			q = "b"
		}
		m.Access(q, keys[i&(len(keys)-1)], 1)
	}
}
