package store_test

import (
	"testing"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// TestArenaLeasesFollowResidencyMemcachier is the twenty-tenant form of
// TestArenaLeasesFollowResidency: the synthetic Memcachier trace at a quarter
// scale (45 MiB of reservations, 1 to 12 MiB each, the layout the repository
// benchmark's cliff_fill workload serves) replayed with read-through fills.
// Every class of every tenant must hold no more pages than its peak resident
// chunks needed plus one, and the twenty tenants together no more than 70.
func TestArenaLeasesFollowResidencyMemcachier(t *testing.T) {
	// Enough for every tenant to fill its reservation and churn past it.
	requests := int64(120000)
	if testing.Short() {
		requests = 60000
	}
	for _, syncBk := range []bool{true, false} {
		name := "async"
		if syncBk {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			wl, err := workload.Open("memcachier", workload.Options{Requests: requests, Seed: 1, Scale: 0.25})
			if err != nil {
				t.Fatal(err)
			}
			defer wl.Close()
			s := store.New(store.Config{DefaultMode: store.AllocCliffhanger, DefaultPolicy: cache.PolicyLRU, SyncBookkeeping: syncBk})
			defer s.Close()
			peak := make(map[string][]int64, len(wl.Apps))
			for _, app := range wl.Apps {
				tenant := workload.TenantName(app.ID)
				if err := s.RegisterTenant(tenant, app.MemoryMB<<20); err != nil {
					t.Fatal(err)
				}
				classes, err := s.SlabStats(tenant)
				if err != nil {
					t.Fatal(err)
				}
				peak[tenant] = make([]int64, len(classes))
			}
			payload := make([]byte, 1<<20)
			sets := 0
			fill := func(tenant string, r trace.Request) {
				// A value beyond the largest class, or one admission bounces,
				// is an outcome of the trace, not a failure.
				_ = s.SetItemBytes(tenant, []byte(r.Key), workload.PadValue(payload, r), 0, 0)
				classes, err := s.SlabStats(tenant)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range classes {
					peak[tenant][st.Class] = max(peak[tenant][st.Class], st.UsedChunks)
				}
				// Settle like a client that pipelines eight deep, as in the
				// single-tenant test.
				if sets++; sets%8 == 0 {
					s.Flush()
				}
			}
			for {
				r, ok := wl.Source.Next()
				if !ok {
					break
				}
				tenant := workload.TenantName(r.App)
				switch r.Op {
				case trace.OpDelete:
					if _, err := s.Delete(tenant, r.Key); err != nil {
						t.Fatal(err)
					}
				case trace.OpSet:
					fill(tenant, r)
				default:
					v, hit, err := s.GetItemView(tenant, []byte(r.Key))
					if err != nil {
						t.Fatal(err)
					}
					v.Release()
					if !hit {
						fill(tenant, r)
					}
				}
			}
			s.Flush()
			var leased int64
			for tenant := range peak {
				if err := s.AuditConservation(tenant); err != nil {
					t.Errorf("%s: %v", tenant, err)
				}
				classes, err := s.SlabStats(tenant)
				if err != nil {
					t.Fatal(err)
				}
				store.AssertPagesFollowPeak(t, tenant, classes, peak[tenant])
				leased += s.PageStats().Leases[tenant]
			}
			if leased > 70 {
				t.Errorf("twenty tenants lease %d pages for 45 MiB of reservations, want <= 70", leased)
			}
		})
	}
}
