package store

import (
	"reflect"
	"sort"
	"testing"
)

// TestStoreSurface pins the exported method set of *Store: one entry point
// per verb, the ones internal/server and bench/ call. A string/byte twin or a
// second read path has to edit this list to arrive. BeginRead is the read
// path (a run of Reader.Get); GetItemView is its one-key case.
func TestStoreSurface(t *testing.T) {
	want := []string{
		"Add", "AppendBytes", "ArbiterStats", "ArbiterTick", "AuditConservation",
		"BeginRead", "ClassCapacities", "Close", "CompareAndSwap", "Decr", "Delete",
		"DeleteTenant", "DroppedEvents", "Flush", "FlushAll", "GetItemView",
		"Incr", "Items", "PageStats", "PrependBytes", "QueueSnapshots",
		"ReclaimStats", "RegisterTenant", "RegisterTenantConfig", "Replace",
		"ResizeTenant", "SetItemBytes", "SlabStats", "Stats", "TenantName",
		"Tenants", "Touch", "UsedBytes",
	}
	typ := reflect.TypeOf(&Store{})
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported *Store methods changed:\n got %v\nwant %v", got, want)
	}
}

// TestGetItemViewOutcomes checks the one read path across hit (flags and CAS
// carried), miss, expiry shedding and an unknown tenant.
func TestGetItemViewOutcomes(t *testing.T) {
	clock := int64(1000)
	s := New(Config{
		DefaultMode:     AllocCliffhanger,
		SyncBookkeeping: true,
		Now:             func() int64 { return clock },
	})
	defer s.Close()
	if err := s.RegisterTenant("app", 8<<20); err != nil {
		t.Fatal(err)
	}
	if err := s.SetItemBytes("app", []byte("k"), []byte("v"), 1234, 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.GetItemView("app", []byte("k"))
	if err != nil || !ok || string(v.Value) != "v" || v.Flags != 1234 || v.CAS == 0 {
		t.Fatalf("hit = %+v %v %v", v, ok, err)
	}
	v.Release()
	if v, ok, err := s.GetItemView("app", []byte("missing")); err != nil || ok || v.Value != nil {
		t.Fatalf("miss = %+v %v %v", v, ok, err)
	}
	if err := s.SetItemBytes("app", []byte("ttl"), []byte("v"), 0, 2000); err != nil {
		t.Fatal(err)
	}
	clock = 3000
	if _, ok, _ := s.GetItemView("app", []byte("ttl")); ok {
		t.Fatalf("expired record served")
	}
	st, err := s.Stats("app")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if _, ok, err := s.GetItemView("ghost", []byte("k")); err == nil || ok {
		t.Fatalf("unknown tenant must error")
	}
}
