package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cliffhanger/internal/trace"
)

func collect(t *testing.T, w *Workload, max int) []trace.Request {
	t.Helper()
	reqs := trace.Collect(w.Source, max)
	if err := w.Err(); err != nil {
		t.Fatalf("source error: %v", err)
	}
	return reqs
}

// TestOpenZipfLowSkewAndDeterminism covers the satellite fix: a zipf spec
// with s <= 1 must open (the old cliffbench hard-failed on it) and identical
// options must produce identical streams.
func TestOpenZipfLowSkewAndDeterminism(t *testing.T) {
	o := Options{Requests: 5000, Seed: 11, Keys: 2000, ZipfS: 0.9, ValueSize: 128, GetFraction: 0.8}
	a, err := Open("zipf", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open("zipf", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Apps) != 1 || a.Apps[0].ID != 1 {
		t.Fatalf("zipf layout = %+v, want one app", a.Apps)
	}
	ra, rb := collect(t, a, 0), collect(t, b, 0)
	if len(ra) != 5000 || len(rb) != 5000 {
		t.Fatalf("request counts = %d, %d, want 5000", len(ra), len(rb))
	}
	var sets int
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("request %d diverged: %+v vs %+v", i, ra[i], rb[i])
		}
		if !strings.HasPrefix(ra[i].Key, "bench-") || ra[i].Size != 128 || ra[i].App != 1 {
			t.Fatalf("malformed request %+v", ra[i])
		}
		if ra[i].Op == trace.OpSet {
			sets++
		}
	}
	// GetFraction 0.8 → roughly 20% sets.
	if frac := float64(sets) / float64(len(ra)); frac < 0.15 || frac > 0.25 {
		t.Fatalf("set fraction = %.3f, want ~0.2", frac)
	}
}

func TestOpenMemcachierAndFacebook(t *testing.T) {
	m, err := Open("memcachier", Options{Requests: 2000, Seed: 3, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Apps) != 20 {
		t.Fatalf("memcachier layout has %d apps, want 20", len(m.Apps))
	}
	seen := map[int]bool{}
	for _, r := range collect(t, m, 0) {
		if r.App < 1 || r.App > 20 {
			t.Fatalf("app %d out of range", r.App)
		}
		seen[r.App] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct apps in 2000 requests", len(seen))
	}

	f, err := Open("facebook", Options{Requests: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Apps) != 1 {
		t.Fatalf("facebook layout = %+v", f.Apps)
	}
	if got := len(collect(t, f, 0)); got != 1000 {
		t.Fatalf("facebook emitted %d requests, want 1000", got)
	}

	if _, err := Open("mystery", Options{}); err == nil {
		t.Fatal("unknown spec should error")
	}
}

func TestOpenFileBinaryAndCSV(t *testing.T) {
	dir := t.TempDir()
	want := []trace.Request{
		{Time: 0.5, App: 1, Key: "alpha", Size: 100, Op: trace.OpGet},
		{Time: 1.0, App: 2, Key: "beta", Size: 200, Op: trace.OpSet},
		{Time: 1.5, App: 1, Key: "gamma", Size: 300, Op: trace.OpDelete},
	}

	bin := filepath.Join(dir, "t.clft")
	bf, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	tw := trace.NewWriter(bf)
	for _, r := range want {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	csv := filepath.Join(dir, "t.csv")
	text := "0.500,1,get,100,alpha\n1.000,2,set,200,beta\n1.500,1,delete,300,gamma\n"
	if err := os.WriteFile(csv, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{bin, csv} {
		w, err := Open("file:"+path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, w, 0)
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests, want %d", path, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: request %d = %+v, want %+v", path, i, got[i], want[i])
			}
		}
		if w.Apps != nil {
			t.Fatalf("file traces must not claim a tenant layout")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The request bound applies to files too.
	w, err := Open("file:"+bin, Options{Requests: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, w, 0)); got != 2 {
		t.Fatalf("limited file source emitted %d, want 2", got)
	}
	w.Close()

	if _, err := Open("file:"+filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestTenantSpec(t *testing.T) {
	apps := []trace.AppSpec{{ID: 1, MemoryMB: 48}, {ID: 2, MemoryMB: 3}}
	if got := TenantSpec(apps); got != "app1:48,app2:3" {
		t.Fatalf("TenantSpec = %q", got)
	}
	// Budgets below 1 MiB are clamped so the spec stays valid for
	// cliffhangerd's parser.
	if got := TenantSpec([]trace.AppSpec{{ID: 5, MemoryMB: 0}}); got != "app5:1" {
		t.Fatalf("TenantSpec clamp = %q", got)
	}
}

func TestPacerSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	p := NewPacer(start, 1000) // 1ms per request
	if due := p.Next(10); !due.Equal(start) {
		t.Fatalf("first batch due %v, want %v", due, start)
	}
	if due := p.Next(5); !due.Equal(start.Add(10 * time.Millisecond)) {
		t.Fatalf("second batch due %v, want start+10ms", due)
	}
	if due := p.Next(1); !due.Equal(start.Add(15 * time.Millisecond)) {
		t.Fatalf("third batch due %v, want start+15ms", due)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive rate should panic")
		}
	}()
	NewPacer(start, 0)
}
