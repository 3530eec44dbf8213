package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if OpGet.String() != "get" || OpSet.String() != "set" || OpDelete.String() != "delete" {
		t.Fatalf("unexpected op strings: %v %v %v", OpGet, OpSet, OpDelete)
	}
	if !strings.HasPrefix(Op(9).String(), "op(") {
		t.Fatalf("unknown op should format as op(n)")
	}
}

func TestSliceSourceAndHelpers(t *testing.T) {
	reqs := []Request{
		{App: 1, Key: "a", Size: 10, Op: OpGet},
		{App: 2, Key: "b", Size: 20, Op: OpSet},
		{App: 1, Key: "c", Size: 30, Op: OpGet},
	}
	src := NewSliceSource(reqs)
	if src.Len() != 3 {
		t.Fatalf("Len = %d", src.Len())
	}
	got := Collect(src, 0)
	if len(got) != 3 || got[2].Key != "c" {
		t.Fatalf("Collect = %+v", got)
	}
	src.Reset()
	limited := Collect(NewLimitSource(src, 2), 0)
	if len(limited) != 2 {
		t.Fatalf("LimitSource yielded %d", len(limited))
	}
	src.Reset()
	capped := Collect(src, 1)
	if len(capped) != 1 {
		t.Fatalf("Collect with max = %d entries", len(capped))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	reqs := []Request{
		{Time: 0.5, App: 3, Key: "a1.c0.k42", Size: 128, Op: OpGet},
		{Time: 1.25, App: 19, Key: "x", Size: 65536, Op: OpSet},
		{Time: 2.0, App: 7, Key: strings.Repeat("k", 300), Size: 1, Op: OpDelete},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got := Collect(r, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(reqs) {
		t.Fatalf("read %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("request %d round-trip mismatch: %+v != %+v", i, got[i], reqs[i])
		}
	}
}

func TestBinaryReaderRejectsGarbage(t *testing.T) {
	r := NewReader(bytes.NewBufferString("not a trace file at all"))
	if _, ok := r.Next(); ok {
		t.Fatalf("garbage input should not yield requests")
	}
	if r.Err() == nil {
		t.Fatalf("garbage input should set an error")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(times []float64, apps []uint8, sizes []uint16) bool {
		n := len(times)
		if len(apps) < n {
			n = len(apps)
		}
		if len(sizes) < n {
			n = len(sizes)
		}
		reqs := make([]Request, 0, n)
		for i := 0; i < n; i++ {
			tm := times[i]
			if math.IsNaN(tm) || math.IsInf(tm, 0) {
				tm = 0
			}
			reqs = append(reqs, Request{
				Time: tm,
				App:  int(apps[i]),
				Key:  KeyName(int(apps[i]), i%7, i),
				Size: int64(sizes[i]),
				Op:   Op(apps[i] % 3),
			})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		if len(reqs) == 0 {
			return true
		}
		got := Collect(NewReader(&buf), 0)
		if len(got) != len(reqs) {
			return false
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("1.500,1,get,64,k1\n2.500,2,set,128,k2\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Request{
		{Time: 1.5, App: 1, Key: "k1", Size: 64, Op: OpGet},
		{Time: 2.5, App: 2, Key: "k2", Size: 128, Op: OpSet},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ReadCSV = %+v, want %+v", got, want)
	}
	if _, err := ReadCSV(strings.NewReader("bad,line,here,not,valid\n")); err == nil {
		t.Fatalf("invalid CSV should error")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := GeneratorConfig{
		Apps:     MemcachierApps(0.1),
		Requests: 5000,
		Seed:     99,
	}
	a := Collect(NewGenerator(cfg), 0)
	b := Collect(NewGenerator(cfg), 0)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("generator emitted %d/%d requests, want 5000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic generation at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed should produce a different stream.
	cfg.Seed = 100
	c := Collect(NewGenerator(cfg), 0)
	same := 0
	for i := range a {
		if a[i].Key == c[i].Key {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestGeneratorSharesAndTimestamps(t *testing.T) {
	apps := []AppSpec{
		{ID: 1, RequestShare: 0.8, MemoryMB: 1, Classes: []ClassSpec{{ValueSize: 64, Keys: 100, Weight: 1}}},
		{ID: 2, RequestShare: 0.2, MemoryMB: 1, Classes: []ClassSpec{{ValueSize: 64, Keys: 100, Weight: 1}}},
	}
	g := NewGenerator(GeneratorConfig{Apps: apps, Requests: 20000, Seed: 1, Duration: 100})
	counts := map[int]int{}
	lastTime := -1.0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		counts[r.App]++
		if r.Time < lastTime {
			t.Fatalf("timestamps must be non-decreasing: %v after %v", r.Time, lastTime)
		}
		if r.Time < 0 || r.Time > 100 {
			t.Fatalf("timestamp %v outside duration", r.Time)
		}
		lastTime = r.Time
	}
	frac1 := float64(counts[1]) / 20000
	if math.Abs(frac1-0.8) > 0.03 {
		t.Fatalf("app 1 received %.3f of requests, want ~0.8", frac1)
	}
}

func TestGeneratorScanPatternCycles(t *testing.T) {
	apps := []AppSpec{
		{ID: 1, RequestShare: 1, MemoryMB: 1, Classes: []ClassSpec{
			{ValueSize: 64, Keys: 50, Weight: 1, Pattern: PatternScan},
		}},
	}
	g := NewGenerator(GeneratorConfig{Apps: apps, Requests: 150, Seed: 1})
	reqs := Collect(g, 0)
	// A pure scan visits keys 0..49 in order, repeatedly.
	for i, r := range reqs {
		want := KeyName(1, 0, i%50)
		if r.Key != want {
			t.Fatalf("request %d key %q, want %q", i, r.Key, want)
		}
	}
}

func TestGeneratorPhasesShiftMix(t *testing.T) {
	apps := []AppSpec{
		{ID: 1, RequestShare: 1, MemoryMB: 1,
			Classes: []ClassSpec{
				{ValueSize: 64, Keys: 100, Weight: 0.5},
				{ValueSize: 128, Keys: 100, Weight: 0.5},
			},
			Phases: []Phase{
				{Fraction: 0.5, ClassWeights: []float64{1, 0}},
				{Fraction: 0.5, ClassWeights: []float64{0, 1}},
			},
		},
	}
	g := NewGenerator(GeneratorConfig{Apps: apps, Requests: 10000, Seed: 2})
	reqs := Collect(g, 0)
	firstHalfClass0, secondHalfClass0 := 0, 0
	for i, r := range reqs {
		isClass0 := strings.Contains(r.Key, ".c0.")
		if i < len(reqs)/2 && isClass0 {
			firstHalfClass0++
		}
		if i >= len(reqs)/2 && isClass0 {
			secondHalfClass0++
		}
	}
	if firstHalfClass0 < 4500 {
		t.Fatalf("phase 1 should be dominated by class 0, got %d/5000", firstHalfClass0)
	}
	if secondHalfClass0 > 500 {
		t.Fatalf("phase 2 should be dominated by class 1, got %d class-0 requests", secondHalfClass0)
	}
}

func TestMemcachierSpecShape(t *testing.T) {
	apps := MemcachierApps(1.0)
	if len(apps) != 20 {
		t.Fatalf("expected 20 applications, got %d", len(apps))
	}
	seen := map[int]bool{}
	for _, a := range apps {
		if a.ID < 1 || a.ID > 20 || seen[a.ID] {
			t.Fatalf("bad or duplicate app ID %d", a.ID)
		}
		seen[a.ID] = true
		if a.MemoryMB <= 0 || len(a.Classes) == 0 {
			t.Fatalf("app %d has no memory or classes", a.ID)
		}
		for _, c := range a.Classes {
			if c.Keys <= 0 || c.ValueSize <= 0 {
				t.Fatalf("app %d has invalid class %+v", a.ID, c)
			}
		}
	}
	var cliffs []int
	for _, a := range apps {
		if a.HasCliff {
			cliffs = append(cliffs, a.ID)
		}
	}
	want := []int{1, 7, 10, 11, 18, 19}
	if len(cliffs) != len(want) {
		t.Fatalf("cliff apps = %v, want %v", cliffs, want)
	}
	for i := range want {
		if cliffs[i] != want[i] {
			t.Fatalf("cliff apps = %v, want %v", cliffs, want)
		}
	}
}

func TestMemcachierScaleClamp(t *testing.T) {
	tiny := MemcachierApps(0.0001)
	for _, a := range tiny {
		if a.MemoryMB < 1 {
			t.Fatalf("scaled memory must stay >= 1 MiB")
		}
		for _, c := range a.Classes {
			if c.Keys < 16 {
				t.Fatalf("scaled key space must stay >= 16")
			}
		}
	}
}

func TestFacebookGeneratorDistributions(t *testing.T) {
	g := NewFacebookGenerator(FacebookConfig{Requests: 20000, Seed: 5, Keys: 10000})
	gets, sets := 0, 0
	var valueSum float64
	var large int
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		switch r.Op {
		case OpGet:
			gets++
		case OpSet:
			sets++
		}
		if len(r.Key) < 16 || len(r.Key) > 48 {
			t.Fatalf("key length %d outside [16,48]", len(r.Key))
		}
		if r.Size < 32 || r.Size > 1<<20 {
			t.Fatalf("value size %d outside bounds", r.Size)
		}
		if r.Size > 4096 {
			large++
		}
		valueSum += float64(r.Size)
	}
	frac := float64(gets) / float64(gets+sets)
	if math.Abs(frac-0.967) > 0.01 {
		t.Fatalf("GET fraction = %.3f, want ~0.967", frac)
	}
	mean := valueSum / 20000
	if mean < 64 || mean > 8192 {
		t.Fatalf("mean value size %.1f outside plausible range", mean)
	}
	if large == 0 {
		t.Fatalf("value-size distribution should have a heavy tail")
	}
}

func TestFacebookUniqueKeysAllMiss(t *testing.T) {
	g := NewFacebookGenerator(FacebookConfig{Requests: 5000, Seed: 1, UniqueKeys: true})
	seen := map[string]bool{}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if seen[r.Key] {
			t.Fatalf("unique-key workload repeated key %q", r.Key)
		}
		seen[r.Key] = true
	}
	if len(seen) != 5000 {
		t.Fatalf("expected 5000 unique keys, got %d", len(seen))
	}
}

func TestSampleDistributionsDeterministic(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if SampleFacebookKeySize(a) != SampleFacebookKeySize(b) {
			t.Fatalf("key size sampling not deterministic")
		}
		if SampleFacebookValueSize(a) != SampleFacebookValueSize(b) {
			t.Fatalf("value size sampling not deterministic")
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := NewGenerator(GeneratorConfig{Apps: MemcachierApps(0.2), Requests: int64(b.N) + 1, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatalf("generator exhausted early")
		}
	}
}

func BenchmarkFacebookGeneratorNext(b *testing.B) {
	g := NewFacebookGenerator(FacebookConfig{Requests: int64(b.N) + 1, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatalf("generator exhausted early")
		}
	}
}
