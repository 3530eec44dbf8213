package trace

// This file defines the synthetic stand-in for the week-long Memcachier
// trace of the paper's evaluation (top 20 applications by request count).
// The real trace is proprietary; the specification below is crafted so that
// the *structural* properties the paper's results depend on are present:
//
//   - applications with highly skewed request-size mixes, where the default
//     first-come-first-serve slab allocation starves the small, hot classes
//     (applications 4 and 6, Table 1);
//   - applications whose hit-rate curves have performance cliffs caused by
//     sequential scans (applications 1, 7, 10, 11, 18, 19 — the ones marked
//     with an asterisk in Figures 2 and 6), with application 19 having steep
//     cliffs in both of its classes plus a bursty class shift (Table 4,
//     Figures 4 and 9);
//   - applications with very high baseline hit rates and little headroom
//     (applications 3, 4, 5 — Tables 2 and 5);
//   - a large application holding most of a server's memory at a moderate
//     hit rate next to a starved small application (applications 1 and 2,
//     Table 3);
//   - applications that are simply over-provisioned and see little benefit
//     from any reallocation (several of 8-13, 15, 20);
//   - applications with time-varying class mixes that exercise hill
//     climbing's adaptivity (application 5, Figure 8).
//
// Absolute hit-rate values will differ from the paper; EXPERIMENTS.md records
// paper-vs-measured values for every experiment.

// MemcachierApps returns the 20-application synthetic workload specification.
// The scale parameter multiplies every application's memory budget and key
// space; scale 1.0 is the default used by cmd/cliffbench, while tests use
// smaller scales for speed. Scales below ~0.05 are clamped to 0.05 to keep
// key spaces meaningful.
func MemcachierApps(scale float64) []AppSpec {
	if scale <= 0.05 {
		scale = 0.05
	}
	k := func(n int) int { // scaled key count, at least 16
		v := int(float64(n) * scale)
		if v < 16 {
			v = 16
		}
		return v
	}
	mb := func(n float64) int64 { // scaled memory budget in MiB, at least 1
		v := int64(n * scale)
		if v < 1 {
			v = 1
		}
		return v
	}

	return []AppSpec{
		{
			// App 1: the dominant tenant — most of the memory, moderate hit
			// rate, plus a scanned class producing a cliff (asterisked in
			// the paper).
			ID: 1, MemoryMB: mb(48), RequestShare: 0.22, HasCliff: true,
			Classes: []ClassSpec{
				{ValueSize: 512, Keys: k(180000), Weight: 0.75, Pattern: PatternZipf, ZipfS: 1.03},
				{ValueSize: 4096, Keys: k(9000), Weight: 0.25, Pattern: PatternScanZipf, ScanFraction: 0.85, ZipfS: 1.2},
			},
		},
		{
			// App 2: small reservation, large working set -> low hit rate
			// that improves a lot with extra memory (Table 3).
			ID: 2, MemoryMB: mb(3), RequestShare: 0.14,
			Classes: []ClassSpec{
				{ValueSize: 256, Keys: k(120000), Weight: 1, Pattern: PatternZipf, ZipfS: 1.08},
			},
		},
		{
			// App 3: very high hit rate; its large-value class (slab class 9
			// under the default geometry: 32 KiB chunks) has the concave
			// curve shown in Figure 1.
			ID: 3, MemoryMB: mb(10), RequestShare: 0.10,
			Classes: []ClassSpec{
				{ValueSize: 128, Keys: k(30000), Weight: 0.65, Pattern: PatternZipf, ZipfS: 1.25},
				{ValueSize: 24 * 1024, Keys: k(700), Weight: 0.35, Pattern: PatternZipf, ZipfS: 1.3},
			},
		},
		{
			// App 4: 9% of GETs in a tiny-value class, 91% in a large-value
			// class with an enormous key space (Table 1: the large class
			// produces essentially all the misses).
			ID: 4, MemoryMB: mb(12), RequestShare: 0.09,
			Classes: []ClassSpec{
				{ValueSize: 64, Keys: k(12000), Weight: 0.09, Pattern: PatternZipf, ZipfS: 1.4},
				{ValueSize: 8192, Keys: k(60000), Weight: 0.91, Pattern: PatternZipf, ZipfS: 1.35},
			},
		},
		{
			// App 5: high hit rate across six slab classes whose mix shifts
			// over the week (Figure 8 shows memory moving between slabs 4-9).
			ID: 5, MemoryMB: mb(16), RequestShare: 0.08,
			Classes: []ClassSpec{
				{ValueSize: 768, Keys: k(9000), Weight: 0.25, Pattern: PatternZipf, ZipfS: 1.3},
				{ValueSize: 1536, Keys: k(7000), Weight: 0.22, Pattern: PatternZipf, ZipfS: 1.3},
				{ValueSize: 3 * 1024, Keys: k(5000), Weight: 0.18, Pattern: PatternZipf, ZipfS: 1.25},
				{ValueSize: 6 * 1024, Keys: k(3500), Weight: 0.15, Pattern: PatternZipf, ZipfS: 1.25},
				{ValueSize: 12 * 1024, Keys: k(2000), Weight: 0.12, Pattern: PatternZipf, ZipfS: 1.25},
				{ValueSize: 24 * 1024, Keys: k(1200), Weight: 0.08, Pattern: PatternZipf, ZipfS: 1.25},
			},
			Phases: []Phase{
				{Fraction: 0.35, ClassWeights: []float64{0.10, 0.12, 0.18, 0.20, 0.22, 0.18}},
				{Fraction: 0.35, ClassWeights: []float64{0.30, 0.28, 0.18, 0.10, 0.08, 0.06}},
				{Fraction: 0.30, ClassWeights: []float64{0.18, 0.18, 0.20, 0.20, 0.14, 0.10}},
			},
		},
		{
			// App 6: the Table-1 headliner — 70% of GETs go to a mid-size
			// class that the default allocation starves because a huge-value
			// class with 29% of GETs grabs the pages.
			ID: 6, MemoryMB: mb(20), RequestShare: 0.07,
			Classes: []ClassSpec{
				{ValueSize: 64, Keys: k(1500), Weight: 0.01, Pattern: PatternZipf, ZipfS: 1.3},
				{ValueSize: 256, Keys: k(55000), Weight: 0.70, Pattern: PatternZipf, ZipfS: 1.15},
				{ValueSize: 16 * 1024, Keys: k(40000), Weight: 0.29, Pattern: PatternZipf, ZipfS: 1.05},
			},
		},
		{
			// App 7: cliff application — a scanned class slightly larger
			// than its fair share.
			ID: 7, MemoryMB: mb(6), RequestShare: 0.05, HasCliff: true,
			Classes: []ClassSpec{
				{ValueSize: 512, Keys: k(9000), Weight: 0.45, Pattern: PatternScan},
				{ValueSize: 128, Keys: k(20000), Weight: 0.55, Pattern: PatternZipf, ZipfS: 1.2},
			},
		},
		{
			// App 8: comfortable zipf app, little headroom.
			ID: 8, MemoryMB: mb(8), RequestShare: 0.045,
			Classes: []ClassSpec{
				{ValueSize: 1024, Keys: k(6000), Weight: 1, Pattern: PatternZipf, ZipfS: 1.3},
			},
		},
		{
			// App 9: skewed two-class mix where the incremental algorithm
			// beats the offline solver (short queues, shifting mix).
			ID: 9, MemoryMB: mb(4), RequestShare: 0.04,
			Classes: []ClassSpec{
				{ValueSize: 128, Keys: k(30000), Weight: 0.6, Pattern: PatternZipf, ZipfS: 1.1},
				{ValueSize: 4096, Keys: k(2500), Weight: 0.4, Pattern: PatternZipf, ZipfS: 1.2},
			},
			Phases: []Phase{
				{Fraction: 0.5, ClassWeights: []float64{0.85, 0.15}},
				{Fraction: 0.5, ClassWeights: []float64{0.25, 0.75}},
			},
		},
		{
			// App 10: cliff application (scan plus zipf).
			ID: 10, MemoryMB: mb(5), RequestShare: 0.035, HasCliff: true,
			Classes: []ClassSpec{
				{ValueSize: 256, Keys: k(14000), Weight: 0.7, Pattern: PatternScanZipf, ScanFraction: 0.8, ZipfS: 1.25},
				{ValueSize: 2048, Keys: k(1800), Weight: 0.3, Pattern: PatternZipf, ZipfS: 1.3},
			},
		},
		{
			// App 11: cliff application; its scanned class is the Figure 3
			// example curve (a cliff around 10-20k items).
			ID: 11, MemoryMB: mb(8), RequestShare: 0.03, HasCliff: true,
			Classes: []ClassSpec{
				{ValueSize: 128, Keys: k(10000), Weight: 0.4, Pattern: PatternZipf, ZipfS: 1.2},
				{ValueSize: 1024, Keys: k(16000), Weight: 0.6, Pattern: PatternScanZipf, ScanFraction: 0.9, ZipfS: 1.1},
			},
		},
		{
			// App 12: over-provisioned, nothing to gain.
			ID: 12, MemoryMB: mb(6), RequestShare: 0.025,
			Classes: []ClassSpec{
				{ValueSize: 512, Keys: k(4000), Weight: 1, Pattern: PatternZipf, ZipfS: 1.4},
			},
		},
		{
			// App 13: two classes with mild skew; solver and Cliffhanger
			// perform similarly.
			ID: 13, MemoryMB: mb(6), RequestShare: 0.022,
			Classes: []ClassSpec{
				{ValueSize: 256, Keys: k(12000), Weight: 0.5, Pattern: PatternZipf, ZipfS: 1.2},
				{ValueSize: 2048, Keys: k(3000), Weight: 0.5, Pattern: PatternZipf, ZipfS: 1.2},
			},
		},
		{
			// App 14: strongly size-skewed -> large miss reduction from
			// reallocation (the paper reports >65% for apps 14, 16, 17).
			ID: 14, MemoryMB: mb(10), RequestShare: 0.02,
			Classes: []ClassSpec{
				{ValueSize: 128, Keys: k(40000), Weight: 0.8, Pattern: PatternZipf, ZipfS: 1.12},
				{ValueSize: 32 * 1024, Keys: k(8000), Weight: 0.2, Pattern: PatternZipf, ZipfS: 1.02},
			},
		},
		{
			// App 15: modest zipf app.
			ID: 15, MemoryMB: mb(4), RequestShare: 0.018,
			Classes: []ClassSpec{
				{ValueSize: 1024, Keys: k(5000), Weight: 1, Pattern: PatternZipf, ZipfS: 1.25},
			},
		},
		{
			// App 16: size-skewed like 14 but smaller.
			ID: 16, MemoryMB: mb(6), RequestShare: 0.016,
			Classes: []ClassSpec{
				{ValueSize: 64, Keys: k(50000), Weight: 0.75, Pattern: PatternZipf, ZipfS: 1.1},
				{ValueSize: 16 * 1024, Keys: k(5000), Weight: 0.25, Pattern: PatternZipf, ZipfS: 1.05},
			},
		},
		{
			// App 17: size-skewed with three classes.
			ID: 17, MemoryMB: mb(8), RequestShare: 0.015,
			Classes: []ClassSpec{
				{ValueSize: 128, Keys: k(35000), Weight: 0.6, Pattern: PatternZipf, ZipfS: 1.12},
				{ValueSize: 1024, Keys: k(9000), Weight: 0.25, Pattern: PatternZipf, ZipfS: 1.2},
				{ValueSize: 24 * 1024, Keys: k(6000), Weight: 0.15, Pattern: PatternZipf, ZipfS: 1.02},
			},
		},
		{
			// App 18: cliff application where the offline solver misfires
			// (the paper reports its misses increased 13.6x under the
			// solver).
			ID: 18, MemoryMB: mb(5), RequestShare: 0.014, HasCliff: true,
			Classes: []ClassSpec{
				{ValueSize: 512, Keys: k(7000), Weight: 0.65, Pattern: PatternScan},
				{ValueSize: 128, Keys: k(8000), Weight: 0.35, Pattern: PatternZipf, ZipfS: 1.3},
			},
		},
		{
			// App 19: the paper's showcase cliff application — steep cliffs
			// in both slab classes and a bursty shift from class 0 to class
			// 1 (Table 4, Figures 4 and 9).
			ID: 19, MemoryMB: mb(5), RequestShare: 0.013, HasCliff: true,
			Classes: []ClassSpec{
				{ValueSize: 256, Keys: k(13500), Weight: 0.6, Pattern: PatternScanZipf, ScanFraction: 0.92, ZipfS: 1.15},
				{ValueSize: 512, Keys: k(10000), Weight: 0.4, Pattern: PatternScanZipf, ScanFraction: 0.92, ZipfS: 1.15},
			},
			Phases: []Phase{
				{Fraction: 0.55, ClassWeights: []float64{0.9, 0.1}},
				{Fraction: 0.20, ClassWeights: []float64{0.15, 0.85}},
				{Fraction: 0.25, ClassWeights: []float64{0.6, 0.4}},
			},
		},
		{
			// App 20: small tail application.
			ID: 20, MemoryMB: mb(2), RequestShare: 0.012,
			Classes: []ClassSpec{
				{ValueSize: 256, Keys: k(6000), Weight: 1, Pattern: PatternZipf, ZipfS: 1.2},
			},
		},
	}
}
