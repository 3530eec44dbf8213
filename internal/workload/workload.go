// Package workload puts every request source the repository knows behind the
// single trace.Source interface and gives the binaries one way to open them:
// the classic cliffbench Zipf sampler (now supporting any skew s > 0 via
// rejection-inversion sampling), the synthetic Memcachier 20-application
// generator, the Facebook-ETC generator, and recorded trace files in the
// binary or CSV formats of trace/io. The paper's evaluation is trace replay
// against a live multi-tenant server; this package is what lets the load
// generator and the sim-vs-wire verification harness (verify.go) drive those
// workloads over a real socket instead of only inside internal/sim.
//
// Open("memcachier", ...) also surfaces the tenant layout the trace
// addresses, so callers can map application IDs onto real server tenants
// (sim.TenantName) and print the matching cliffhangerd -tenants flag
// (TenantSpec). Pacer schedules open-loop (fixed-rate) injection so latency
// under load is measured from scheduled send times, not from whenever the
// closed loop got around to sending.
package workload

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"cliffhanger/internal/sim"
	"cliffhanger/internal/trace"
)

// defaultRequests bounds synthetic sources when Options.Requests is unset.
// It is effectively "unbounded" for duration-limited load runs.
const defaultRequests = int64(1) << 40

// DefaultZipfKeys is the zipf source's key-space size when Options.Keys is
// unset.
const DefaultZipfKeys = 100000

// Options parameterizes Open. The zero value is usable: each field falls
// back to the underlying source's default.
type Options struct {
	// Requests bounds the stream; <= 0 means defaultRequests for synthetic
	// sources and the whole file for file traces.
	Requests int64
	// Seed seeds the deterministic random sources.
	Seed int64
	// Keys is the key-space size; 0 means the source's own default
	// (DefaultZipfKeys for zipf, 1<<20 for facebook).
	Keys int
	// ZipfS is the zipf source's skew; any value > 0 (default 1.1).
	ZipfS float64
	// ValueSize is the zipf source's value size in bytes (default 256).
	ValueSize int
	// GetFraction is the share of GETs for the zipf and Facebook sources
	// (defaults 0.9 and 0.967 respectively).
	GetFraction float64
	// Scale multiplies the Memcachier workload's memory budgets and key
	// spaces (default 1.0).
	Scale float64
	// MemoryMB is the tenant reservation attributed to the single-app
	// sources (zipf, facebook) in the layout Open reports (default 64).
	MemoryMB int64
}

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = defaultRequests
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.1
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 256
	}
	if o.GetFraction <= 0 {
		o.GetFraction = 0.9
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.MemoryMB <= 0 {
		o.MemoryMB = 64
	}
	return o
}

// Workload couples an opened Source with the tenant layout it implies.
type Workload struct {
	// Name is the normalized source name: "zipf", "facebook", "memcachier"
	// or "file".
	Name string
	// Source yields the request stream. Not safe for concurrent use.
	Source trace.Source
	// Apps is the application layout the trace addresses — the 20-app
	// Memcachier specification, or a single-app spec for zipf/facebook. Nil
	// for file traces, whose app population is unknown without a scan.
	Apps []trace.AppSpec

	errFn   func() error
	closeFn func() error
}

// Err reports a deferred source error (a corrupt or truncated trace file);
// call it once the source is exhausted. Always nil for synthetic sources.
func (w *Workload) Err() error {
	if w.errFn != nil {
		return w.errFn()
	}
	return nil
}

// Close releases the underlying file, if any.
func (w *Workload) Close() error {
	if w.closeFn != nil {
		return w.closeFn()
	}
	return nil
}

// Open builds the workload named by spec: "zipf", "facebook", "memcachier",
// or "file:<path>" for a recorded trace (binary trace/io format, sniffed by
// magic, or the CSV format, which is loaded into memory). Opening the same
// spec with the same Options twice yields identically-seeded streams — the
// property the sim-vs-wire cross-check depends on.
func Open(spec string, o Options) (*Workload, error) {
	o = o.withDefaults()
	if path, ok := strings.CutPrefix(spec, "file:"); ok {
		return openFile(path, o)
	}
	switch spec {
	case "zipf":
		if o.Keys <= 0 {
			o.Keys = DefaultZipfKeys
		}
		rng := rand.New(rand.NewSource(o.Seed))
		return &Workload{
			Name: "zipf",
			Source: &zipfSource{
				o:   o,
				rng: rng,
				z:   NewZipf(rng, o.ZipfS, uint64(o.Keys)),
			},
			Apps: []trace.AppSpec{{ID: 1, MemoryMB: o.MemoryMB, RequestShare: 1}},
		}, nil
	case "facebook":
		cfg := trace.FacebookConfig{
			Keys:        o.Keys, // 0 = the generator's own default
			GetFraction: o.GetFraction,
			Requests:    o.Requests,
			Seed:        o.Seed,
		}
		return &Workload{
			Name:   "facebook",
			Source: trace.NewFacebookGenerator(cfg),
			Apps:   []trace.AppSpec{{ID: 1, MemoryMB: o.MemoryMB, RequestShare: 1}},
		}, nil
	case "memcachier":
		apps := trace.MemcachierApps(o.Scale)
		return &Workload{
			Name: "memcachier",
			Source: trace.NewGenerator(trace.GeneratorConfig{
				Apps:     apps,
				Requests: o.Requests,
				Seed:     o.Seed,
			}),
			Apps: apps,
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown trace %q (want zipf, facebook, memcachier or file:<path>)", spec)
	}
}

// openFile opens a recorded trace, sniffing the binary format's magic and
// falling back to CSV.
func openFile(path string, o Options) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(4)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: reading %s: %v", path, err)
	}
	w := &Workload{Name: "file", closeFn: f.Close}
	if trace.SniffBinary(head) {
		r := trace.NewReader(br)
		w.Source = r
		w.errFn = r.Err
	} else {
		reqs, err := trace.ReadCSV(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("workload: parsing %s as CSV: %v", path, err)
		}
		w.Source = trace.NewSliceSource(reqs)
	}
	if o.Requests > 0 && o.Requests != defaultRequests {
		w.Source = trace.NewLimitSource(w.Source, int(o.Requests))
	}
	return w, nil
}

// zipfSource is the classic cliffbench workload as a Source: GETs over a
// fixed key space with Zipf(s) popularity for any s > 0, and explicit SETs
// for the non-GET share. Misses are expected to be demand-filled by the
// replayer, like every other source.
type zipfSource struct {
	o       Options
	rng     *rand.Rand
	z       *Zipf
	emitted int64
}

// Next implements trace.Source.
func (s *zipfSource) Next() (trace.Request, bool) {
	if s.emitted >= s.o.Requests {
		return trace.Request{}, false
	}
	t := float64(s.emitted) / 10000.0
	s.emitted++
	op := trace.OpGet
	if s.rng.Float64() >= s.o.GetFraction {
		op = trace.OpSet
	}
	return trace.Request{
		Time: t,
		App:  1,
		Key:  ZipfKey(int(s.z.Uint64())),
		Size: int64(s.o.ValueSize),
		Op:   op,
	}, true
}

// ZipfKey is the canonical key for rank i of the zipf source's key space
// (shared with cliffbench's warmup pass).
func ZipfKey(i int) string { return "bench-" + strconv.Itoa(i) }

// TenantName is the server tenant name for application id — re-exported
// from sim so trace replayers need not import the simulator.
func TenantName(app int) string { return sim.TenantName(app) }

// TenantSpec renders an application layout as the name:MB list that
// cliffhangerd's -tenants flag takes (e.g. "app1:48,app2:3,..."), so a
// server can be started with exactly the tenants a trace addresses. Names
// come from sim.TenantName, the same mapping the replayer and the
// cross-check harness use.
func TenantSpec(apps []trace.AppSpec) string {
	var b strings.Builder
	for i, a := range apps {
		if i > 0 {
			b.WriteByte(',')
		}
		mb := a.MemoryMB
		if mb < 1 {
			mb = 1
		}
		fmt.Fprintf(&b, "%s:%d", sim.TenantName(a.ID), mb)
	}
	return b.String()
}
