// Command bench is the repository's one benchmark: it builds cliffhangerd
// from the tree it sits in, drives it over real sockets with four fixed,
// seeded workloads, and prints every end-to-end metric by name and unit; with
// -trace 1 it prints the per-layer ledger instead. README.md has the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// contractLine is the last line of standard output of a single-workload run,
// the shape the benchmark driver reads.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	out      string
	traceOut string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "respond" {
		respondMain() // the reference child, see reference.go
		return
	}
	var o options
	flag.StringVar(&o.root, "root", defaultRoot(), "repository root, the directory holding cmd/ and BENCHMARK.json (default $BENCH_ROOT, else ..)")
	flag.StringVar(&o.workload, "workload", "", "run this workload only and end with the driver's JSON line (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request sequences")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phases of one workload")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics and a span file instead of end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke test: about 2 s per workload, one set-up; the numbers are not comparable")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times, every time with -seed, and print median, quartiles and spread")
	flag.StringVar(&o.out, "out", "", "write every run's metrics and the provenance as JSON to this file (input of 'bench compare')")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/spans-<workload>.jsonl)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultRoot is where run.sh says the repository is; without it the
// benchmark assumes it was started in its own directory.
func defaultRoot() string {
	if r := os.Getenv("BENCH_ROOT"); r != "" {
		return r
	}
	return ".."
}

func run(o options) error {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "cliffhangerd")); err != nil {
		return fmt.Errorf("-root %s is not the repository: %v", root, err)
	}
	outDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if o.quick {
		o.seconds = 2
	}
	bin, err := buildDaemon(root, outDir)
	if err != nil {
		return err
	}

	selected := specs
	if o.workload != "" {
		s := specByName(o.workload)
		if s == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*spec{s}
	}
	report := newReport(root, o)
	ok := true
	for rep := 0; rep < o.repeat; rep++ {
		for _, s := range selected {
			res, err := runOne(bin, outDir, s, o)
			if err != nil {
				if o.repeat == 1 {
					return err
				}
				// One run of many failing its own check is recorded and
				// the set goes on.
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			res.print(o.quick)
			report.Runs = append(report.Runs, res)
			ok = ok && res.Correct
		}
	}
	if o.repeat > 1 {
		report.printSpread()
	}
	if o.out != "" {
		if err := report.write(o.out); err != nil {
			return err
		}
	}
	if o.workload != "" && o.repeat == 1 {
		r := report.Runs[0]
		line, err := json.Marshal(contractLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("a run failed its correctness check")
	}
	return nil
}

// runResult is one workload's run, as printed and as stored by -out.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are the sample counts, highest supported percentiles and
	// problems behind the metrics, for the reader.
	Notes      []string `json:"notes"`
	DaemonArgs []string `json:"daemon_args"`
}

func runOne(bin, outDir string, s *spec, o options) (*runResult, error) {
	p, err := newPlan(s, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	setups := setUps
	if o.quick || o.trace == 1 {
		setups = 1
	}
	w, err := runWire(bin, p, o.seconds, setups, o.trace == 1)
	if err != nil {
		return nil, err
	}
	m := w.measured()
	res := &runResult{
		Workload: s.name, Seed: o.seed, Traced: o.trace == 1,
		Correct:   len(w.problems) == 0,
		Attempted: m.ops(), Failed: m.failed,
		DaemonArgs: w.daemonArgs,
	}
	res.Notes = append(w.notes(), w.problems...)
	if o.trace != 1 {
		res.Metrics = w.endToEnd()
		return res, nil
	}
	res.Metrics = w.wireLayer()
	traceOut := o.traceOut
	if traceOut == "" {
		traceOut = filepath.Join(outDir, "spans-"+s.name+".jsonl")
	}
	notes, err := measureLayers(w, res.Metrics, traceOut)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, notes...)
	return res, nil
}

func (r *runResult) print(quick bool) {
	kind := "end to end"
	if r.Traced {
		kind = "per layer"
	}
	fmt.Printf("== %s  seed %d  %s  correct=%v  attempted=%d failed=%d (fail_ratio %.6f)\n",
		r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	if quick {
		fmt.Println("   -quick: a smoke test; these numbers are NOT comparable with any other run")
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		fmt.Println("   #", n)
	}
}
