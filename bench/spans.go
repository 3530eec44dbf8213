package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its call into that layer. Sub-microsecond layers are timed a batch
// at a time: count says how many calls the interval covers.
type span struct {
	name   string
	start  int64 // ns since the tracer's origin
	end    int64
	parent int32 // index of the span that caused this one, -1 for a root
	req    int64 // request id shared by the spans of one request (or batch)
	count  int32
}

// tracer keeps spans in memory until the run ends. One goroutine owns one
// tracer; traced phases that use several goroutines merge theirs at the end.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32, count int) {
	s := &t.spans[id]
	s.end = int64(time.Since(t.origin))
	s.count = int32(count)
}

// layerTime is one layer's total over a trace: self is span time not covered
// by child spans, count the calls the spans stand for.
type layerTime struct {
	self  int64
	count int64
}

func (l layerTime) nsPerOp() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(l.count)
}

// selfTimes sums, per span name, each span's duration minus its children's.
func (t *tracer) selfTimes() map[string]layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		l := out[s.name]
		l.self += s.end - s.start - child[i]
		l.count += int64(s.count)
		out[s.name] = l
	}
	return out
}

// writeSpans writes every tracer's spans to path as JSON lines: a header
// naming the columns, then one array per span. Parents are indices within
// the same tracer, so each line carries its tracer's number.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, `{"columns":["tracer","index","name","start_ns","end_ns","parent","request","count"]}`)
	for ti, t := range tracers {
		for i, s := range t.spans {
			name, _ := json.Marshal(s.name)
			fmt.Fprintf(w, "[%d,%d,%s,%d,%d,%d,%d,%d]\n", ti, i, name, s.start, s.end, s.parent, s.req, s.count)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedNames(m map[string]layerTime) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
