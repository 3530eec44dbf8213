// Package trace defines the request model used throughout the repository and
// provides trace sources: file readers/writers and synthetic workload
// generators.
//
// The paper's evaluation replays a proprietary week-long trace of the top 20
// applications of Memcachier, a multi-tenant Memcached service, plus a
// Facebook-style micro-benchmark workload generated with Mutilate. Neither is
// publicly available, so this package provides parameterized synthetic
// equivalents (see memcachier.go and facebook.go) that reproduce the
// structural properties the algorithms respond to: Zipfian popularity,
// per-application slab-class mixes skewed across item sizes, sequential scans
// that produce performance cliffs, and bursty phase changes.
package trace

import (
	"fmt"
)

// Op is the type of a cache operation.
type Op uint8

const (
	// OpGet is a read. A miss is expected to be followed by a demand fill
	// (the simulator performs the fill implicitly).
	OpGet Op = iota
	// OpSet is a write/fill.
	OpSet
	// OpDelete removes a key.
	OpDelete
)

// String returns the memcached verb for the operation.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is one cache request.
type Request struct {
	// Time is seconds since the beginning of the trace.
	Time float64
	// App identifies the application (tenant). The Memcachier-like
	// generator numbers applications 1..20 to match the paper's figures.
	App int
	// Key is the cache key.
	Key string
	// Size is the value size in bytes (the item's cost for slab-class
	// selection). For OpGet it is the size the value would have on a fill.
	Size int64
	// Op is the operation type.
	Op Op
}

// Source yields a stream of requests. Implementations are not safe for
// concurrent use.
type Source interface {
	// Next returns the next request. ok is false when the source is
	// exhausted.
	Next() (r Request, ok bool)
}

// SliceSource is a Source backed by an in-memory slice.
type SliceSource struct {
	reqs []Request
	pos  int
}

// NewSliceSource returns a Source that yields the given requests in order.
func NewSliceSource(reqs []Request) *SliceSource {
	return &SliceSource{reqs: reqs}
}

// Next implements Source.
func (s *SliceSource) Next() (Request, bool) {
	if s.pos >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len reports the number of requests.
func (s *SliceSource) Len() int { return len(s.reqs) }

// Collect drains a source into a slice, up to max requests (0 = unlimited).
func Collect(src Source, max int) []Request {
	var out []Request
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// LimitSource wraps a source and stops after n requests.
type LimitSource struct {
	src  Source
	n    int
	seen int
}

// NewLimitSource returns a Source yielding at most n requests from src.
func NewLimitSource(src Source, n int) *LimitSource {
	return &LimitSource{src: src, n: n}
}

// Next implements Source.
func (l *LimitSource) Next() (Request, bool) {
	if l.seen >= l.n {
		return Request{}, false
	}
	r, ok := l.src.Next()
	if !ok {
		return Request{}, false
	}
	l.seen++
	return r, true
}

// FilterApp wraps a source and yields only requests belonging to app.
type FilterApp struct {
	src Source
	app int
}

// NewFilterApp returns a Source containing only requests of the given app.
func NewFilterApp(src Source, app int) *FilterApp {
	return &FilterApp{src: src, app: app}
}

// Next implements Source.
func (f *FilterApp) Next() (Request, bool) {
	for {
		r, ok := f.src.Next()
		if !ok {
			return Request{}, false
		}
		if r.App == f.app {
			return r, true
		}
	}
}
