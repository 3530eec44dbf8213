package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"cliffhanger/internal/trace"
)

// digest is a hash of everything a plan sends and of how it is dealt: each
// phase's requests per connection, in order, with their keys spelled out, and
// the boundaries of every client call.
func digest(p *plan) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	phases := append([]phase{p.warm}, p.settle...)
	phases = append(phases, p.paced, p.sat)
	var rest [8]byte
	for _, ph := range phases {
		for c := range ph.reqs {
			fmt.Fprintf(w, "conn %d: %d requests\n", c, len(ph.reqs[c]))
			for _, r := range ph.reqs[c] {
				w.WriteString(p.keys[r.key])
				binary.LittleEndian.PutUint32(rest[:], r.size)
				binary.LittleEndian.PutUint16(rest[4:], r.app)
				rest[6], rest[7] = byte(r.op), '\n'
				w.Write(rest[:])
			}
			binary.Write(w, binary.LittleEndian, ph.calls[c])
		}
	}
	w.Flush()
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestPlansAreDeterministic(t *testing.T) {
	const seconds = 0.5
	for _, s := range specs {
		a, err := newPlan(s, 1, seconds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(s, 1, seconds)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a) != digest(b) {
			t.Errorf("%s: the same seed gave two different sequences or dealings", s.name)
		}
		if a.tenants != b.tenants {
			t.Errorf("%s: the same seed gave two tenant layouts", s.name)
		}
		c, err := newPlan(s, 2, seconds)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", s.name)
		}
	}
}

func TestPhaseBoundariesAreRequestIndices(t *testing.T) {
	const seconds = 0.5
	for _, s := range specs {
		p, err := newPlan(s, 3, seconds)
		if err != nil {
			t.Fatal(err)
		}
		want := s.counts(seconds)
		if got := p.paced.ops(); got != want.paced || want.paced != int(s.pacedRate*seconds*pacedShare) {
			t.Errorf("%s: paced phase holds %d requests, want %d", s.name, got, want.paced)
		}
		if got := p.sat.ops(); got != want.sat {
			t.Errorf("%s: sat phase holds %d requests, want %d", s.name, got, want.sat)
		}
		settle := 0
		for i := range p.settle {
			if n := p.settle[i].ops(); n != settleWindow {
				t.Errorf("%s: settle window %d holds %d requests", s.name, i, n)
			}
			settle += settleWindow
		}
		if settle != want.settle {
			t.Errorf("%s: settle holds %d requests, want %d", s.name, settle, want.settle)
		}
		if total := p.warm.ops() + settle + p.paced.ops() + p.sat.ops(); total != len(p.seq) {
			t.Errorf("%s: phases hold %d requests, the sequence %d", s.name, total, len(p.seq))
		}
		// The paced phase is the stretch of the sequence that starts right
		// after warm-up and settling, whatever happened before it.
		first := p.seq[p.n.warm+p.n.settle]
		c := p.owner[first.key]
		if got := p.paced.reqs[c][0]; got != first {
			t.Errorf("%s: paced phase starts with %+v, sequence index %d is %+v", s.name, got, p.n.warm+p.n.settle, first)
		}
	}
}

func TestDealingKeepsAKeyOnOneConnection(t *testing.T) {
	for _, s := range specs {
		p, err := newPlan(s, 4, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		phases := append([]phase{p.warm, p.paced, p.sat}, p.settle...)
		var perConn [nConns]int
		for _, ph := range phases {
			for c := range ph.reqs {
				perConn[c] += len(ph.reqs[c])
				for _, r := range ph.reqs[c] {
					if int(p.owner[r.key]) != c {
						t.Fatalf("%s: key %q owned by connection %d sent on %d", s.name, p.keys[r.key], p.owner[r.key], c)
					}
				}
				for _, cl := range ph.calls[c] {
					rs := ph.reqs[c][cl.lo:cl.hi]
					if len(rs) == 0 || len(rs) > setupDepth {
						t.Fatalf("%s: a call of %d requests", s.name, len(rs))
					}
					for _, r := range rs {
						if len(rs) > 1 && (r.op != trace.OpGet || r.app != rs[0].app) {
							t.Fatalf("%s: a pipelined call mixes verbs or apps: %+v", s.name, rs)
						}
					}
				}
			}
		}
		for c, n := range perConn {
			if n == 0 {
				t.Errorf("%s: connection %d was dealt nothing", s.name, c)
			}
		}
		for _, cl := range p.paced.calls[0] {
			if int(cl.hi-cl.lo) > s.depth {
				t.Fatalf("%s: a measured call pipelines %d GETs, depth is %d", s.name, cl.hi-cl.lo, s.depth)
			}
		}
	}
}
