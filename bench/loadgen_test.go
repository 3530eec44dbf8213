package main

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cliffhanger/internal/protocol"
	"cliffhanger/internal/trace"
)

// TestMain lets the test binary serve as the reference child: the load
// generator re-executes its own binary with "respond".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "respond" {
		respondMain()
		return
	}
	os.Exit(m.Run())
}

// fakeServer speaks just enough of the protocol to misbehave on purpose: it
// stores what it is sent, returns the value of corruptKey with one byte
// flipped, and refuses to store refuseKey.
func fakeServer(t *testing.T, corruptKey, refuseKey string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				values := make(map[string][]byte)
				parser := protocol.NewParser(bufio.NewReader(c))
				w := bufio.NewWriter(c)
				for {
					cmd, err := parser.ReadCommand()
					if err != nil {
						return
					}
					key := string(cmd.Keys[0])
					switch cmd.Name {
					case protocol.VerbSet:
						if key == refuseKey {
							protocol.WriteLine(w, "SERVER_ERROR out of memory storing object")
							break
						}
						values[key] = append([]byte(nil), cmd.Data...)
						protocol.WriteLine(w, "STORED")
					case protocol.VerbGet:
						var vals []protocol.Value
						if v, ok := values[key]; ok {
							if key == corruptKey {
								v = append([]byte(nil), v...)
								v[len(v)/2] ^= 0x20
							}
							vals = append(vals, protocol.Value{Key: key, Data: v})
						}
						protocol.WriteValues(w, vals, false)
					case protocol.VerbDelete:
						delete(values, key)
						protocol.WriteLine(w, "DELETED")
					}
					if w.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// handPlan is a single-connection plan over the given keys, all of one size.
func handPlan(keys ...string) *plan {
	p := &plan{spec: &spec{name: "hand", depth: 1}, keyIdx: make(map[string]uint32)}
	for _, k := range keys {
		p.intern(k)
	}
	p.owner = make([]uint8, len(keys))
	p.patOff = make([]uint8, len(keys))
	for i := range p.patOff {
		p.patOff[i] = uint8(3 * i)
	}
	p.pattern = make([]byte, 256)
	for i := range p.pattern {
		p.pattern[i] = byte('a' + i%26)
	}
	return p
}

func TestCorruptValueAndServerErrorCountAsFailed(t *testing.T) {
	p := handPlan("good", "corrupt", "refused")
	d, err := dialConn(p, fakeServer(t, "corrupt", "refused"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.c.Close()
	const size = 64
	reqs := []request{
		{key: 0, size: size, op: trace.OpSet},
		{key: 1, size: size, op: trace.OpSet},
		{key: 2, size: size, op: trace.OpSet}, // SERVER_ERROR
		{key: 0, size: size, op: trace.OpGet}, // clean hit
		{key: 1, size: size, op: trace.OpGet}, // hit with a flipped byte
		{key: 2, size: size, op: trace.OpGet}, // miss, and the fill is refused again
		{key: 0, size: size, op: trace.OpDelete},
		{key: 0, size: size, op: trace.OpGet}, // miss, filled
	}
	for i := range reqs {
		d.do(reqs, call{uint32(i), uint32(i + 1)}, time.Time{})
	}
	got := d.cnt
	want := counters{gets: 4, hits: 2, sets: 3, deletes: 1, fills: 2, failed: 3, corrupt: 1}
	if got != want {
		t.Errorf("counters %+v, want %+v", got, want)
	}
	if got.ops() != 10 {
		t.Errorf("attempted %d commands, want 10", got.ops())
	}
}

func TestLatePacedCallCountsAsLateNotFailed(t *testing.T) {
	p := handPlan("k")
	d, err := dialConn(p, fakeServer(t, "", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer d.c.Close()
	reqs := []request{{key: 0, size: 32, op: trace.OpSet}, {key: 0, size: 32, op: trace.OpGet}}
	d.do(reqs, call{0, 1}, time.Now())
	if d.cnt.failed != 0 || d.cnt.late != 0 {
		t.Fatalf("an on-time call failed or was late: %+v", d.cnt)
	}
	d.getLat = newRecorder(1)
	d.do(reqs, call{1, 2}, time.Now().Add(-2*lateLimit))
	if d.cnt.failed != 0 || d.cnt.late != 1 || d.cnt.hits != 1 {
		t.Errorf("a call %v past its due time: counters %+v, want 1 late and none failed", 2*lateLimit, d.cnt)
	}
	if len(d.getLat.ns) != 1 || time.Duration(d.getLat.ns[0]) < 2*lateLimit {
		t.Errorf("latency %v is not measured from the due time", d.getLat.ns)
	}
}

// TestQuickAgainstDaemon is the -quick smoke test: every workload, two
// seconds each, against a daemon built from this tree. It takes a quarter of
// a minute, so it runs only when BENCH_DAEMON_TEST is set.
func TestQuickAgainstDaemon(t *testing.T) {
	if os.Getenv("BENCH_DAEMON_TEST") == "" {
		t.Skip("builds and runs cliffhangerd; set BENCH_DAEMON_TEST=1")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "cliffhangerd")); err != nil {
		t.Skip("not inside the repository: ", err)
	}
	out := t.TempDir()
	bin, err := buildDaemon(root, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		res, err := runOne(bin, out, s, options{seed: 1, seconds: 2, quick: true})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", s.name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v %s, want a positive number", s.name, name, m.Value, m.Unit)
			}
		}
		if s.settle && res.Metrics["hit_rate"].Value < 0.9999 {
			t.Errorf("%s: hit_rate %v after settling", s.name, res.Metrics["hit_rate"].Value)
		}
	}
}
