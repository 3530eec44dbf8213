package protocol

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// fuzzCorpus seeds the fuzzer with the protocol-conformance corpus: every
// verb the server speaks, in the exact shapes the conformance suite sends,
// plus known-nasty shapes (torn headers, binary payloads, malformed storage
// headers whose data blocks must still be consumed).
var fuzzCorpus = []string{
	"set k 5 0 5\r\nhello\r\n",
	"get k\r\n",
	"gets k\r\n",
	"get a b c d\r\n",
	"add fresh 0 0 1\r\nx\r\n",
	"replace k 6 0 3\r\nnew\r\n",
	"append k 0 0 1\r\n!\r\n",
	"prepend k 0 0 1\r\n>\r\n",
	"cas k 0 0 3 42\r\ncc1\r\n",
	"touch k 100\r\n",
	"incr n 5\r\n",
	"decr n 100\r\n",
	"delete k\r\n",
	"tenant app2\r\n",
	"tenant_create app9 16\r\n",
	"tenant_resize app9 8\r\n",
	"tenant_delete app9\r\n",
	"tenant_create app9 0\r\n",
	"tenant_create app9\r\n",
	"tenant_resize app9 16 extra\r\n",
	"tenant_delete\r\n",
	"tenant_create app9 99999999999999999999\r\n",
	"stats\r\n",
	"flush_all\r\n",
	"version\r\n",
	"quit\r\n",
	"set quiet 0 0 1 noreply\r\nq\r\nget quiet\r\n",
	"set dead 0 -1 1\r\nx\r\n",
	"set bin 0 0 4\r\n\r\n\r\n\r\n",
	"cas k 0 0 11 abc\r\nflush_all!!\r\nversion\r\n",
	"set k nope 0 9\r\nflush_all\r\ndelete x\r\n",
	"set k 0 0 2097153\r\nboom\r\n",
	"get " + strings.Repeat("k", 251) + "\r\n",
	"GET UPPER\r\n",
	"\r\n",
	"warble\r\n",
	// Chaos-proxy replay shapes: a storage command torn at every kind of
	// byte boundary (mid-verb, mid-header, at the header/payload seam,
	// mid-payload, mid-terminator). The chaos suite replays these tears over
	// live connections; the seeds keep the parser-level fuzzer exploring the
	// same truncation space.
	"se",
	"set tornkey 0",
	"set tornkey 0 0 5",
	"set tornkey 0 0 5\r",
	"set tornkey 0 0 5\r\n",
	"set tornkey 0 0 5\r\nhe",
	"set tornkey 0 0 5\r\nhello",
	"set tornkey 0 0 5\r\nhello\r",
	"get tornk",
	"cas k 0 0 3 4",
	// Runs of GETs, canonical and not, for NextGet.
	"get a\r\nget b c\r\nget d\r\n",
	"gets a\r\ngets b\r\nget c\r\ngets d\r\n",
	"get a\r\nget  b\r\nget c \r\nGET d\r\nget e\nget\r\nget f\r\n",
	"get a\r\ntenant b\r\nget c\r\nget d\r",
}

// FuzzParser feeds arbitrary byte streams to the zero-copy parser and checks
// the safety contract: it never panics, always makes forward progress (so a
// malicious stream cannot wedge a connection handler in a hot loop), and
// every parsed command satisfies the invariants the server relies on (a
// canonical verb name, validated key lengths, bounded data).
func FuzzParser(f *testing.F) {
	for _, seed := range fuzzCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p := NewParser(bufio.NewReaderSize(bytes.NewReader(in), 128))
		// Every ReadCommand consumes at least one byte (or reports EOF), so
		// len(in)+2 iterations must drain any input.
		for i := 0; i < len(in)+2; i++ {
			cmd, err := p.ReadCommand()
			if err != nil {
				if err == ErrQuit {
					continue // quit is not a stream error; parsing goes on
				}
				if err == io.EOF || strings.Contains(err.Error(), "EOF") {
					return
				}
				continue // protocol error: the stream stays usable
			}
			if cmd.Name == "" {
				t.Fatalf("command with empty canonical name: %+v", cmd)
			}
			for _, k := range cmd.Keys {
				if len(k) == 0 || len(k) > MaxKeyLength {
					t.Fatalf("invalid key length %d escaped validation", len(k))
				}
			}
			if len(cmd.Data) > MaxValueLength {
				t.Fatalf("data block of %d bytes exceeds MaxValueLength", len(cmd.Data))
			}
		}
		t.Fatalf("parser made no forward progress on a %d-byte input", len(in))
	})
}

// FuzzParserPipelineSync checks the anti-desync property on two commands: if
// the fuzzer-built first command parses or fails, a well-formed trailing
// "version" command must still be found at the right stream position unless
// the first command legitimately consumed the stream (storage data block,
// quit, or an IO error mid-block).
func FuzzParserPipelineSync(f *testing.F) {
	for _, seed := range fuzzCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, first []byte) {
		if bytes.ContainsAny(first, "\r\n") {
			return // single-line inputs only: the trailing command must stay distinct
		}
		if len(first) >= MaxLineLength {
			return // over-cap lines report ErrLineTooLong and the caller closes
		}
		// Storage verbs consume an announced data block (on success and on
		// header errors alike), which may legitimately swallow the trailing
		// command; the sync property is checked for every other shape.
		verbTok, _ := nextToken(first)
		switch matchVerb(verbTok) {
		case VerbSet, VerbAdd, VerbReplace, VerbAppend, VerbPrepend, VerbCas, VerbQuit:
			return
		}
		in := append(append([]byte{}, first...), []byte("\r\nversion\r\n")...)
		p := NewParser(bufio.NewReaderSize(bytes.NewReader(in), 128))
		if _, err := p.ReadCommand(); err == ErrQuit {
			return
		}
		cmd, err := p.ReadCommand()
		if err != nil || cmd.Name != VerbVersion {
			t.Fatalf("pipeline desynced after %q: %+v %v", first, cmd, err)
		}
	})
}

// FuzzNextGet checks that serving a run of GETs through NextGet parses the
// stream exactly as ReadCommand alone does: after every ReadCommand, whatever
// it returned, a second parser takes each following line NextGet accepts,
// and each must be the command the first parser's ReadCommand returns;
// whatever NextGet declines, the second parser's ReadCommand must read as the
// first's does.
func FuzzNextGet(f *testing.F) {
	for _, seed := range fuzzCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		ref := NewParser(bufio.NewReaderSize(bytes.NewReader(in), 128))
		run := NewParser(bufio.NewReaderSize(bytes.NewReader(in), 128))
		same := func(want, got *Command) {
			t.Helper()
			if got.Name != want.Name || len(got.Keys) != len(want.Keys) {
				t.Fatalf("run parsed %s %q, ReadCommand %s %q", got.Name, got.Keys, want.Name, want.Keys)
			}
			for i := range want.Keys {
				if !bytes.Equal(got.Keys[i], want.Keys[i]) {
					t.Fatalf("run parsed %s %q, ReadCommand %s %q", got.Name, got.Keys, want.Name, want.Keys)
				}
			}
		}
		for i := 0; i < len(in)+2; i++ {
			want, werr := ref.ReadCommand()
			got, gerr := run.ReadCommand()
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("ReadCommand: %v vs %v", werr, gerr)
			}
			if werr != nil && (werr == io.EOF || strings.Contains(werr.Error(), "EOF")) {
				return
			}
			if werr == nil {
				same(want, got)
			}
			for next := run.NextGet(); next != nil; next = run.NextGet() {
				want, werr := ref.ReadCommand()
				if werr != nil {
					t.Fatalf("NextGet took %s %q where ReadCommand fails: %v", next.Name, next.Keys, werr)
				}
				same(want, next)
			}
		}
		t.Fatalf("parser made no forward progress on a %d-byte input", len(in))
	})
}
