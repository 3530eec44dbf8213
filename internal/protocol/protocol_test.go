package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// parse runs one ReadCommand over s with a fresh parser.
func parse(s string) (*Command, error) {
	return NewParser(bufio.NewReader(strings.NewReader(s))).ReadCommand()
}

func parser(s string) *Parser {
	return NewParser(bufio.NewReader(strings.NewReader(s)))
}

// key returns cmd.Keys[i] as a string for assertions.
func key(cmd *Command, i int) string { return string(cmd.Keys[i]) }

func TestReadCommandGet(t *testing.T) {
	cmd, err := parse("get a b c\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Name != "get" || len(cmd.Keys) != 3 || key(cmd, 2) != "c" {
		t.Fatalf("parsed %+v", cmd)
	}
	cmd, err = parse("gets k\r\n")
	if err != nil || cmd.Name != "gets" {
		t.Fatalf("gets: %+v %v", cmd, err)
	}
}

func TestReadCommandSet(t *testing.T) {
	cmd, err := parse("set key 7 42 5\r\nhello\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Name != "set" || key(cmd, 0) != "key" || cmd.Flags != 7 || cmd.ExpTime != 42 {
		t.Fatalf("parsed %+v", cmd)
	}
	if string(cmd.Data) != "hello" || cmd.NoReply {
		t.Fatalf("data = %q noreply=%v", cmd.Data, cmd.NoReply)
	}
	cmd, err = parse("set key 0 0 2 noreply\r\nhi\r\n")
	if err != nil || !cmd.NoReply {
		t.Fatalf("noreply not parsed: %+v %v", cmd, err)
	}
	// Leading '+' on the signed fields, as strconv.ParseInt/Atoi accepted.
	cmd, err = parse("set key 0 +42 +5\r\nhello\r\n")
	if err != nil || cmd.ExpTime != 42 || string(cmd.Data) != "hello" {
		t.Fatalf("'+'-signed exptime/bytes: %+v %v", cmd, err)
	}
	// An unparseable size is a connection-fatal error: the data block cannot
	// be located in the stream.
	if _, err := parse("set key 0 0 5x\r\nhello\r\n"); !errors.Is(err, ErrBadDataSize) {
		t.Fatalf("bad bytes should wrap ErrBadDataSize, got %v", err)
	}
	// Binary payloads may contain CR and LF bytes.
	cmd, err = parse("set bin 0 0 4\r\n\r\n\r\n\r\n")
	if err != nil || string(cmd.Data) != "\r\n\r\n" {
		t.Fatalf("binary data = %q %v", cmd.Data, err)
	}
}

func TestReadCommandDeleteAndTenant(t *testing.T) {
	cmd, err := parse("delete k noreply\r\n")
	if err != nil || cmd.Name != "delete" || !cmd.NoReply {
		t.Fatalf("delete: %+v %v", cmd, err)
	}
	cmd, err = parse("tenant app7\r\n")
	if err != nil || string(cmd.Tenant) != "app7" {
		t.Fatalf("tenant: %+v %v", cmd, err)
	}
	for _, verb := range []string{"stats", "flush_all", "version"} {
		cmd, err = parse(verb + "\r\n")
		if err != nil || cmd.Name != verb {
			t.Fatalf("%s: %+v %v", verb, cmd, err)
		}
	}
	if _, err := parse("quit\r\n"); err != ErrQuit {
		t.Fatalf("quit should return ErrQuit, got %v", err)
	}
}

func TestReadCommandTenantLifecycle(t *testing.T) {
	cmd, err := parse("tenant_create app9 16\r\n")
	if err != nil || cmd.Name != VerbTenantCreate || string(cmd.Tenant) != "app9" || cmd.Delta != 16 {
		t.Fatalf("tenant_create: %+v %v", cmd, err)
	}
	cmd, err = parse("tenant_resize app9 8\r\n")
	if err != nil || cmd.Name != VerbTenantResize || string(cmd.Tenant) != "app9" || cmd.Delta != 8 {
		t.Fatalf("tenant_resize: %+v %v", cmd, err)
	}
	cmd, err = parse("tenant_delete app9\r\n")
	if err != nil || cmd.Name != VerbTenantDelete || string(cmd.Tenant) != "app9" {
		t.Fatalf("tenant_delete: %+v %v", cmd, err)
	}
	for _, in := range []string{
		"tenant_create\r\n",            // no args
		"tenant_create app9\r\n",       // missing size
		"tenant_create app9 0\r\n",     // zero size
		"tenant_create app9 x\r\n",     // non-numeric size
		"tenant_create app9 -4\r\n",    // negative size
		"tenant_create app9 16 t\r\n",  // trailing token
		"tenant_resize app9\r\n",       // missing size
		"tenant_resize app9 16 xx\r\n", // trailing token
		"tenant_delete\r\n",            // no name
		"tenant_delete app9 extra\r\n", // trailing token
	} {
		if _, err := parse(in); err == nil {
			t.Errorf("ReadCommand(%q) should fail", in)
		}
	}
}

// TestReadCommandFlushAllArguments covers memcached's optional flush_all
// forms: a delay, noreply, or both — the zero-arg parse above stays the
// common case.
func TestReadCommandFlushAllArguments(t *testing.T) {
	cmd, err := parse("flush_all 5\r\n")
	if err != nil || cmd.ExpTime != 5 || cmd.NoReply {
		t.Fatalf("flush_all 5: %+v %v", cmd, err)
	}
	cmd, err = parse("flush_all noreply\r\n")
	if err != nil || cmd.ExpTime != 0 || !cmd.NoReply {
		t.Fatalf("flush_all noreply: %+v %v", cmd, err)
	}
	cmd, err = parse("flush_all 30 noreply\r\n")
	if err != nil || cmd.ExpTime != 30 || !cmd.NoReply {
		t.Fatalf("flush_all 30 noreply: %+v %v", cmd, err)
	}
	for _, in := range []string{
		"flush_all bogus\r\n",
		"flush_all 5 bogus\r\n",
		"flush_all 5 noreply extra\r\n",
		"flush_all noreply 5\r\n",
	} {
		if _, err := parse(in); err == nil {
			t.Errorf("ReadCommand(%q) should fail", in)
		}
	}
}

func TestReadCommandMalformed(t *testing.T) {
	cases := []string{
		"\r\n",    // empty command
		"get\r\n", // get without keys
		"get " + strings.Repeat("k", 251) + "\r\n", // over-long key
		"get bad\x01key\r\n",                       // key with a control character
		"set k 0 0\r\n",                            // too few set args
		"set k x 0 5\r\nhello\r\n",                 // bad flags
		"set k 0 x 5\r\nhello\r\n",                 // bad exptime
		"set k 0 0 -1\r\n",                         // negative size
		"set k 0 0 2097153\r\n",                    // above MaxValueLength
		"set k 0 0 5\r\nhelloXX",                   // data block not CRLF-terminated
		"delete\r\n",                               // delete without key
		"tenant\r\n",                               // tenant without name
		"tenant a b\r\n",                           // tenant with two args
		"warble\r\n",                               // unknown verb
	}
	for _, in := range cases {
		if _, err := parse(in); err == nil {
			t.Errorf("ReadCommand(%q) should fail", in)
		}
	}
}

func TestReadCommandPipelinedSequence(t *testing.T) {
	// Several commands back-to-back on one reader, as a pipelining client
	// would send them: each parse must consume exactly one command.
	p := parser("set a 0 0 1\r\nx\r\nget a b\r\ndelete a\r\nversion\r\n")
	wantNames := []string{"set", "get", "delete", "version"}
	for i, want := range wantNames {
		cmd, err := p.ReadCommand()
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if cmd.Name != want {
			t.Fatalf("command %d = %q, want %q", i, cmd.Name, want)
		}
	}
	if _, err := p.ReadCommand(); err == nil {
		t.Fatalf("exhausted reader should error")
	}
}

// TestParserReusesCommand pins the zero-allocation contract: the parser hands
// back the same Command across calls, and a steady-state GET parse performs
// no heap allocations.
func TestParserReusesCommand(t *testing.T) {
	p := parser("get a\r\nget b\r\n")
	c1, err := p.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	k1 := key(c1, 0)
	c2, err := p.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("parser should reuse its Command across calls")
	}
	if k1 != "a" || key(c2, 0) != "b" {
		t.Fatalf("keys = %q then %q", k1, key(c2, 0))
	}

	payload := []byte("get key-123\r\n")
	br := bytes.NewReader(payload)
	r := bufio.NewReader(br)
	p = NewParser(r)
	if _, err := p.ReadCommand(); err != nil { // warm the reusable buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		br.Reset(payload)
		r.Reset(br)
		if _, err := p.ReadCommand(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state GET parse allocates %.1f objects/op, want 0", allocs)
	}
}

// TestParserStatsArgument covers the optional stats sub-command: bare stats
// carries no keys, "stats slabs" carries the argument in Keys, "stats
// cliffhanger app2" carries both, and a third argument is rejected.
func TestParserStatsArgument(t *testing.T) {
	p := parser("stats\r\nstats slabs\r\nSTATS SLABS\r\n")
	c, err := p.ReadCommand()
	if err != nil || c.Name != VerbStats || len(c.Keys) != 0 {
		t.Fatalf("bare stats = %+v, %v", c, err)
	}
	c, err = p.ReadCommand()
	if err != nil || c.Name != VerbStats || len(c.Keys) != 1 || key(c, 0) != "slabs" {
		t.Fatalf("stats slabs = %+v, %v", c, err)
	}
	// The verb matches case-insensitively; the argument is passed through
	// as sent (the server compares it literally, like memcached).
	c, err = p.ReadCommand()
	if err != nil || c.Name != VerbStats || key(c, 0) != "SLABS" {
		t.Fatalf("STATS SLABS = %+v, %v", c, err)
	}
	c, err = parser("stats cliffhanger app2\r\n").ReadCommand()
	if err != nil || len(c.Keys) != 2 || key(c, 0) != "cliffhanger" || key(c, 1) != "app2" {
		t.Fatalf("stats cliffhanger app2 = %+v, %v", c, err)
	}
	if _, err := parser("stats cliffhanger app2 extra\r\n").ReadCommand(); err == nil {
		t.Fatalf("stats with three arguments must be rejected")
	}
}

// TestParserTornCommands drives every command shape through a reader that
// delivers one byte at a time into a minimum-size bufio buffer, so every line
// and data block spans many refills: the tokenizer must reassemble them
// without desyncing.
func TestParserTornCommands(t *testing.T) {
	input := "set torn 7 0 10\r\nAAAABBBBCC\r\n" +
		"get torn other\r\n" +
		"cas c 1 2 3 99 noreply\r\nxyz\r\n" +
		"delete torn\r\n" +
		"version\r\n"
	p := NewParser(bufio.NewReaderSize(iotest{strings.NewReader(input)}, 32))

	cmd, err := p.ReadCommand()
	if err != nil || cmd.Name != "set" || string(cmd.Data) != "AAAABBBBCC" || cmd.Flags != 7 {
		t.Fatalf("set: %+v %v", cmd, err)
	}
	if key(cmd, 0) != "torn" {
		t.Fatalf("set key = %q", key(cmd, 0))
	}
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Name != "get" || len(cmd.Keys) != 2 || key(cmd, 1) != "other" {
		t.Fatalf("get: %+v %v", cmd, err)
	}
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Name != "cas" || cmd.CAS != 99 || !cmd.NoReply || string(cmd.Data) != "xyz" {
		t.Fatalf("cas: %+v %v", cmd, err)
	}
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Name != "delete" {
		t.Fatalf("delete: %+v %v", cmd, err)
	}
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Name != "version" {
		t.Fatalf("version: %+v %v", cmd, err)
	}
}

// iotest delivers at most one byte per Read, forcing bufio refills.
type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestParserMaxLengthKey pins the 250-byte key limit boundary: exactly 250
// bytes parses, 251 does not — for both get and storage verbs.
func TestParserMaxLengthKey(t *testing.T) {
	k250 := strings.Repeat("k", MaxKeyLength)
	cmd, err := parse("get " + k250 + "\r\n")
	if err != nil || key(cmd, 0) != k250 {
		t.Fatalf("250-byte key rejected: %v", err)
	}
	cmd, err = parse("set " + k250 + " 0 0 2\r\nhi\r\n")
	if err != nil || key(cmd, 0) != k250 {
		t.Fatalf("250-byte storage key rejected: %v", err)
	}
	if _, err := parse("get " + k250 + "x\r\n"); err == nil {
		t.Fatalf("251-byte key should fail")
	}
	// An over-long storage key still consumes the data block.
	p := parser("set " + k250 + "x 0 0 2\r\nhi\r\nversion\r\n")
	if _, err := p.ReadCommand(); err == nil {
		t.Fatalf("251-byte storage key should fail")
	}
	if cmd, err := p.ReadCommand(); err != nil || cmd.Name != "version" {
		t.Fatalf("data block leaked after key error: %+v %v", cmd, err)
	}
}

// TestParserOversizedLine: a command line longer than the reader's buffer
// falls back to the accumulating slow path (large multigets keep working); a
// line past MaxLineLength is drained and reported as ErrLineTooLong, after
// which the caller must close the connection (a storage verb's data block
// may still be in the stream).
func TestParserOversizedLine(t *testing.T) {
	// ~10 KiB multiget through a 64-byte reader buffer: parses via linebuf.
	keys := strings.Repeat("key-abcdef ", 1000)
	p := NewParser(bufio.NewReaderSize(strings.NewReader("get "+keys+"\r\nversion\r\n"), 64))
	cmd, err := p.ReadCommand()
	if err != nil || cmd.Name != "get" || len(cmd.Keys) != 1000 || key(cmd, 999) != "key-abcdef" {
		t.Fatalf("large multiget: %v (keys=%d)", err, len(cmd.Keys))
	}
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Name != "version" {
		t.Fatalf("stream desynced after large multiget: %+v %v", cmd, err)
	}

	// A line past MaxLineLength is drained and reported as ErrLineTooLong.
	huge := "get " + strings.Repeat("k ", MaxLineLength/2+64)
	p = NewParser(bufio.NewReaderSize(strings.NewReader(huge+"\r\nversion\r\n"), 64))
	if _, err := p.ReadCommand(); err != ErrLineTooLong {
		t.Fatalf("over-cap line = %v, want ErrLineTooLong", err)
	}
	// The line itself was consumed; the stream continues — but callers must
	// treat ErrLineTooLong as fatal (see the server), since a storage verb's
	// data block could not have been consumed.
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Name != "version" {
		t.Fatalf("over-cap line not drained: %+v %v", cmd, err)
	}
}

// TestParserNoReplyPositions pins where a noreply token is honored: as the
// trailing token of every verb that supports it, and never when it is a key
// or mid-line argument.
func TestParserNoReplyPositions(t *testing.T) {
	honored := []string{
		"set k 0 0 1 noreply\r\nx\r\n",
		"add k 0 0 1 noreply\r\nx\r\n",
		"replace k 0 0 1 noreply\r\nx\r\n",
		"append k 0 0 1 noreply\r\nx\r\n",
		"prepend k 0 0 1 noreply\r\nx\r\n",
		"cas k 0 0 1 9 noreply\r\nx\r\n",
		"touch k 0 noreply\r\n",
		"incr k 1 noreply\r\n",
		"decr k 1 noreply\r\n",
		"delete k noreply\r\n",
	}
	for _, in := range honored {
		cmd, err := parse(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !cmd.NoReply {
			t.Errorf("%q: noreply not honored", in)
		}
	}
	// "noreply" as a get key is a key, not an option.
	cmd, err := parse("get a noreply\r\n")
	if err != nil || cmd.NoReply || len(cmd.Keys) != 2 || key(cmd, 1) != "noreply" {
		t.Fatalf("get with key 'noreply': %+v %v", cmd, err)
	}
	// Without the trailing token there is no noreply.
	cmd, err = parse("set k 0 0 1\r\nx\r\n")
	if err != nil || cmd.NoReply {
		t.Fatalf("bare set: %+v %v", cmd, err)
	}
}

// TestParserCaseInsensitiveVerbs: verbs match case-insensitively (the old
// parser lowercased them); keys keep their case.
func TestParserCaseInsensitiveVerbs(t *testing.T) {
	cmd, err := parse("GET MixedCaseKey\r\n")
	if err != nil || cmd.Name != "get" || key(cmd, 0) != "MixedCaseKey" {
		t.Fatalf("GET: %+v %v", cmd, err)
	}
	cmd, err = parse("Set k 0 0 1\r\nx\r\n")
	if err != nil || cmd.Name != "set" {
		t.Fatalf("Set: %+v %v", cmd, err)
	}
}

func TestWriteValuesAndStats(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	values := []Value{
		{Key: "a", Data: []byte("one")},
		{Key: "b", Flags: 3, CAS: 9, Data: []byte("two")},
	}
	if err := WriteValues(w, values, true); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	out := buf.String()
	if !strings.Contains(out, "VALUE a 0 3 0\r\none\r\n") ||
		!strings.Contains(out, "VALUE b 3 3 9\r\ntwo\r\n") ||
		!strings.HasSuffix(out, "END\r\n") {
		t.Fatalf("gets response = %q", out)
	}

	buf.Reset()
	if err := WriteValues(w, values[:1], false); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if got := buf.String(); got != "VALUE a 0 3\r\none\r\nEND\r\n" {
		t.Fatalf("get response = %q", got)
	}

	buf.Reset()
	if err := WriteStats(w, []Stat{{"y", "2"}, {"x", "1"}}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if got := buf.String(); got != "STAT y 2\r\nSTAT x 1\r\nEND\r\n" {
		t.Fatalf("stats = %q", got)
	}
}

func TestAppendValueHeader(t *testing.T) {
	got := string(AppendValueHeader(nil, []byte("k"), 7, 3, 42, true))
	if got != "VALUE k 7 3 42\r\n" {
		t.Fatalf("with cas = %q", got)
	}
	got = string(AppendValueHeader(nil, []byte("k"), 0, 11, 42, false))
	if got != "VALUE k 0 11\r\n" {
		t.Fatalf("without cas = %q", got)
	}
}

func TestParseValueLine(t *testing.T) {
	key, flags, size, cas, withCAS, err := ParseValueLine([]byte("VALUE k 7 3 42"))
	if err != nil || string(key) != "k" || flags != 7 || size != 3 || cas != 42 || !withCAS {
		t.Fatalf("parsed %q %d %d %d %v %v", key, flags, size, cas, withCAS, err)
	}
	key, flags, size, _, withCAS, err = ParseValueLine([]byte("VALUE some-key 0 1024"))
	if err != nil || string(key) != "some-key" || flags != 0 || size != 1024 || withCAS {
		t.Fatalf("parsed %q %d %d %v %v", key, flags, size, withCAS, err)
	}
	for _, bad := range []string{"", "END", "VALUE", "VALUE k", "VALUE k x 3", "VALUE k 0 x", "VALUE k 0 3 x", "VALUE k 0 -1"} {
		if _, _, _, _, _, err := ParseValueLine([]byte(bad)); err == nil {
			t.Errorf("ParseValueLine(%q) should fail", bad)
		}
	}
}

func TestParseResponseLine(t *testing.T) {
	for _, line := range []string{"STORED", "DELETED", "OK", "TENANT"} {
		if ok, err := ParseResponseLine(line); !ok || err != nil {
			t.Errorf("%s should be ok, got %v %v", line, ok, err)
		}
	}
	for _, line := range []string{"NOT_FOUND", "NOT_STORED"} {
		if ok, err := ParseResponseLine(line); ok || err != nil {
			t.Errorf("%s should be not-ok without error, got %v %v", line, ok, err)
		}
	}
	for _, line := range []string{"ERROR", "SERVER_ERROR boom", "CLIENT_ERROR bad", "GIBBERISH"} {
		if _, err := ParseResponseLine(line); err == nil {
			t.Errorf("%s should error", line)
		}
	}
}

func TestReadCommandCas(t *testing.T) {
	cmd, err := parse("cas key 7 42 5 99\r\nhello\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Name != "cas" || key(cmd, 0) != "key" || cmd.Flags != 7 || cmd.ExpTime != 42 || cmd.CAS != 99 {
		t.Fatalf("parsed %+v", cmd)
	}
	if string(cmd.Data) != "hello" || cmd.NoReply {
		t.Fatalf("data = %q noreply=%v", cmd.Data, cmd.NoReply)
	}
	cmd, err = parse("cas key 0 0 2 7 noreply\r\nhi\r\n")
	if err != nil || !cmd.NoReply || cmd.CAS != 7 {
		t.Fatalf("cas noreply: %+v %v", cmd, err)
	}
}

func TestReadCommandAppendPrependVerbs(t *testing.T) {
	for _, verb := range []string{"add", "replace", "append", "prepend"} {
		cmd, err := parse(verb + " k 1 2 3\r\nabc\r\n")
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
		if cmd.Name != verb || string(cmd.Data) != "abc" || cmd.Flags != 1 || cmd.ExpTime != 2 {
			t.Fatalf("%s parsed %+v", verb, cmd)
		}
	}
}

func TestReadCommandTouchIncrDecr(t *testing.T) {
	cmd, err := parse("touch k 300\r\n")
	if err != nil || cmd.Name != "touch" || key(cmd, 0) != "k" || cmd.ExpTime != 300 {
		t.Fatalf("touch: %+v %v", cmd, err)
	}
	cmd, err = parse("touch k 0 noreply\r\n")
	if err != nil || !cmd.NoReply {
		t.Fatalf("touch noreply: %+v %v", cmd, err)
	}
	cmd, err = parse("touch k -1\r\n")
	if err != nil || cmd.ExpTime != -1 {
		t.Fatalf("touch negative exptime: %+v %v", cmd, err)
	}
	cmd, err = parse("incr k 5\r\n")
	if err != nil || cmd.Name != "incr" || cmd.Delta != 5 {
		t.Fatalf("incr: %+v %v", cmd, err)
	}
	cmd, err = parse("decr k 18446744073709551615 noreply\r\n")
	if err != nil || cmd.Name != "decr" || cmd.Delta != 1<<64-1 || !cmd.NoReply {
		t.Fatalf("decr: %+v %v", cmd, err)
	}
	if _, err := parse("incr k 18446744073709551616\r\n"); err == nil {
		t.Fatalf("overflowing delta should fail")
	}
}

func TestReadCommandNewVerbsMalformed(t *testing.T) {
	cases := []string{
		"cas k 0 0 5\r\nhello\r\n",     // cas without token
		"cas k 0 0 5 abc\r\nhello\r\n", // non-numeric token
		"touch k\r\n",                  // touch without exptime
		"touch k abc\r\n",              // bad exptime
		"incr k\r\n",                   // incr without delta
		"incr k -3\r\n",                // negative delta
		"decr k x\r\n",                 // non-numeric delta
		"append k 0 0\r\n",             // too few args
	}
	for _, in := range cases {
		if _, err := parse(in); err == nil {
			t.Errorf("ReadCommand(%q) should fail", in)
		}
	}
}

func TestParseResponseLineNewTokens(t *testing.T) {
	if ok, err := ParseResponseLine("TOUCHED"); !ok || err != nil {
		t.Fatalf("TOUCHED = %v %v", ok, err)
	}
	if ok, err := ParseResponseLine("EXISTS"); ok || err != nil {
		t.Fatalf("EXISTS should be negative without error: %v %v", ok, err)
	}
}

// TestReadCommandMalformedStorageConsumesPayload pins the anti-smuggling
// behavior: a storage command whose header is malformed after the size field
// still consumes its announced data block, so payload bytes are never parsed
// as subsequent commands.
func TestReadCommandMalformedStorageConsumesPayload(t *testing.T) {
	p := parser("cas k 0 0 11 abc\r\nflush_all!!\r\nversion\r\n")
	if _, err := p.ReadCommand(); err == nil {
		t.Fatalf("bad cas token should error")
	}
	cmd, err := p.ReadCommand()
	if err != nil || cmd.Name != "version" {
		t.Fatalf("payload leaked into the command stream: %+v %v", cmd, err)
	}
	// Same for a bad-flags set header.
	p = parser("set k nope 0 9\r\nflush_all\r\ndelete x\r\n")
	if _, err := p.ReadCommand(); err == nil {
		t.Fatalf("bad flags should error")
	}
	cmd, err = p.ReadCommand()
	if err != nil || cmd.Name != "delete" {
		t.Fatalf("payload leaked into the command stream: %+v %v", cmd, err)
	}
	// A cas missing its token entirely also swallows the block.
	p = parser("cas k 0 0 7\r\npayload\r\nversion\r\n")
	if _, err := p.ReadCommand(); err == nil {
		t.Fatalf("missing cas token should error")
	}
	if cmd, err = p.ReadCommand(); err != nil || cmd.Name != "version" {
		t.Fatalf("payload leaked into the command stream: %+v %v", cmd, err)
	}
}

// TestNextGetTakesOnlyTheCanonicalLine checks what NextGet accepts after a
// get: the next line of the same verb, whole in the buffer, with single
// spaces, valid keys and a CRLF. Every other line is left, unconsumed, for
// ReadCommand.
func TestNextGetTakesOnlyTheCanonicalLine(t *testing.T) {
	long := strings.Repeat("k", MaxKeyLength)
	for _, tc := range []struct {
		verb, line string
		keys       []string // nil: declined
	}{
		{VerbGet, "get a\r\n", []string{"a"}},
		{VerbGet, "get a bb " + long + "\r\n", []string{"a", "bb", long}},
		{VerbGets, "gets a b\r\n", []string{"a", "b"}},
		{VerbGet, "gets a\r\n", nil},
		{VerbGets, "get a\r\n", nil},
		{VerbGet, "GET a\r\n", nil},
		{VerbGet, "get  a\r\n", nil},
		{VerbGet, "get a \r\n", nil},
		{VerbGet, "get\ta\r\n", nil},
		{VerbGet, "get a\tb\r\n", nil},
		{VerbGet, "get a\n", nil},
		{VerbGet, "get a\rb\r\n", nil},
		{VerbGet, "get\r\n", nil},
		{VerbGet, "get \r\n", nil},
		{VerbGet, "get " + long + "k\r\n", nil},
		{VerbGet, "get a\x7f\r\n", nil},
		{VerbGet, "get a\r", nil},
		{VerbGet, "set a 0 0 1\r\nx\r\n", nil},
	} {
		in := "get first\r\n" + tc.line + "version\r\n"
		if tc.verb == VerbGets {
			in = "gets first\r\n" + tc.line + "version\r\n"
		}
		p := parser(in)
		if cmd, err := p.ReadCommand(); err != nil || cmd.Name != tc.verb {
			t.Fatalf("%q: first command %+v, %v", in, cmd, err)
		}
		cmd := p.NextGet()
		if tc.keys == nil {
			if cmd != nil {
				t.Errorf("%q: NextGet took %q, want it declined", tc.line, cmd.Keys)
			}
			if n := p.r.Buffered(); n != len(in)-len(tc.verb)-len(" first\r\n") {
				t.Errorf("%q: NextGet consumed %d bytes of a line it declined", tc.line, len(in)-len(tc.verb)-len(" first\r\n")-n)
			}
			continue
		}
		if cmd == nil || cmd.Name != tc.verb || len(cmd.Keys) != len(tc.keys) {
			t.Fatalf("%q: NextGet = %+v, want %s %q", tc.line, cmd, tc.verb, tc.keys)
		}
		for i, k := range tc.keys {
			if string(cmd.Keys[i]) != k {
				t.Errorf("%q: key %d = %q, want %q", tc.line, i, cmd.Keys[i], k)
			}
		}
		if next, err := p.ReadCommand(); err != nil || next.Name != VerbVersion {
			t.Errorf("%q: after NextGet the stream reads %+v, %v; want version", tc.line, next, err)
		}
	}
}

// TestNextGetContinuesOnlyARunOfGets checks that NextGet takes nothing after
// a command that is not a get or gets, even when the next line is a get.
func TestNextGetContinuesOnlyARunOfGets(t *testing.T) {
	for _, first := range []string{"version\r\n", "delete a\r\n", "set a 0 0 1\r\nx\r\n", "tenant get\r\n"} {
		p := parser(first + "get b\r\n")
		if _, err := p.ReadCommand(); err != nil {
			t.Fatal(err)
		}
		if cmd := p.NextGet(); cmd != nil {
			t.Errorf("after %q NextGet took %+v", first, cmd)
		}
		if cmd, err := p.ReadCommand(); err != nil || cmd.Name != VerbGet || string(cmd.Keys[0]) != "b" {
			t.Errorf("after %q the stream reads %+v, %v; want get b", first, cmd, err)
		}
	}
	if cmd := parser("get a\r\n").NextGet(); cmd != nil {
		t.Errorf("NextGet before any command took %+v", cmd)
	}
}

// TestNextGetKeepsEarlierKeys checks that a run's keys stay valid: NextGet
// never reads from the connection, so the keys of the command before it still
// point at their bytes.
func TestNextGetKeepsEarlierKeys(t *testing.T) {
	p := parser("get a b\r\nget c\r\nget d")
	first, err := p.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Keys[0], first.Keys[1]
	if cmd := p.NextGet(); cmd == nil || string(cmd.Keys[0]) != "c" {
		t.Fatalf("NextGet = %+v, want get c", cmd)
	}
	if cmd := p.NextGet(); cmd != nil {
		t.Fatalf("NextGet took a line that is not whole: %+v", cmd)
	}
	if string(a) != "a" || string(b) != "b" {
		t.Fatalf("the first command's keys read %q %q after the run, want a b", a, b)
	}
}
