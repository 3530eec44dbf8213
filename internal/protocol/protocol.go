// Package protocol implements the memcached text protocol the server and
// load generator speak: get/gets, the storage verbs set, add, replace,
// append, prepend and cas, touch, incr/decr, delete, stats, flush_all,
// version, quit, plus a non-standard "tenant" verb that selects the
// application (Memcachier multiplexes tenants per connection after
// authentication; the tenant verb stands in for that handshake).
//
// The request side is built around Parser, a per-connection zero-copy
// tokenizer: command lines are parsed directly out of the bufio.Reader's
// buffer, keys are []byte slices over that buffer (or over the parser's own
// scratch for storage verbs, whose data block overwrites the buffer), and
// integer fields are converted in place. One command's worth of state lives
// in a single reusable Command owned by the parser, so a steady-state GET
// parses with zero heap allocations.
//
// Allocation discipline (shared with internal/server): the only place a
// request is allowed to allocate in the steady state is the server's map
// insertion of a first-time SET, where the interned key string is born
// (value bytes live in the store's recycled slab-arena chunks). Everything
// else — parsing, response assembly via the Append* helpers, stats
// formatting on the hot verbs — reuses caller-owned scratch.
package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Command is a parsed client command. Instances returned by Parser.ReadCommand
// are owned by the parser: the struct and every []byte in it (Keys, Data) are
// only valid until the next ReadCommand call.
type Command struct {
	// Name is the verb: get, gets, set, add, replace, append, prepend, cas,
	// touch, incr, decr, delete, stats, flush_all, version, quit or tenant.
	// It always aliases one of the canonical lower-case verb constants, so
	// comparing it against a literal never allocates.
	Name string
	// Keys holds the key arguments (get may carry several). The slices point
	// into parser-owned buffers.
	Keys [][]byte
	// Flags and ExpTime are stored opaquely for the storage verbs and touch;
	// ExpTime also carries flush_all's optional delay.
	Flags   uint32
	ExpTime int64
	// CAS is the token argument of the cas verb.
	CAS uint64
	// Delta is the amount argument of incr/decr.
	Delta uint64
	// Data is the payload of a storage verb, pointing into a parser-owned
	// buffer that is overwritten by the next command.
	Data []byte
	// NoReply suppresses the response when true.
	NoReply bool
	// Tenant is the name argument of the tenant verb and of the tenant admin
	// verbs. Like Keys it points into the command line, so a tenant switch
	// parses without allocating.
	Tenant []byte
}

// MaxKeyLength is the memcached limit on key length.
const MaxKeyLength = 250

// MaxValueLength is the memcached limit on value size (1 MiB).
const MaxValueLength = 1 << 20

// ErrQuit is returned by ReadCommand when the client sent quit.
var ErrQuit = errors.New("protocol: client quit")

// ErrLineTooLong is returned when a command line exceeds MaxLineLength. The
// line itself has been consumed, but a storage verb's announced data block
// (whose size field was never parsed) has NOT — the caller must close the
// connection rather than keep parsing, or payload bytes would execute as
// commands (pipeline desync / command smuggling).
var ErrLineTooLong = errors.New("protocol: command line too long")

// ErrBadDataSize is returned when a storage command's <bytes> field cannot
// be parsed or is out of range: the announced data block cannot be located
// in the stream, so — like ErrLineTooLong — the caller must close the
// connection rather than keep parsing.
var ErrBadDataSize = errors.New("protocol: unlocatable data block")

// MaxLineLength caps a single command line (the bound on a multiget's key
// list). Lines up to the reader's buffer size parse zero-copy; longer ones
// fall back to an accumulating buffer up to this cap.
const MaxLineLength = 1 << 20

// Canonical verb names. Parser.ReadCommand sets Command.Name to one of these
// constants (never to a freshly allocated string).
const (
	VerbGet      = "get"
	VerbGets     = "gets"
	VerbSet      = "set"
	VerbAdd      = "add"
	VerbReplace  = "replace"
	VerbAppend   = "append"
	VerbPrepend  = "prepend"
	VerbCas      = "cas"
	VerbTouch    = "touch"
	VerbIncr     = "incr"
	VerbDecr     = "decr"
	VerbDelete   = "delete"
	VerbStats    = "stats"
	VerbFlushAll = "flush_all"
	VerbVersion  = "version"
	VerbQuit     = "quit"
	VerbTenant   = "tenant"

	// Admin verbs for runtime tenant lifecycle. create/resize take
	// "<name> <MB>"; delete takes "<name>". All reply OK or an error line.
	VerbTenantCreate = "tenant_create"
	VerbTenantResize = "tenant_resize"
	VerbTenantDelete = "tenant_delete"
)

// verbs lists every verb for case-insensitive matching. Matching returns the
// canonical constant so Command.Name never allocates.
var verbs = []string{
	VerbGet, VerbGets, VerbSet, VerbAdd, VerbReplace, VerbAppend,
	VerbPrepend, VerbCas, VerbTouch, VerbIncr, VerbDecr, VerbDelete,
	VerbStats, VerbFlushAll, VerbVersion, VerbQuit, VerbTenant,
	VerbTenantCreate, VerbTenantResize, VerbTenantDelete,
}

// Parser reads commands from a bufio.Reader with per-connection reusable
// state. It is not safe for concurrent use; the server owns one per
// connection.
type Parser struct {
	r   *bufio.Reader
	cmd Command
	// keys is the reusable backing array for cmd.Keys.
	keys [][]byte
	// keybuf holds the key of a storage verb, copied out of the command line
	// before the data-block read invalidates it.
	keybuf []byte
	// data is the reusable data-block buffer (payload + trailing CRLF).
	data []byte
	// linebuf accumulates a command line that outgrew the reader's buffer
	// (the slow path for very large multigets; unused in the steady state).
	linebuf []byte
}

// NewParser returns a parser reading from r. Lines within the reader's
// buffer parse zero-copy; longer lines (up to MaxLineLength) are accumulated
// in a parser-owned buffer.
func NewParser(r *bufio.Reader) *Parser {
	return &Parser{r: r}
}

// noreplyToken is the trailing token that suppresses a storage response.
const noreplyToken = "noreply"

// Retention caps for the parser's scratch buffers: steady-state traffic
// never exceeds them (so the zero-allocation path is untouched), while a
// single outsized command — a near-MaxLineLength multiget, a 1 MiB set —
// cannot pin its worst-case memory for the rest of a long-lived connection.
const (
	maxRetainedData = 64 << 10
	maxRetainedLine = 64 << 10
	maxRetainedKeys = 1024
)

// ReadCommand reads and parses one command. The returned Command is owned by
// the parser and valid only until the next call.
func (p *Parser) ReadCommand() (*Command, error) {
	// Shed scratch that an earlier outsized command grew past the retention
	// caps (the previous Command's contents are invalidated by this call
	// anyway).
	if cap(p.data) > maxRetainedData {
		p.data = nil
	}
	if cap(p.linebuf) > maxRetainedLine {
		p.linebuf = nil
	}
	if cap(p.keys) > maxRetainedKeys {
		p.keys = nil
	}
	line, err := p.readLine()
	if err != nil {
		return nil, err
	}
	cmd := &p.cmd
	*cmd = Command{Keys: p.keys[:0]}
	tok, rest := nextToken(line)
	if len(tok) == 0 {
		return nil, fmt.Errorf("protocol: empty command")
	}
	cmd.Name = matchVerb(tok)
	if cmd.Name == "" {
		return nil, fmt.Errorf("protocol: unknown command %q", tok)
	}
	switch cmd.Name {
	case VerbGet, VerbGets:
		for {
			tok, rest = nextToken(rest)
			if len(tok) == 0 {
				break
			}
			if err := validateKey(tok); err != nil {
				return nil, err
			}
			cmd.Keys = append(cmd.Keys, tok)
		}
		p.keys = cmd.Keys[:0]
		if len(cmd.Keys) == 0 {
			return nil, fmt.Errorf("protocol: %s needs at least one key", cmd.Name)
		}
	case VerbSet, VerbAdd, VerbReplace, VerbAppend, VerbPrepend, VerbCas:
		return p.readStorage(cmd, rest)
	case VerbTouch:
		key, exp, ok := p.keyArg(cmd, rest)
		if !ok {
			return nil, fmt.Errorf("protocol: touch needs <key> <exptime>")
		}
		if err := validateKey(key); err != nil {
			return nil, err
		}
		n, ok := parseInt(exp)
		if !ok {
			return nil, fmt.Errorf("protocol: bad exptime %q", exp)
		}
		cmd.ExpTime = n
		cmd.Keys = append(cmd.Keys, key)
		p.keys = cmd.Keys[:0]
	case VerbIncr, VerbDecr:
		key, delta, ok := p.keyArg(cmd, rest)
		if !ok {
			return nil, fmt.Errorf("protocol: %s needs <key> <value>", cmd.Name)
		}
		if err := validateKey(key); err != nil {
			return nil, err
		}
		n, ok := parseUint(delta)
		if !ok {
			return nil, fmt.Errorf("protocol: invalid numeric delta argument %q", delta)
		}
		cmd.Delta = n
		cmd.Keys = append(cmd.Keys, key)
		p.keys = cmd.Keys[:0]
	case VerbDelete:
		key, rest2 := nextToken(rest)
		if len(key) == 0 {
			return nil, fmt.Errorf("protocol: delete needs a key")
		}
		if err := validateKey(key); err != nil {
			return nil, err
		}
		cmd.NoReply = trailingNoReply(rest2)
		cmd.Keys = append(cmd.Keys, key)
		p.keys = cmd.Keys[:0]
	case VerbTenant:
		name, rest2 := nextToken(rest)
		extra, _ := nextToken(rest2)
		if len(name) == 0 || len(extra) != 0 {
			return nil, fmt.Errorf("protocol: tenant needs exactly one name")
		}
		cmd.Tenant = name
	case VerbTenantCreate, VerbTenantResize:
		// tenant_create <name> <MB> / tenant_resize <name> <MB>. The size
		// rides in Delta (megabytes, must be non-zero).
		name, rest2 := nextToken(rest)
		mbTok, rest3 := nextToken(rest2)
		extra, _ := nextToken(rest3)
		if len(name) == 0 || len(mbTok) == 0 || len(extra) != 0 {
			return nil, fmt.Errorf("protocol: %s needs <name> <MB>", cmd.Name)
		}
		mb, ok := parseUint(mbTok)
		if !ok || mb == 0 {
			return nil, fmt.Errorf("protocol: invalid size argument %q", mbTok)
		}
		cmd.Tenant = name
		cmd.Delta = mb
	case VerbTenantDelete:
		name, rest2 := nextToken(rest)
		extra, _ := nextToken(rest2)
		if len(name) == 0 || len(extra) != 0 {
			return nil, fmt.Errorf("protocol: tenant_delete needs exactly one name")
		}
		cmd.Tenant = name
	case VerbFlushAll:
		// flush_all [delay] [noreply] — memcached's optional delayed-flush
		// form. The delay rides in ExpTime (it is converted with the same
		// relative/absolute rules as an exptime).
		tok, rest2 := nextToken(rest)
		if len(tok) != 0 && string(tok) != noreplyToken {
			n, ok := parseInt(tok)
			if !ok {
				return nil, fmt.Errorf("protocol: bad flush_all delay %q", tok)
			}
			cmd.ExpTime = n
			tok, rest2 = nextToken(rest2)
		}
		if string(tok) == noreplyToken {
			cmd.NoReply = true
			tok, _ = nextToken(rest2)
		}
		if len(tok) != 0 {
			return nil, fmt.Errorf("protocol: flush_all takes [delay] [noreply], got %q", tok)
		}
	case VerbStats:
		// stats [sub-command [argument]] — e.g. "stats slabs" or "stats
		// cliffhanger app2". The optional tokens ride in Keys (they point
		// into the parser-owned line buffer, like any key).
		for tok, rest2 := nextToken(rest); len(tok) != 0; tok, rest2 = nextToken(rest2) {
			if len(cmd.Keys) == 2 {
				return nil, fmt.Errorf("protocol: stats takes at most two arguments, got %q", tok)
			}
			cmd.Keys = append(cmd.Keys, tok)
			p.keys = cmd.Keys[:0]
		}
	case VerbVersion:
		// no arguments needed
	case VerbQuit:
		return nil, ErrQuit
	}
	return cmd, nil
}

// NextGet continues a run of the get or gets just parsed: it parses the next
// command only when that command is already whole in the reader's buffer and
// is exactly "<verb> <key>[ <key>...]\r\n", with the same verb in lower case,
// single spaces, valid keys and a CRLF. Otherwise, or when the command just
// parsed was not a get or gets, it consumes nothing and returns nil, and
// ReadCommand parses whatever comes next, so every line NextGet declines gets
// the answer it always got. Like ReadCommand it returns the parser's one
// Command and invalidates the previous one. It never reads from the
// connection. The server serves a pipelined run of GETs through it.
func (p *Parser) NextGet() *Command {
	verb := p.cmd.Name
	if verb != VerbGet && verb != VerbGets {
		return nil
	}
	buf, _ := p.r.Peek(p.r.Buffered())
	n := len(verb)
	if len(buf) <= n || string(buf[:n]) != verb || buf[n] != ' ' {
		return nil
	}
	// A get's Command has only its Name and Keys set, so the Keys are all
	// that change.
	keys := p.keys[:0]
	for i := n + 1; ; i++ {
		start := i
		for i < len(buf) && keyByte[buf[i]] {
			i++
		}
		if i == len(buf) || i == start || i-start > MaxKeyLength {
			return nil
		}
		keys = append(keys, buf[start:i])
		switch buf[i] {
		case ' ':
			continue
		case '\r':
			if i+1 == len(buf) || buf[i+1] != '\n' {
				return nil
			}
			p.keys = keys[:0]
			p.cmd.Keys = keys
			p.r.Discard(i + 2)
			return &p.cmd
		}
		return nil
	}
}

// keyByte reports which bytes a key may hold: none of the control
// characters, space or DEL.
var keyByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c > ' ' && c != 127
	}
	return t
}()

// keyArg parses the common "<key> <arg> [noreply]" shape of touch/incr/decr,
// setting cmd.NoReply. ok is false when either token is missing.
func (p *Parser) keyArg(cmd *Command, rest []byte) (key, arg []byte, ok bool) {
	key, rest = nextToken(rest)
	arg, rest = nextToken(rest)
	if len(key) == 0 || len(arg) == 0 {
		return nil, nil, false
	}
	cmd.NoReply = trailingNoReply(rest)
	return key, arg, true
}

// readStorage parses the header and data block of a storage verb. The size
// field is parsed first: once it is known, any other header error still
// consumes the announced data block, so a malformed storage command can never
// leave its payload behind to be parsed as subsequent commands (command
// smuggling / pipeline desync).
func (p *Parser) readStorage(cmd *Command, rest []byte) (*Command, error) {
	key, rest := nextToken(rest)
	flagsTok, rest := nextToken(rest)
	expTok, rest := nextToken(rest)
	sizeTok, rest := nextToken(rest)
	if len(sizeTok) == 0 {
		return nil, fmt.Errorf("protocol: %s needs <key> <flags> <exptime> <bytes>", cmd.Name)
	}
	size64, ok := parseInt(sizeTok)
	if !ok || size64 < 0 || size64 > MaxValueLength {
		return nil, fmt.Errorf("protocol: bad bytes %q: %w", sizeTok, ErrBadDataSize)
	}
	size := int(size64)
	fail := func(err error) (*Command, error) {
		if _, cerr := io.CopyN(io.Discard, p.r, int64(size)+2); cerr != nil {
			return nil, fmt.Errorf("protocol: short data block: %v", cerr)
		}
		return nil, err
	}
	if err := validateKey(key); err != nil {
		return fail(err)
	}
	flags, ok := parseUint(flagsTok)
	if !ok || flags > 1<<32-1 {
		return fail(fmt.Errorf("protocol: bad flags %q", flagsTok))
	}
	cmd.Flags = uint32(flags)
	exp, ok := parseInt(expTok)
	if !ok {
		return fail(fmt.Errorf("protocol: bad exptime %q", expTok))
	}
	cmd.ExpTime = exp
	if cmd.Name == VerbCas {
		casTok, rest2 := nextToken(rest)
		if len(casTok) == 0 {
			return fail(fmt.Errorf("protocol: cas needs <key> <flags> <exptime> <bytes> <cas unique>"))
		}
		cas, ok := parseUint(casTok)
		if !ok {
			return fail(fmt.Errorf("protocol: bad cas unique %q", casTok))
		}
		cmd.CAS = cas
		rest = rest2
	}
	cmd.NoReply = trailingNoReply(rest)
	// The key slice points into the reader's buffer, which the data-block
	// read below overwrites: copy it into the parser's scratch first.
	p.keybuf = append(p.keybuf[:0], key...)
	cmd.Keys = append(cmd.Keys, p.keybuf)
	p.keys = cmd.Keys[:0]
	if cap(p.data) < size+2 {
		p.data = make([]byte, size+2)
	}
	block := p.data[:size+2]
	if _, err := io.ReadFull(p.r, block); err != nil {
		return nil, fmt.Errorf("protocol: short data block: %v", err)
	}
	if block[size] != '\r' || block[size+1] != '\n' {
		return nil, fmt.Errorf("protocol: data block not terminated by CRLF")
	}
	cmd.Data = block[:size]
	return cmd, nil
}

// readLine returns the next CRLF- (or LF-) terminated line without its
// terminator. The fast path is a zero-copy slice into the reader's buffer
// (valid until the next read); a line that outgrows the buffer — a very
// large multiget — is accumulated into the parser's own buffer up to
// MaxLineLength. Beyond the cap the line is drained and ErrLineTooLong is
// returned; the caller must then close the connection (see ErrLineTooLong).
func (p *Parser) readLine() ([]byte, error) {
	line, err := p.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		p.linebuf = append(p.linebuf[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = p.r.ReadSlice('\n')
			if len(p.linebuf)+len(line) > MaxLineLength {
				for err == bufio.ErrBufferFull {
					_, err = p.r.ReadSlice('\n')
				}
				if err != nil {
					return nil, fmt.Errorf("protocol: discarding oversized line: %v", err)
				}
				return nil, ErrLineTooLong
			}
			p.linebuf = append(p.linebuf, line...)
		}
		if err != nil {
			return nil, err
		}
		line = p.linebuf
	} else if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// nextToken splits off the next space/tab-separated token of line, collapsing
// runs of separators like strings.Fields does.
func nextToken(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	j := i
	for j < len(line) && line[j] != ' ' && line[j] != '\t' {
		j++
	}
	return line[i:j], line[j:]
}

// trailingNoReply reports whether the last token of rest is "noreply".
// (Comparing a converted []byte against a string constant does not allocate.)
func trailingNoReply(rest []byte) bool {
	last, r := nextToken(rest)
	for {
		tok, r2 := nextToken(r)
		if len(tok) == 0 {
			break
		}
		last, r = tok, r2
	}
	return string(last) == noreplyToken
}

// matchVerb returns the canonical name for tok (ASCII case-insensitive), or
// "" when tok is not a known verb.
func matchVerb(tok []byte) string {
	for _, v := range verbs {
		if equalFold(tok, v) {
			return v
		}
	}
	return ""
}

// equalFold reports whether b equals the (lower-case) verb s under ASCII
// case folding, without allocating.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// parseUint converts a decimal []byte in place (no string conversion, no
// allocation). ok is false on empty input, non-digits or uint64 overflow.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (1<<64-1)/10 || n*10 > 1<<64-1-d {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseInt is parseUint with an optional leading sign ('+' accepted to match
// strconv.ParseInt, which the old parser used for exptime and bytes).
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	n, ok := parseUint(b)
	if !ok {
		return 0, false
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n-1) - 1, true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

func validateKey(k []byte) error {
	if len(k) == 0 || len(k) > MaxKeyLength {
		return fmt.Errorf("protocol: invalid key length %d", len(k))
	}
	for _, c := range k {
		if !keyByte[c] {
			return fmt.Errorf("protocol: key contains control or space characters")
		}
	}
	return nil
}

// Value is one value returned to a get/gets request.
type Value struct {
	Key   string
	Flags uint32
	CAS   uint64
	Data  []byte
}

// AppendValueHeader appends a "VALUE <key> <flags> <bytes> [<cas>]\r\n" line
// to dst and returns the extended slice. It is the zero-allocation building
// block the server streams GET responses with (dst is per-connection
// scratch).
func AppendValueHeader(dst []byte, key []byte, flags uint32, size int, cas uint64, withCAS bool) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(size), 10)
	if withCAS {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cas, 10)
	}
	return append(dst, '\r', '\n')
}

// WriteValues writes the VALUE blocks and the END terminator of a get/gets
// response. It is a convenience for callers that already buffered a slice of
// values; the server streams blocks with AppendValueHeader instead.
func WriteValues(w *bufio.Writer, values []Value, withCAS bool) error {
	var scratch []byte
	for _, v := range values {
		scratch = AppendValueHeader(scratch[:0], []byte(v.Key), v.Flags, len(v.Data), v.CAS, withCAS)
		if _, err := w.Write(scratch); err != nil {
			return err
		}
		if _, err := w.Write(v.Data); err != nil {
			return err
		}
		if _, err := w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	_, err := w.WriteString("END\r\n")
	return err
}

// WriteLine writes a single response line terminated by CRLF, without
// allocating.
func WriteLine(w *bufio.Writer, line string) error {
	if _, err := w.WriteString(line); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

// Stat is one "STAT <name> <value>" line of a stats response.
type Stat struct{ Name, Value string }

// WriteStats writes one STAT line per entry, in order, followed by END.
func WriteStats(w *bufio.Writer, stats []Stat) error {
	for _, s := range stats {
		if _, err := w.WriteString("STAT "); err != nil {
			return err
		}
		if _, err := w.WriteString(s.Name); err != nil {
			return err
		}
		if err := w.WriteByte(' '); err != nil {
			return err
		}
		if err := WriteLine(w, s.Value); err != nil {
			return err
		}
	}
	_, err := w.WriteString("END\r\n")
	return err
}

// ParseValueLine parses a "VALUE <key> <flags> <bytes> [<cas>]" response
// header in place. The returned key aliases line. withCAS reports whether a
// CAS token was present (a gets response).
func ParseValueLine(line []byte) (key []byte, flags uint32, size int, cas uint64, withCAS bool, err error) {
	tok, rest := nextToken(line)
	if string(tok) != "VALUE" {
		return nil, 0, 0, 0, false, fmt.Errorf("protocol: unexpected get response %q", line)
	}
	key, rest = nextToken(rest)
	flagsTok, rest := nextToken(rest)
	sizeTok, rest := nextToken(rest)
	if len(key) == 0 || len(sizeTok) == 0 {
		return nil, 0, 0, 0, false, fmt.Errorf("protocol: unexpected get response %q", line)
	}
	f, ok := parseUint(flagsTok)
	if !ok || f > 1<<32-1 {
		return nil, 0, 0, 0, false, fmt.Errorf("protocol: bad flags in %q", line)
	}
	sz, ok := parseInt(sizeTok)
	if !ok || sz < 0 || sz > MaxValueLength {
		return nil, 0, 0, 0, false, fmt.Errorf("protocol: bad value size in %q", line)
	}
	casTok, _ := nextToken(rest)
	if len(casTok) > 0 {
		c, ok := parseUint(casTok)
		if !ok {
			return nil, 0, 0, 0, false, fmt.Errorf("protocol: bad cas token in %q", line)
		}
		cas, withCAS = c, true
	}
	return key, uint32(f), int(sz), cas, withCAS, nil
}

// ErrRemote marks an error the server reported in-band (ERROR, SERVER_ERROR,
// CLIENT_ERROR). The connection stays in sync after one — exactly one
// response line was consumed — so callers like the load generator can count
// and continue (e.g. a SET rejected as larger than every slab class) instead
// of tearing the connection down.
var ErrRemote = errors.New("protocol: server reported an error")

// ParseResponseLine classifies a simple one-line response (STORED, DELETED,
// NOT_FOUND, ERROR ...). EXISTS (a lost cas race) and NOT_STORED are
// negative outcomes, not errors; server-reported errors wrap ErrRemote.
func ParseResponseLine(line string) (ok bool, err error) {
	switch {
	case line == "STORED" || line == "DELETED" || line == "OK" || line == "TENANT" || line == "TOUCHED":
		return true, nil
	case line == "NOT_FOUND" || line == "NOT_STORED" || line == "EXISTS":
		return false, nil
	case strings.HasPrefix(line, "ERROR") || strings.HasPrefix(line, "SERVER_ERROR") || strings.HasPrefix(line, "CLIENT_ERROR"):
		return false, fmt.Errorf("%w: %s", ErrRemote, line)
	default:
		return false, fmt.Errorf("protocol: unexpected response %q", line)
	}
}
