// Package client is a small memcached-text-protocol client used by the load
// generator, the examples and the end-to-end tests. It supports the verbs
// the server implements — get/gets, set/add/replace/append/prepend/cas,
// touch, incr/decr, delete, stats, flush_all, version, tenant — including
// pipelined batches (PipelineGetFunc, PipelineSet) that amortize one flush
// over many commands, and is safe for use by one goroutine per Client (the
// load generator opens one Client per worker connection).
//
// The hot paths share the protocol package's allocation discipline: commands
// are assembled with strconv appends into a per-client scratch buffer and
// VALUE response headers are parsed in place with protocol.ParseValueLine.
// The streaming APIs (GetMultiFunc, PipelineGetFunc) deliver each VALUE
// block through a callback over client-owned reusable buffers — zero
// per-value garbage, pinned by the client alloc gate — and the convenience
// forms (Get, Gets) are built on top of them, paying only for the
// caller-owned copies they return.
//
// Tenant selection costs no round trip. SelectTenant only records the name;
// the next operation writes the tenant line ahead of its own command, in the
// same flush, and checks the server's TENANT acknowledgement before it reads
// its own response. The selection is sticky: a connection redialed for any
// reason is told the tenant again by the first operation that uses it, so an
// operation never runs against another tenant than the one last selected.
// Deferring the line loses no error report, because the server never rejects
// the verb — it stores the name without looking it up, and an unknown tenant
// has always surfaced as a SERVER_ERROR on the command after it. Whatever
// does go wrong with the line (a transport failure, an acknowledgement that
// is not TENANT) is returned by the operation that carried it.
//
// Failure handling is explicit. Every transport or desync failure poisons
// the connection: a poisoned connection is never reused (a half-read
// pipeline would misattribute responses to the wrong commands), so the next
// operation transparently redials and replays the tenant selection.
// Idempotent read verbs (get/gets, touch, stats, version) are additionally
// retried across reconnects with jittered exponential backoff up to
// Options.MaxRetries; storage verbs are never retried — a SET or INCR whose
// fate is unknown must surface its error rather than risk applying twice.
// Retried operations return *OpError carrying the retryable-vs-fatal
// classification (see IsRetryable); in-band server errors still unwrap to
// protocol.ErrRemote.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"cliffhanger/internal/protocol"
)

// Options tunes a Client's transport behavior. The zero value dials without
// a timeout, applies no per-operation deadline, and never retries — the
// behavior Dial has always had.
type Options struct {
	// DialTimeout bounds each connect (and reconnect). 0 means none.
	DialTimeout time.Duration
	// OpTimeout is the per-operation deadline: each call must finish its
	// full round trip (a pipelined batch counts as one operation) within
	// it. 0 means none.
	OpTimeout time.Duration
	// MaxRetries is how many times an idempotent operation is retried
	// across reconnects after a retryable failure. 0 disables retries.
	MaxRetries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// retries (base<<attempt plus up to 100% jitter, capped at 64x base).
	// Defaults to 5ms when retries are enabled.
	RetryBackoff time.Duration
}

// OpError is a client operation failure with its retryability class:
// Retryable failures are transport-level (connection reset, timeout, server
// gone) and may heal on a reconnect; fatal ones are protocol-level (in-band
// server errors, desyncs) and will not. It unwraps to the underlying error,
// so errors.Is(err, protocol.ErrRemote) etc. keep working.
type OpError struct {
	Op        string
	Retryable bool
	Err       error
}

func (e *OpError) Error() string {
	kind := "fatal"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("client: %s: %v (%s)", e.Op, e.Err, kind)
}

func (e *OpError) Unwrap() error { return e.Err }

// IsRetryable reports whether err is a transient transport failure that a
// reconnect may heal: dial failures, resets, timeouts, closed connections,
// EOFs. In-band server errors (protocol.ErrRemote) and protocol desyncs are
// fatal — retrying them would repeat the same outcome or worse.
func IsRetryable(err error) bool {
	if err == nil || errors.Is(err, protocol.ErrRemote) {
		return false
	}
	var oe *OpError
	if errors.As(err, &oe) {
		return oe.Retryable
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// permanentError pins a transport failure as non-retryable: a streaming get
// that already delivered values to its callback must not be replayed, even
// though the underlying error looks transient.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Client is one connection to a cliffhanger server.
type Client struct {
	addr string
	opts Options

	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// broken marks the connection poisoned: a transport error or response
	// desync happened mid-stream, so reusing it would misattribute
	// responses. The next operation redials instead.
	broken bool
	// tenant is the caller's selection and connTenant what this connection
	// has been told ("" on a fresh one, which serves the server's default).
	// begin writes the tenant line when they differ, so the selection
	// follows the caller across redials; tenantAck is set from then until
	// flush has read the TENANT that answers the line.
	tenant, connTenant string
	tenantAck          bool

	// scratch assembles outgoing command lines (reused across calls).
	scratch []byte
	// keybuf holds the key of the VALUE block being read: the parsed key
	// aliases the read buffer, which the payload read then overwrites.
	keybuf []byte
	// valbuf holds the payload of the VALUE block being streamed, so the
	// callback APIs read a batch of any depth without per-value garbage.
	valbuf []byte
}

// maxRetainedValue caps valbuf between streaming calls: steady-state values
// never exceed it, while one outsized VALUE block cannot pin its worst-case
// memory for the rest of a long-lived connection.
const maxRetainedValue = 64 << 10

// Dial connects to addr with the given dial timeout (0 means no timeout)
// and no retries or per-op deadlines.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects to addr with the full transport options.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.MaxRetries > 0 && opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	c := &Client{addr: addr, opts: opts}
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.broken = false
	return err
}

// poison marks the connection unusable; the next operation reconnects.
func (c *Client) poison() { c.broken = true }

// ensureConn (re)establishes the transport on first use or after a poison.
// The new connection has been told no tenant, which is what makes begin
// replay the selection ahead of the caller's command — redialing happens
// strictly between operations, so it is safe for every verb, including
// storage.
func (c *Client) ensureConn() error {
	if c.conn != nil && !c.broken {
		return nil
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	var (
		conn net.Conn
		err  error
	)
	if c.opts.DialTimeout > 0 {
		conn, err = net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	} else {
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return err
	}
	if c.r == nil {
		c.r = bufio.NewReaderSize(conn, 64<<10)
		c.w = bufio.NewWriterSize(conn, 64<<10)
	} else {
		c.r.Reset(conn)
		c.w.Reset(conn)
	}
	c.conn = conn
	c.broken = false
	c.connTenant, c.tenantAck = "", false
	return nil
}

// begin readies the transport for one operation: reconnect if poisoned, arm
// the per-op deadline and, if the connection is not on the selected tenant,
// queue the tenant line in front of the command the caller is about to
// write. The line goes out with that command's flush, not its own.
func (c *Client) begin() error {
	if err := c.ensureConn(); err != nil {
		return err
	}
	if c.opts.OpTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))
	}
	if c.tenant == c.connTenant {
		return nil
	}
	c.scratch = append(c.scratch[:0], "tenant "...)
	c.scratch = append(c.scratch, c.tenant...)
	c.scratch = append(c.scratch, '\r', '\n')
	c.connTenant, c.tenantAck = c.tenant, true
	return c.send(c.scratch)
}

// retry runs fn as one attempt of the named idempotent operation,
// reconnecting and retrying on retryable failures with jittered exponential
// backoff. Failures come back as *OpError. Storage verbs never go through
// retry — an ambiguous write must surface, not silently double-apply.
func (c *Client) retry(op string, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := c.begin()
		if err == nil {
			err = fn()
		}
		if err == nil {
			return nil
		}
		retryable := IsRetryable(err)
		if retryable {
			// The round trip died partway; never reuse the stream.
			c.poison()
		}
		if !retryable || attempt >= c.opts.MaxRetries {
			return &OpError{Op: op, Retryable: retryable, Err: err}
		}
		c.backoff(attempt)
	}
}

// backoff sleeps base<<attempt (capped at 64x) plus up to 100% jitter, so a
// thundering herd of retriers does not re-synchronize on the server.
func (c *Client) backoff(attempt int) {
	d := c.opts.RetryBackoff << min(attempt, 6)
	d += time.Duration(rand.Int63n(int64(d) + 1))
	time.Sleep(d)
}

// flush pushes buffered command bytes out, poisoning the connection on
// failure (some commands may have reached the server, some not — the stream
// state is unknowable). If begin queued a tenant line, its acknowledgement
// is the first response line and is consumed here, so the caller reads its
// own response next; anything but TENANT means the stream is not where the
// client thinks it is.
func (c *Client) flush() error {
	if err := c.w.Flush(); err != nil {
		c.poison()
		return err
	}
	if !c.tenantAck {
		return nil
	}
	c.tenantAck = false
	line, err := c.readLineBytes()
	if err != nil {
		return err
	}
	if string(line) != "TENANT" {
		c.poison()
		return fmt.Errorf("client: unexpected tenant response %q", line)
	}
	return nil
}

func (c *Client) send(p []byte) error {
	if _, err := c.w.Write(p); err != nil {
		c.poison()
		return err
	}
	return nil
}

func (c *Client) sendString(s string) error {
	if _, err := c.w.WriteString(s); err != nil {
		c.poison()
		return err
	}
	return nil
}

// SelectTenant makes name the tenant of every following operation. It does
// no I/O: the next operation carries the tenant line in its own flush (see
// the package comment), re-selecting the current tenant sends nothing, and
// of several selections in a row only the last is sent. The selection sticks
// across reconnects. The only error is for the empty name, which no server
// accepts and which here stands for a connection told nothing; it leaves
// the selection as it was.
func (c *Client) SelectTenant(name string) error {
	if name == "" {
		return errors.New("client: empty tenant name")
	}
	c.tenant = name
	return nil
}

// Set stores value under key with zero flags and no expiry.
func (c *Client) Set(key string, value []byte) error {
	return c.SetWithOptions(key, value, 0, 0)
}

// SetWithOptions stores value under key with the given flags and exptime
// (memcached semantics: 0 never expires, <= 30 days is relative seconds,
// larger is an absolute unix timestamp).
func (c *Client) SetWithOptions(key string, value []byte, flags uint32, exptime int64) error {
	ok, line, err := c.storage("set", key, value, flags, exptime, 0, false)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("client: set not stored: %s", line)
	}
	return nil
}

// Add stores value only if key is absent, reporting whether it was stored.
func (c *Client) Add(key string, value []byte, flags uint32, exptime int64) (bool, error) {
	ok, _, err := c.storage("add", key, value, flags, exptime, 0, false)
	return ok, err
}

// Replace stores value only if key is present, reporting whether it was
// stored.
func (c *Client) Replace(key string, value []byte, flags uint32, exptime int64) (bool, error) {
	ok, _, err := c.storage("replace", key, value, flags, exptime, 0, false)
	return ok, err
}

// Append appends value to key's existing value, reporting whether the key
// existed.
func (c *Client) Append(key string, value []byte) (bool, error) {
	ok, _, err := c.storage("append", key, value, 0, 0, 0, false)
	return ok, err
}

// Prepend prepends value to key's existing value, reporting whether the key
// existed.
func (c *Client) Prepend(key string, value []byte) (bool, error) {
	ok, _, err := c.storage("prepend", key, value, 0, 0, 0, false)
	return ok, err
}

// CasStatus is the outcome of a Cas call.
type CasStatus int

const (
	// CasStored means the swap succeeded.
	CasStored CasStatus = iota
	// CasExists means the item changed since the Gets that produced the
	// token.
	CasExists
	// CasNotFound means the key does not exist.
	CasNotFound
)

// Cas stores value under key only if the item still carries the CAS token a
// previous Gets returned.
func (c *Client) Cas(key string, value []byte, flags uint32, exptime int64, cas uint64) (CasStatus, error) {
	_, line, err := c.storage("cas", key, value, flags, exptime, cas, true)
	if err != nil {
		return CasNotFound, err
	}
	switch line {
	case "STORED":
		return CasStored, nil
	case "EXISTS":
		return CasExists, nil
	default:
		return CasNotFound, nil
	}
}

// appendStorageHeader appends "<verb> <key> <flags> <exptime> <bytes>
// [<cas>]\r\n" to dst.
func appendStorageHeader(dst []byte, verb, key string, flags uint32, exptime int64, size int, cas uint64, withCAS bool) []byte {
	dst = append(dst, verb...)
	dst = append(dst, ' ')
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, exptime, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(size), 10)
	if withCAS {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cas, 10)
	}
	return append(dst, '\r', '\n')
}

// storage runs one storage verb round trip and reports the positive/negative
// outcome plus the raw response line. Storage verbs reconnect if the
// previous operation poisoned the connection, but are never retried after
// their own bytes went out: a failed SET's fate is ambiguous.
func (c *Client) storage(verb, key string, value []byte, flags uint32, exptime int64, cas uint64, withCAS bool) (bool, string, error) {
	if err := c.begin(); err != nil {
		return false, "", err
	}
	c.scratch = appendStorageHeader(c.scratch[:0], verb, key, flags, exptime, len(value), cas, withCAS)
	if err := c.send(c.scratch); err != nil {
		return false, "", err
	}
	if err := c.send(value); err != nil {
		return false, "", err
	}
	if err := c.sendString("\r\n"); err != nil {
		return false, "", err
	}
	if err := c.flush(); err != nil {
		return false, "", err
	}
	line, err := c.readLine()
	if err != nil {
		return false, "", err
	}
	ok, err := protocol.ParseResponseLine(line)
	return ok, line, err
}

// Touch updates key's expiry without fetching the value, reporting whether
// the key existed. Touch is idempotent and retried across reconnects.
func (c *Client) Touch(key string, exptime int64) (bool, error) {
	var found bool
	err := c.retry("touch "+key, func() error {
		c.scratch = append(c.scratch[:0], "touch "...)
		c.scratch = append(c.scratch, key...)
		c.scratch = append(c.scratch, ' ')
		c.scratch = strconv.AppendInt(c.scratch, exptime, 10)
		c.scratch = append(c.scratch, '\r', '\n')
		if err := c.send(c.scratch); err != nil {
			return err
		}
		if err := c.flush(); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		found, err = protocol.ParseResponseLine(line)
		return err
	})
	return found, err
}

// Incr adds delta to the decimal counter stored under key, returning the new
// value. The second return value is false when the key does not exist.
func (c *Client) Incr(key string, delta uint64) (uint64, bool, error) {
	return c.incrDecr("incr", key, delta)
}

// Decr subtracts delta from the counter stored under key, clamping at zero.
func (c *Client) Decr(key string, delta uint64) (uint64, bool, error) {
	return c.incrDecr("decr", key, delta)
}

// incrDecr is a mutation, so like the storage verbs it reconnects before
// sending but never retries after.
func (c *Client) incrDecr(verb, key string, delta uint64) (uint64, bool, error) {
	if err := c.begin(); err != nil {
		return 0, false, err
	}
	c.scratch = append(c.scratch[:0], verb...)
	c.scratch = append(c.scratch, ' ')
	c.scratch = append(c.scratch, key...)
	c.scratch = append(c.scratch, ' ')
	c.scratch = strconv.AppendUint(c.scratch, delta, 10)
	c.scratch = append(c.scratch, '\r', '\n')
	if err := c.send(c.scratch); err != nil {
		return 0, false, err
	}
	if err := c.flush(); err != nil {
		return 0, false, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, false, err
	}
	if line == "NOT_FOUND" {
		return 0, false, nil
	}
	val, perr := strconv.ParseUint(line, 10, 64)
	if perr != nil {
		if _, err := protocol.ParseResponseLine(line); err != nil {
			return 0, false, err
		}
		c.poison()
		return 0, false, fmt.Errorf("client: unexpected %s response %q", verb, line)
	}
	return val, true, nil
}

// ValueFunc receives one VALUE block of a streamed get response. key and
// value alias client-owned buffers reused across calls and are valid only
// for the duration of the callback; callers that retain them must copy.
type ValueFunc func(key []byte, flags uint32, cas uint64, value []byte)

// IndexedValueFunc receives one VALUE block of a pipelined streaming get
// along with the index (into the request batch) of the key it answers.
type IndexedValueFunc func(i int, key []byte, flags uint32, cas uint64, value []byte)

// GetMultiFunc issues one multi-key get (or gets, when withCAS is set) and
// streams each returned VALUE block to fn without per-value garbage: keys
// and payloads are read into client-owned buffers reused across calls.
// Missing keys simply produce no callback. The batch is retried across
// reconnects only while no value has been delivered yet — once fn has seen
// data, a mid-stream failure is surfaced rather than replayed.
func (c *Client) GetMultiFunc(keys []string, withCAS bool, fn ValueFunc) error {
	if len(keys) == 0 {
		return nil
	}
	delivered := false
	return c.retry("get multi", func() error {
		err := c.getMultiOnce(keys, withCAS, func(key []byte, flags uint32, cas uint64, value []byte) {
			delivered = true
			fn(key, flags, cas, value)
		})
		if err != nil && delivered && IsRetryable(err) {
			return &permanentError{err}
		}
		return err
	})
}

func (c *Client) getMultiOnce(keys []string, withCAS bool, fn ValueFunc) error {
	c.shedStreamBuffers()
	verb := "get"
	if withCAS {
		verb = "gets"
	}
	c.scratch = append(c.scratch[:0], verb...)
	for _, key := range keys {
		c.scratch = append(c.scratch, ' ')
		c.scratch = append(c.scratch, key...)
	}
	c.scratch = append(c.scratch, '\r', '\n')
	if err := c.send(c.scratch); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	return c.streamValues(fn)
}

// PipelineGetFunc issues one single-key get per key in one batch write and a
// single flush, then streams every VALUE block to fn. Each command carries
// exactly one key, so the i passed to fn is the exact index into keys of the
// command being answered (a missing key produces no callback for its index —
// duplicates in keys are answered once per occurrence). No map or data
// slices are built, so a deep pipelined GET drives the server's
// zero-allocation path end to end; the client alloc gate pins the round trip
// at <= 1 amortized allocation per operation. Like GetMultiFunc, the batch
// is retried across reconnects only while fn has not yet seen data.
func (c *Client) PipelineGetFunc(keys []string, fn IndexedValueFunc) error {
	delivered := false
	return c.retry("pipeline get", func() error {
		err := c.pipelineGetOnce(keys, func(i int, key []byte, flags uint32, cas uint64, value []byte) {
			delivered = true
			fn(i, key, flags, cas, value)
		})
		if err != nil && delivered && IsRetryable(err) {
			return &permanentError{err}
		}
		return err
	})
}

func (c *Client) pipelineGetOnce(keys []string, fn IndexedValueFunc) error {
	c.shedStreamBuffers()
	for _, key := range keys {
		c.scratch = append(c.scratch[:0], "get "...)
		c.scratch = append(c.scratch, key...)
		c.scratch = append(c.scratch, '\r', '\n')
		if err := c.send(c.scratch); err != nil {
			return err
		}
	}
	if err := c.flush(); err != nil {
		return err
	}
	for i := range keys {
		for {
			key, flags, cas, value, done, err := c.nextStreamValue()
			if err != nil {
				return err
			}
			if done {
				break
			}
			fn(i, key, flags, cas, value)
		}
	}
	return nil
}

// Gets fetches key along with its flags and CAS token. The returned data is
// freshly allocated and owned by the caller.
func (c *Client) Gets(key string) (data []byte, flags uint32, cas uint64, ok bool, err error) {
	err = c.GetMultiFunc([]string{key}, true, func(k []byte, f uint32, cs uint64, v []byte) {
		if string(k) == key {
			data = append([]byte(nil), v...)
			flags, cas, ok = f, cs, true
		}
	})
	if err != nil {
		return nil, 0, 0, false, err
	}
	return data, flags, cas, ok, nil
}

// Get fetches key, reporting whether it was present. The returned data is
// freshly allocated and owned by the caller.
func (c *Client) Get(key string) ([]byte, bool, error) {
	var (
		data  []byte
		found bool
	)
	err := c.GetMultiFunc([]string{key}, false, func(k []byte, _ uint32, _ uint64, v []byte) {
		if string(k) == key {
			data = append([]byte(nil), v...)
			found = true
		}
	})
	if err != nil {
		return nil, false, err
	}
	return data, found, nil
}

// PipelineSet stores value under every key with a single batch write and a
// single flush, then reads the responses. The server parses ahead on its
// buffered reader and flushes once per batch, so a deep pipeline pays one
// syscall per direction per batch instead of one per command.
func (c *Client) PipelineSet(keys []string, value []byte) error {
	return c.PipelineSetOptions(keys, value, 0, 0)
}

// PipelineSetOptions is PipelineSet with explicit flags and exptime.
func (c *Client) PipelineSetOptions(keys []string, value []byte, flags uint32, exptime int64) error {
	if err := c.begin(); err != nil {
		return err
	}
	for _, key := range keys {
		c.scratch = appendStorageHeader(c.scratch[:0], "set", key, flags, exptime, len(value), 0, false)
		if err := c.send(c.scratch); err != nil {
			return err
		}
		if err := c.send(value); err != nil {
			return err
		}
		if err := c.sendString("\r\n"); err != nil {
			return err
		}
	}
	if err := c.flush(); err != nil {
		return err
	}
	for _, key := range keys {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		ok, err := protocol.ParseResponseLine(line)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("client: pipelined set %q not stored: %s", key, line)
		}
	}
	return nil
}

// Delete removes key, reporting whether it existed. Like the storage verbs
// it is not retried: a retried delete racing a concurrent re-set could
// remove a value the first attempt never saw.
func (c *Client) Delete(key string) (bool, error) {
	if err := c.begin(); err != nil {
		return false, err
	}
	c.scratch = append(c.scratch[:0], "delete "...)
	c.scratch = append(c.scratch, key...)
	c.scratch = append(c.scratch, '\r', '\n')
	if err := c.send(c.scratch); err != nil {
		return false, err
	}
	if err := c.flush(); err != nil {
		return false, err
	}
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	return protocol.ParseResponseLine(line)
}

// FlushAll clears the selected tenant.
func (c *Client) FlushAll() error {
	if err := c.begin(); err != nil {
		return err
	}
	if err := c.writeLine("flush_all"); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if line != "OK" {
		return fmt.Errorf("client: flush_all failed: %s", line)
	}
	return nil
}

// TenantCreate registers a new tenant with an mb-megabyte reservation. The
// server replies OK on success; a duplicate name is a server error.
func (c *Client) TenantCreate(name string, mb uint64) error {
	return c.adminVerb(fmt.Sprintf("tenant_create %s %d", name, mb))
}

// TenantResize retargets a live tenant's reservation at mb megabytes. The
// resize executes incrementally on the server; the OK reply only acknowledges
// the new target.
func (c *Client) TenantResize(name string, mb uint64) error {
	return c.adminVerb(fmt.Sprintf("tenant_resize %s %d", name, mb))
}

// TenantDelete unregisters a tenant. New requests fail immediately; the
// server drains and returns the tenant's memory asynchronously.
func (c *Client) TenantDelete(name string) error {
	return c.adminVerb("tenant_delete " + name)
}

// adminVerb sends one admin command line and expects an OK reply. Admin
// verbs mutate the tenant registry, so they are not retried.
func (c *Client) adminVerb(line string) error {
	if err := c.begin(); err != nil {
		return err
	}
	if err := c.writeLine(line); err != nil {
		return err
	}
	resp, err := c.readLine()
	if err != nil {
		return err
	}
	if resp != "OK" {
		return fmt.Errorf("client: %s failed: %s", line, resp)
	}
	return nil
}

// Stats is one group of the stats verb as the server rendered it, field name
// to value. The server's renderer is the schema; a reader names the fields it
// needs.
type Stats map[string]string

// Int parses the named field as an integer; a missing or non-integer field is
// an error.
func (s Stats) Int(name string) (int64, error) {
	v, ok := s[name]
	if !ok {
		return 0, fmt.Errorf("client: stats has no %s", name)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("client: stats %s = %q: %w", name, v, err)
	}
	return n, nil
}

// Stats fetches one stats group: with no args the selected tenant's plain
// group, else the one args name ("slabs", "arbiter", "cliffhanger [tenant]").
func (c *Client) Stats(args ...string) (Stats, error) {
	cmd := strings.Join(append([]string{"stats"}, args...), " ")
	var stats Stats
	err := c.retry(cmd, func() error {
		if err := c.writeLine(cmd); err != nil {
			return err
		}
		stats = make(Stats)
		for {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			if line == "END" {
				return nil
			}
			fields := strings.SplitN(line, " ", 3)
			if len(fields) == 3 && fields[0] == "STAT" {
				stats[fields[1]] = fields[2]
			} else {
				c.poison()
				return fmt.Errorf("client: unexpected stats line %q", line)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// Version returns the server version string.
func (c *Client) Version() (string, error) {
	var version string
	err := c.retry("version", func() error {
		if err := c.writeLine("version"); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		version = strings.TrimPrefix(line, "VERSION ")
		return nil
	})
	if err != nil {
		return "", err
	}
	return version, nil
}

func (c *Client) writeLine(line string) error {
	if err := c.sendString(line); err != nil {
		return err
	}
	if err := c.sendString("\r\n"); err != nil {
		return err
	}
	return c.flush()
}

func (c *Client) readLine() (string, error) {
	line, err := c.readLineBytes()
	if err != nil {
		return "", err
	}
	return string(line), nil
}

// readLineBytes returns the next response line without its terminator as a
// slice into the read buffer, valid until the next read. Any failure
// poisons the connection: the stream position is unknown.
func (c *Client) readLineBytes() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		c.poison()
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("client: response line too long")
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// shedStreamBuffers drops streaming scratch an earlier outsized value grew
// past the retention cap, so one huge VALUE block cannot pin its worst-case
// memory on a long-lived connection.
func (c *Client) shedStreamBuffers() {
	if cap(c.valbuf) > maxRetainedValue {
		c.valbuf = nil
	}
}

// nextStreamValue reads one VALUE block of a get/gets response, or its END
// terminator (done=true). key and value alias client-owned buffers valid
// only until the next read on the connection.
func (c *Client) nextStreamValue() (key []byte, flags uint32, cas uint64, value []byte, done bool, err error) {
	line, err := c.readLineBytes()
	if err != nil {
		return nil, 0, 0, nil, false, err
	}
	if len(line) == 3 && line[0] == 'E' && line[1] == 'N' && line[2] == 'D' {
		return nil, 0, 0, nil, true, nil
	}
	k, flags, size, cas, _, err := protocol.ParseValueLine(line)
	if err != nil {
		// An unparseable VALUE header means the stream is desynced (or the
		// server reported an in-band error mid-stream); either way the
		// remaining bytes cannot be attributed to commands.
		c.poison()
		return nil, 0, 0, nil, false, err
	}
	// The key aliases the read buffer, which the payload read overwrites.
	c.keybuf = append(c.keybuf[:0], k...)
	if cap(c.valbuf) < size {
		c.valbuf = make([]byte, size)
	}
	value = c.valbuf[:size]
	if _, err := io.ReadFull(c.r, value); err != nil {
		c.poison()
		return nil, 0, 0, nil, false, err
	}
	if _, err := c.r.Discard(2); err != nil { // trailing CRLF
		c.poison()
		return nil, 0, 0, nil, false, err
	}
	return c.keybuf, flags, cas, value, false, nil
}

// streamValues reads the VALUE blocks of one get/gets response until END,
// passing each to fn.
func (c *Client) streamValues(fn ValueFunc) error {
	for {
		key, flags, cas, value, done, err := c.nextStreamValue()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		fn(key, flags, cas, value)
	}
}
