package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The binary format is a sequence of fixed-header records:
//
//	magic   [4]byte "CLFT" (file header only)
//	version uint16  (file header only)
//	record:
//	  time    float64 (LittleEndian bits)
//	  app     uint32
//	  op      uint8
//	  size    uint32
//	  keyLen  uint16
//	  key     [keyLen]byte
//
// It is compact enough for multi-hundred-million request traces and avoids
// any third-party dependency.

var binaryMagic = [4]byte{'C', 'L', 'F', 'T'}

const binaryVersion = 1

// SniffBinary reports whether prefix (at least the first 4 bytes of a file)
// starts with the binary trace magic, so callers can pick between the binary
// and CSV readers without trial parsing.
func SniffBinary(prefix []byte) bool {
	return len(prefix) >= 4 && [4]byte(prefix[:4]) == binaryMagic
}

// Writer serializes requests to the binary trace format.
type Writer struct {
	w       *bufio.Writer
	wrote   bool
	count   int64
	scratch [23]byte
}

// NewWriter returns a Writer emitting the binary trace format to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20)}
}

// Write appends one request.
func (tw *Writer) Write(r Request) error {
	if !tw.wrote {
		if _, err := tw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		var ver [2]byte
		binary.LittleEndian.PutUint16(ver[:], binaryVersion)
		if _, err := tw.w.Write(ver[:]); err != nil {
			return err
		}
		tw.wrote = true
	}
	if len(r.Key) > math.MaxUint16 {
		return fmt.Errorf("trace: key longer than %d bytes", math.MaxUint16)
	}
	b := tw.scratch[:]
	binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(r.Time))
	binary.LittleEndian.PutUint32(b[8:12], uint32(r.App))
	b[12] = byte(r.Op)
	binary.LittleEndian.PutUint32(b[13:17], uint32(r.Size))
	binary.LittleEndian.PutUint16(b[17:19], uint16(len(r.Key)))
	if _, err := tw.w.Write(b[:19]); err != nil {
		return err
	}
	if _, err := tw.w.WriteString(r.Key); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Count reports the number of requests written so far.
func (tw *Writer) Count() int64 { return tw.count }

// Flush flushes buffered data to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader reads requests from the binary trace format. It implements Source.
type Reader struct {
	r       *bufio.Reader
	started bool
	err     error
}

// NewReader returns a Reader decoding the binary trace format from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<20)}
}

// Err returns the first error encountered other than io.EOF.
func (tr *Reader) Err() error { return tr.err }

// Next implements Source.
func (tr *Reader) Next() (Request, bool) {
	if tr.err != nil {
		return Request{}, false
	}
	if !tr.started {
		var hdr [6]byte
		if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
			tr.setErr(err)
			return Request{}, false
		}
		if [4]byte(hdr[:4]) != binaryMagic {
			tr.err = fmt.Errorf("trace: bad magic %q", hdr[:4])
			return Request{}, false
		}
		if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion {
			tr.err = fmt.Errorf("trace: unsupported version %d", v)
			return Request{}, false
		}
		tr.started = true
	}
	var rec [19]byte
	if _, err := io.ReadFull(tr.r, rec[:]); err != nil {
		tr.setErr(err)
		return Request{}, false
	}
	keyLen := binary.LittleEndian.Uint16(rec[17:19])
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(tr.r, key); err != nil {
		tr.setErr(err)
		return Request{}, false
	}
	return Request{
		Time: math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
		App:  int(binary.LittleEndian.Uint32(rec[8:12])),
		Op:   Op(rec[12]),
		Size: int64(binary.LittleEndian.Uint32(rec[13:17])),
		Key:  string(key),
	}, true
}

func (tr *Reader) setErr(err error) {
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		tr.err = err
	}
}

// ReadCSV parses a human-readable CSV trace, one request a line:
// time,app,op,size,key, with op one of get, set and delete.
func ReadCSV(r io.Reader) ([]Request, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	var out []Request
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return out, fmt.Errorf("trace: bad time %q: %v", rec[0], err)
		}
		app, err := strconv.Atoi(rec[1])
		if err != nil {
			return out, fmt.Errorf("trace: bad app %q: %v", rec[1], err)
		}
		var op Op
		switch rec[2] {
		case "get":
			op = OpGet
		case "set":
			op = OpSet
		case "delete":
			op = OpDelete
		default:
			return out, fmt.Errorf("trace: bad op %q", rec[2])
		}
		size, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil {
			return out, fmt.Errorf("trace: bad size %q: %v", rec[3], err)
		}
		out = append(out, Request{Time: t, App: app, Op: op, Size: size, Key: rec[4]})
	}
}
