// Package server is the networked front end of the engine: a length-prefixed
// binary protocol over TCP (Put/Get/Delete/MultiGet/Scan/WriteBatch, all
// column-family aware), a shard router that hash-partitions the keyspace
// across N embedded lsm.DB instances, a server that answers each connection a
// burst at a time, and the matching pipelined client. Everything is stdlib-only.
//
// Wire format: every message (request or response) travels as one frame,
//
//	uint32(BE) body length | body
//
// A request body is an opcode byte followed by opcode-specific fields; a
// response body is a status byte followed by status/opcode-specific fields.
// Variable-length fields (keys, values, CF names) are uvarint-length-prefixed
// byte strings. Responses on a connection are returned strictly in request
// order, which is what makes client-side pipelining trivial: N requests may
// be in flight and the N responses match them positionally.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Opcodes. The zero value is invalid on purpose: an all-zero frame is
// garbage, not a Put.
const (
	opInvalid byte = iota
	OpPut
	OpGet
	OpDelete
	OpMultiGet
	OpScan
	OpBatch
	OpStats
	OpSetOptions
	OpWorkload
	opMax // one past the last valid opcode
)

// opNames maps opcodes to the labels used by metrics and errors.
var opNames = [...]string{
	opInvalid:    "invalid",
	OpPut:        "put",
	OpGet:        "get",
	OpDelete:     "delete",
	OpMultiGet:   "multiget",
	OpScan:       "scan",
	OpBatch:      "batch",
	OpStats:      "stats",
	OpSetOptions: "setoptions",
	OpWorkload:   "workload",
}

// OpName returns a human-readable opcode label.
func OpName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// Response status codes.
const (
	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusErr      byte = 2
)

// MaxFrameSize bounds a single frame. Anything larger is treated as a
// protocol violation (a garbage length prefix would otherwise make the
// reader allocate gigabytes).
const MaxFrameSize = 32 << 20

// ErrProtocol marks malformed frames: bad opcode, truncated fields, trailing
// bytes, oversized lengths. Connections are dropped on it.
var ErrProtocol = errors.New("kvserver: protocol error")

// ErrNotFound is the client-side mapping of StatusNotFound.
var ErrNotFound = errors.New("kvserver: not found")

// BatchEntry is one operation inside an OpBatch request. A false IsDelete is
// a put.
type BatchEntry struct {
	IsDelete bool
	CF       string
	Key      []byte
	Value    []byte
}

// Request is the decoded form of one request frame. Field use depends on Op:
//
//	OpPut       CF, Key, Value
//	OpGet       CF, Key
//	OpDelete    CF, Key
//	OpMultiGet  CF, Keys
//	OpScan        CF, Key (start, may be empty), Limit
//	OpBatch       Batch
//	OpStats       (nothing)
//	OpSetOptions  CF ("" = DB/default scope), Options (sorted name/value pairs)
//	OpWorkload    (nothing)
type Request struct {
	Op      byte
	CF      string
	Key     []byte
	Value   []byte
	Keys    [][]byte
	Limit   int
	Batch   []BatchEntry
	Options []OptionKV
}

// OptionKV is one name=value pair in an OpSetOptions request.
type OptionKV struct {
	Name  string
	Value string
}

// KV is one key-value pair in a scan response.
type KV struct {
	Key   []byte
	Value []byte
}

// Response is the decoded form of one response frame. Status is always set;
// the rest depends on the request's opcode:
//
//	get         Value (when found)
//	multiget    Found + Values, positional with the request's Keys
//	scan        Pairs
//	stats       Text
//	setoptions  Text (human-readable applied summary)
//	workload    Text (the server's lsm.WorkloadCounters as JSON)
//	errors      Err (human-readable message, Status == StatusErr)
type Response struct {
	Status byte
	Err    string
	Value  []byte
	Found  []bool
	Values [][]byte
	Pairs  []KV
	Text   string
}

// frameBuf is a pooled request body on the client's encode path: a caller
// encodes into it and the write loop puts it back once bufio holds the bytes.
// Pooled by pointer so a put never allocates. (The server needs no pool: each
// connection owns one scratch frame, see serveConn.)
type frameBuf struct {
	b []byte
}

var framePool = sync.Pool{
	New: func() any { return new(frameBuf) },
}

func getFrame() *frameBuf  { return framePool.Get().(*frameBuf) }
func putFrame(f *frameBuf) { framePool.Put(f) }

// reset clears the request for reuse, keeping Keys/Batch/Options capacity.
func (req *Request) reset() {
	for i := range req.Keys {
		req.Keys[i] = nil
	}
	for i := range req.Batch {
		req.Batch[i] = BatchEntry{}
	}
	for i := range req.Options {
		req.Options[i] = OptionKV{}
	}
	req.Op = 0
	req.CF = ""
	req.Key = nil
	req.Value = nil
	req.Keys = req.Keys[:0]
	req.Limit = 0
	req.Batch = req.Batch[:0]
	req.Options = req.Options[:0]
}

// appendBytes appends a uvarint-length-prefixed byte string.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// reader consumes decoded fields from a frame body.
type reader struct {
	buf []byte
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, ErrProtocol
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)) {
		return nil, ErrProtocol
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out, nil
}

func (r *reader) string() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *reader) byte() (byte, error) {
	if len(r.buf) < 1 {
		return 0, ErrProtocol
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

// done errors unless the frame was consumed exactly.
func (r *reader) done() error {
	if len(r.buf) != 0 {
		return ErrProtocol
	}
	return nil
}

// EncodeRequest appends the request's frame body (no length prefix) to dst.
func EncodeRequest(dst []byte, req *Request) ([]byte, error) {
	dst = append(dst, req.Op)
	switch req.Op {
	case OpPut:
		dst = appendString(dst, req.CF)
		dst = appendBytes(dst, req.Key)
		dst = appendBytes(dst, req.Value)
	case OpGet, OpDelete:
		dst = appendString(dst, req.CF)
		dst = appendBytes(dst, req.Key)
	case OpMultiGet:
		dst = appendString(dst, req.CF)
		dst = binary.AppendUvarint(dst, uint64(len(req.Keys)))
		for _, k := range req.Keys {
			dst = appendBytes(dst, k)
		}
	case OpScan:
		dst = appendString(dst, req.CF)
		dst = appendBytes(dst, req.Key)
		dst = binary.AppendUvarint(dst, uint64(req.Limit))
	case OpBatch:
		dst = binary.AppendUvarint(dst, uint64(len(req.Batch)))
		for _, e := range req.Batch {
			kind := byte(0)
			if e.IsDelete {
				kind = 1
			}
			dst = append(dst, kind)
			dst = appendString(dst, e.CF)
			dst = appendBytes(dst, e.Key)
			if !e.IsDelete {
				dst = appendBytes(dst, e.Value)
			}
		}
	case OpStats, OpWorkload:
		// no payload
	case OpSetOptions:
		dst = appendString(dst, req.CF)
		dst = binary.AppendUvarint(dst, uint64(len(req.Options)))
		for _, kv := range req.Options {
			dst = appendString(dst, kv.Name)
			dst = appendString(dst, kv.Value)
		}
	default:
		return nil, fmt.Errorf("%w: unknown opcode %d", ErrProtocol, req.Op)
	}
	return dst, nil
}

// DecodeRequest parses a request frame body into a fresh Request.
func DecodeRequest(body []byte) (*Request, error) {
	req := &Request{}
	if err := DecodeRequestInto(body, req); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeRequestInto parses a request frame body into req, reusing the
// capacity of its Keys/Batch/Options slices. req must be zero or reset; the
// decoded fields alias body. On error req is left partially filled and must
// be reset before reuse.
func DecodeRequestInto(body []byte, req *Request) error {
	r := reader{body}
	op, err := r.byte()
	if err != nil {
		return err
	}
	if op == opInvalid || op >= opMax {
		return fmt.Errorf("%w: unknown opcode %d", ErrProtocol, op)
	}
	req.Op = op
	switch op {
	case OpPut:
		if req.CF, err = r.string(); err != nil {
			return err
		}
		if req.Key, err = r.bytes(); err != nil {
			return err
		}
		if req.Value, err = r.bytes(); err != nil {
			return err
		}
	case OpGet, OpDelete:
		if req.CF, err = r.string(); err != nil {
			return err
		}
		if req.Key, err = r.bytes(); err != nil {
			return err
		}
	case OpMultiGet:
		if req.CF, err = r.string(); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)) { // each key costs >= 1 byte
			return ErrProtocol
		}
		if uint64(cap(req.Keys)) >= n {
			req.Keys = req.Keys[:n]
		} else {
			req.Keys = make([][]byte, n)
		}
		for i := range req.Keys {
			if req.Keys[i], err = r.bytes(); err != nil {
				return err
			}
		}
	case OpScan:
		if req.CF, err = r.string(); err != nil {
			return err
		}
		if req.Key, err = r.bytes(); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		req.Limit = int(n)
	case OpBatch:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)) { // each entry costs >= 1 byte
			return ErrProtocol
		}
		if uint64(cap(req.Batch)) >= n {
			req.Batch = req.Batch[:n]
		} else {
			req.Batch = make([]BatchEntry, n)
		}
		for i := range req.Batch {
			kind, err := r.byte()
			if err != nil {
				return err
			}
			if kind > 1 {
				return fmt.Errorf("%w: bad batch entry kind %d", ErrProtocol, kind)
			}
			e := &req.Batch[i]
			e.IsDelete = kind == 1
			e.Value = nil
			if e.CF, err = r.string(); err != nil {
				return err
			}
			if e.Key, err = r.bytes(); err != nil {
				return err
			}
			if !e.IsDelete {
				if e.Value, err = r.bytes(); err != nil {
					return err
				}
			}
		}
	case OpStats, OpWorkload:
	case OpSetOptions:
		if req.CF, err = r.string(); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)) { // each pair costs >= 2 bytes
			return ErrProtocol
		}
		if uint64(cap(req.Options)) >= n {
			req.Options = req.Options[:n]
		} else {
			req.Options = make([]OptionKV, n)
		}
		for i := range req.Options {
			if req.Options[i].Name, err = r.string(); err != nil {
				return err
			}
			if req.Options[i].Value, err = r.string(); err != nil {
				return err
			}
		}
	}
	return r.done()
}

// EncodeResponse appends the response frame body for the given request
// opcode (the opcode selects which fields travel).
func EncodeResponse(dst []byte, op byte, resp *Response) []byte {
	dst = append(dst, resp.Status)
	if resp.Status == StatusErr {
		return appendString(dst, resp.Err)
	}
	switch op {
	case OpGet:
		if resp.Status == StatusOK {
			dst = appendBytes(dst, resp.Value)
		}
	case OpMultiGet:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Found)))
		for i, ok := range resp.Found {
			if ok {
				dst = append(dst, 1)
				dst = appendBytes(dst, resp.Values[i])
			} else {
				dst = append(dst, 0)
			}
		}
	case OpScan:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Pairs)))
		for _, kv := range resp.Pairs {
			dst = appendBytes(dst, kv.Key)
			dst = appendBytes(dst, kv.Value)
		}
	case OpStats, OpSetOptions, OpWorkload:
		dst = appendString(dst, resp.Text)
	}
	return dst
}

// DecodeResponse parses a response frame body for the given request opcode
// into a fresh Response.
func DecodeResponse(op byte, body []byte) (*Response, error) {
	resp := &Response{}
	if err := decodeResponseInto(op, body, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// statusReply reports whether op's decoded response keeps nothing of the
// reply frame: a status, and an error or text decodeResponseInto copies out
// with reader.string. Such a frame can be read into a reused buffer.
func statusReply(op byte) bool {
	switch op {
	case OpPut, OpDelete, OpBatch, OpStats, OpWorkload, OpSetOptions:
		return true
	}
	return false
}

// decodeResponseInto parses a response frame body for the given request
// opcode into resp, overwriting every field: nothing resp held before
// survives. Value, Values and Pairs alias body; Found, Values and Pairs are
// allocated fresh, because a decoded response is handed to the caller to
// keep. Err and Text are copied out of body (see statusReply). On error
// resp holds a partial decode.
func decodeResponseInto(op byte, body []byte, resp *Response) error {
	*resp = Response{}
	r := reader{body}
	status, err := r.byte()
	if err != nil {
		return err
	}
	resp.Status = status
	if status == StatusErr {
		if resp.Err, err = r.string(); err != nil {
			return err
		}
		return r.done()
	}
	if status != StatusOK && status != StatusNotFound {
		return fmt.Errorf("%w: unknown status %d", ErrProtocol, status)
	}
	switch op {
	case OpGet:
		if status == StatusOK {
			if resp.Value, err = r.bytes(); err != nil {
				return err
			}
		}
	case OpMultiGet:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)) { // each result costs >= 1 byte
			return ErrProtocol
		}
		resp.Found = make([]bool, n)
		resp.Values = make([][]byte, n)
		for i := range resp.Found {
			flag, err := r.byte()
			if err != nil {
				return err
			}
			switch flag {
			case 1:
				resp.Found[i] = true
				if resp.Values[i], err = r.bytes(); err != nil {
					return err
				}
			case 0:
			default:
				return fmt.Errorf("%w: bad multiget flag %d", ErrProtocol, flag)
			}
		}
	case OpScan:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)) { // each pair costs >= 2 bytes
			return ErrProtocol
		}
		resp.Pairs = make([]KV, n)
		for i := range resp.Pairs {
			if resp.Pairs[i].Key, err = r.bytes(); err != nil {
				return err
			}
			if resp.Pairs[i].Value, err = r.bytes(); err != nil {
				return err
			}
		}
	case OpStats, OpSetOptions, OpWorkload:
		if resp.Text, err = r.string(); err != nil {
			return err
		}
	}
	return r.done()
}

// writeFrame buffers one length-prefixed frame. The header is built in the
// writer's own spare capacity, so nothing escapes to the heap.
func writeFrame(w *bufio.Writer, body []byte) error {
	if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(body)))); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// frameBuffered reports whether r already holds one complete frame, that is,
// whether the next readFrame returns without touching the socket.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	return uint64(r.Buffered()-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// readFrame reads one length-prefixed frame body into buf (reallocated when
// too small). Oversized lengths are a protocol error; a clean EOF before the
// first header byte returns io.EOF.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return nil, fmt.Errorf("%w: truncated frame header", ErrProtocol)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(4)
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: truncated frame body", ErrProtocol)
	}
	return buf, nil
}
