package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// reqEqual compares decoded requests field by field (nil and empty byte
// slices are wire-equivalent).
func reqEqual(a, b *Request) bool {
	if a.Op != b.Op || a.CF != b.CF || a.Limit != b.Limit {
		return false
	}
	if !bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) {
		return false
	}
	if len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if !bytes.Equal(a.Keys[i], b.Keys[i]) {
			return false
		}
	}
	if len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		x, y := a.Batch[i], b.Batch[i]
		if x.IsDelete != y.IsDelete || x.CF != y.CF ||
			!bytes.Equal(x.Key, y.Key) || !bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	if len(a.Options) != len(b.Options) {
		return false
	}
	for i := range a.Options {
		if a.Options[i] != b.Options[i] {
			return false
		}
	}
	return true
}

// testRequests covers every opcode, CF-tagged and default-family variants.
func testRequests() []*Request {
	return []*Request{
		{Op: OpPut, CF: "", Key: []byte("k1"), Value: []byte("v1")},
		{Op: OpPut, CF: "hot", Key: []byte("k2"), Value: bytes.Repeat([]byte("x"), 4096)},
		{Op: OpGet, CF: "", Key: []byte("k1")},
		{Op: OpGet, CF: "hot", Key: []byte("k2")},
		{Op: OpDelete, CF: "cold", Key: []byte("gone")},
		{Op: OpMultiGet, CF: "", Keys: [][]byte{[]byte("a"), []byte("b"), []byte("c")}},
		{Op: OpMultiGet, CF: "hot", Keys: [][]byte{[]byte("only")}},
		{Op: OpScan, CF: "", Key: []byte("start"), Limit: 10},
		{Op: OpScan, CF: "hot", Key: nil, Limit: 1},
		{Op: OpBatch, Batch: []BatchEntry{
			{CF: "", Key: []byte("k1"), Value: []byte("v1")},
			{IsDelete: true, CF: "hot", Key: []byte("k2")},
			{CF: "cold", Key: []byte("k3"), Value: []byte{}},
		}},
		{Op: OpStats},
		{Op: OpWorkload},
		{Op: OpSetOptions, CF: "", Options: []OptionKV{
			{Name: "write_buffer_size", Value: "1048576"},
			{Name: "max_background_jobs", Value: "4"},
		}},
		{Op: OpSetOptions, CF: "hot", Options: []OptionKV{
			{Name: "level0_slowdown_writes_trigger", Value: "12"},
		}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range testRequests() {
		body, err := EncodeRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: encode: %v", OpName(req.Op), err)
		}
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", OpName(req.Op), err)
		}
		if !reqEqual(req, got) {
			t.Errorf("%s: round trip mismatch: sent %+v got %+v", OpName(req.Op), req, got)
		}
	}
}

// Every proper prefix of a valid frame body must be rejected: all requests
// have a fixed field count, so truncation always cuts a field or leaves a
// length prefix unsatisfied.
func TestRequestTruncationRejected(t *testing.T) {
	for _, req := range testRequests() {
		body, err := EncodeRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(body); n++ {
			if _, err := DecodeRequest(body[:n]); err == nil {
				t.Errorf("%s: decode accepted %d/%d-byte prefix", OpName(req.Op), n, len(body))
			}
		}
	}
}

func TestRequestGarbageRejected(t *testing.T) {
	cases := [][]byte{
		{},                    // empty body
		{0},                   // opInvalid
		{byte(opMax)},         // one past the last opcode
		{0xff, 0x01, 0x02},    // far out of range
		{OpStats, 0xaa},       // trailing byte after a complete request
		{OpMultiGet, 0, 0xff}, // key count with no key bytes to back it
		{OpBatch, 1, 2},       // bad batch entry kind
		append([]byte{OpPut, 0}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // 2^63 key length
	}
	for i, body := range cases {
		if _, err := DecodeRequest(body); err == nil {
			t.Errorf("case %d (% x): decode accepted garbage", i, body)
		} else if !errors.Is(err, ErrProtocol) {
			t.Errorf("case %d: error %v is not ErrProtocol", i, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op   byte
		resp *Response
	}{
		{OpPut, &Response{Status: StatusOK}},
		{OpGet, &Response{Status: StatusOK, Value: []byte("hello")}},
		{OpGet, &Response{Status: StatusNotFound}},
		{OpGet, &Response{Status: StatusErr, Err: "shard 2 exploded"}},
		{OpMultiGet, &Response{
			Status: StatusOK,
			Found:  []bool{true, false, true},
			Values: [][]byte{[]byte("v0"), nil, []byte("v2")},
		}},
		{OpScan, &Response{Status: StatusOK, Pairs: []KV{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("b"), Value: []byte("2")},
		}}},
		{OpScan, &Response{Status: StatusOK}}, // empty scan
		{OpStats, &Response{Status: StatusOK, Text: "** stats **\nline\n"}},
		{OpWorkload, &Response{Status: StatusOK, Text: `{"at_ns":5,"families":{"default":{"reads":3,"writes":2,"scans":1}}}`}},
		{OpBatch, &Response{Status: StatusErr, Err: "boom"}},
	}
	for i, c := range cases {
		body := EncodeResponse(nil, c.op, c.resp)
		got, err := DecodeResponse(c.op, body)
		if err != nil {
			t.Fatalf("case %d (%s): decode: %v", i, OpName(c.op), err)
		}
		if got.Status != c.resp.Status || got.Err != c.resp.Err || got.Text != c.resp.Text {
			t.Errorf("case %d: status/err/text mismatch: %+v vs %+v", i, got, c.resp)
		}
		if !bytes.Equal(got.Value, c.resp.Value) {
			t.Errorf("case %d: value mismatch", i)
		}
		if len(got.Found) != len(c.resp.Found) {
			t.Fatalf("case %d: found length mismatch", i)
		}
		for j := range got.Found {
			if got.Found[j] != c.resp.Found[j] || !bytes.Equal(got.Values[j], c.resp.Values[j]) {
				t.Errorf("case %d key %d: multiget mismatch", i, j)
			}
		}
		if len(got.Pairs) != len(c.resp.Pairs) {
			t.Fatalf("case %d: pair count mismatch", i)
		}
		for j := range got.Pairs {
			if !bytes.Equal(got.Pairs[j].Key, c.resp.Pairs[j].Key) ||
				!bytes.Equal(got.Pairs[j].Value, c.resp.Pairs[j].Value) {
				t.Errorf("case %d pair %d: scan mismatch", i, j)
			}
		}
	}
}

func TestResponseTruncationRejected(t *testing.T) {
	full := EncodeResponse(nil, OpScan, &Response{Status: StatusOK, Pairs: []KV{
		{Key: []byte("key"), Value: []byte("value")},
	}})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeResponse(OpScan, full[:n]); err == nil {
			t.Errorf("decode accepted %d/%d-byte prefix", n, len(full))
		}
	}
	if _, err := DecodeResponse(OpGet, []byte{9}); err == nil {
		t.Error("decode accepted unknown status")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte("z"), 100000)}
	bw := bufio.NewWriter(&buf)
	for _, b := range bodies {
		if err := writeFrame(bw, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	for i, want := range bodies {
		// The first two frames arrive whole in the first buffer fill; the
		// third is larger than the reader's buffer and never fits.
		if got, want := frameBuffered(br), i == 1; got != want {
			t.Errorf("frame %d: frameBuffered = %v, want %v", i, got, want)
		}
		got, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: body mismatch", i)
		}
	}
	if _, err := readFrame(br, nil); err != io.EOF {
		t.Errorf("clean end of stream: got %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Oversized length prefix.
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrameSize+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge[:])), nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized frame: got %v, want ErrProtocol", err)
	}
	// Truncated header.
	if _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0})), nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("truncated header: got %v, want ErrProtocol", err)
	}
	// Truncated body.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	short := append(hdr[:], []byte("abc")...)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(short)), nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("truncated body: got %v, want ErrProtocol", err)
	}
}

// FuzzDecodeResponse checks that decoding into a reused Response is the same
// as decoding into a fresh one: for any opcode and body, DecodeResponse and
// decodeResponseInto over a Response full of stale fields return the same
// error (or none) and, on success, the same fields — nothing stale survives,
// and a status reply's fields survive its frame being overwritten. The seeds are one valid frame per opcode and status, and the same frames
// under the two out-of-range opcodes.
func FuzzDecodeResponse(f *testing.F) {
	ok := map[byte]*Response{
		OpGet:        {Value: []byte("value")},
		OpMultiGet:   {Found: []bool{true, false}, Values: [][]byte{[]byte("v0"), nil}},
		OpScan:       {Pairs: []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b")}}},
		OpStats:      {Text: "** stats **\n"},
		OpSetOptions: {Text: "applied 1 option(s)"},
		OpWorkload:   {Text: `{"at_ns":5,"families":{"default":{"reads":3,"writes":2,"scans":1}}}`},
	}
	for op := opInvalid; op <= opMax; op++ {
		resp := Response{}
		if r := ok[op]; r != nil {
			resp = *r
		}
		f.Add(op, EncodeResponse(nil, op, &resp))
		f.Add(op, EncodeResponse(nil, op, &Response{Status: StatusNotFound}))
		f.Add(op, EncodeResponse(nil, op, &Response{Status: StatusErr, Err: "boom"}))
	}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		want, wantErr := DecodeResponse(op, bytes.Clone(body))
		got := Response{
			Status: 9,
			Err:    "stale error",
			Value:  []byte("stale value"),
			Found:  []bool{true},
			Values: [][]byte{[]byte("stale")},
			Pairs:  []KV{{Key: []byte("stale"), Value: []byte("pair")}},
			Text:   "stale text",
		}
		err := decodeResponseInto(op, body, &got)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("op %d: decodeResponseInto error %v, DecodeResponse error %v", op, err, wantErr)
		}
		if statusReply(op) {
			// The client reads these replies into a reused buffer: what
			// they decode to must not change when the frame does.
			for i := range body {
				body[i] = 0xDB
			}
		}
		if err == nil && !reflect.DeepEqual(&got, want) {
			t.Fatalf("op %d: decoded into a reused Response %+v, into a fresh one %+v", op, got, *want)
		}
	})
}
