package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/lsm"
)

// streamConn is a connection whose peer has already sent everything it will
// send: reads drain a prepared byte stream and then hit EOF, writes are
// counted and dropped unless out collects them.
type streamConn struct {
	net.Conn // nil: serveConn uses nothing below
	in       bytes.Reader
	burst    int           // when > 0, one Read returns at most this many bytes
	out      *bytes.Buffer // when non-nil, receives every write
	writes   int
}

func (c *streamConn) Read(p []byte) (int, error) {
	if c.burst > 0 && len(p) > c.burst {
		p = p[:c.burst]
	}
	return c.in.Read(p)
}

func (c *streamConn) Write(p []byte) (int, error) {
	c.writes++
	if c.out != nil {
		c.out.Write(p)
	}
	return len(p), nil
}

func (c *streamConn) Close() error { return nil }

// serveStream runs the real per-connection loop over stream, to completion.
func serveStream(s *Server, c *streamConn, stream []byte) {
	c.in.Reset(stream)
	s.wg.Add(1)
	s.serveConn(c)
}

// frameGateRequest is a request the router answers without touching an
// engine (a Scan with limit 0), so what serveStream measures is the wire
// path alone: read, decode, dispatch, encode, flush.
var frameGateRequest = &Request{Op: OpScan, Key: []byte("key00000001")}

// newStreamServer is a Server over an n-shard router with no listener, for
// driving serveConn directly with serveStream.
func newStreamServer(tb testing.TB, shards int) *Server {
	router, err := OpenRouter(tb.TempDir(), shards, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { router.Close() })
	return &Server{router: router, metrics: &Metrics{}, conns: map[net.Conn]struct{}{}}
}

// TestAllocGateFrame gates the per-frame server path. Request, response and
// both buffers are per-connection scratch, so a connection allocates when it
// is set up and never per frame: the bound is on allocations per frame over a
// 512-frame connection, and any per-frame allocation puts it at 1 or more.
func TestAllocGateFrame(t *testing.T) {
	const frames = 512
	s := newStreamServer(t, 1)
	stream := bytes.Repeat(rawFrames(t, frameGateRequest), frames)
	var c streamConn
	avg := testing.AllocsPerRun(20, func() { serveStream(s, &c, stream) }) / frames
	if got := s.metrics.Requests(OpScan); got < frames {
		t.Fatalf("served %d requests, want at least %d", got, frames)
	}
	t.Logf("%.3f allocations per frame (connection set-up spread over %d frames)", avg, frames)
	const limit = 0.1
	if avg > limit {
		t.Fatalf("per-frame server path allocates %.2f/frame, gate is %.1f", avg, limit)
	}
}

// TestAllocGateWriteBurst gates the write path behind the wire: the real
// serveConn over bursts of eight 400-byte Puts, one burst per read. A burst
// commits as one engine write and the memtable carves its entries from an
// arena, so a Put frame measures ~0.2 allocations: its share of the burst's
// WAL append and of the arena's chunks. Allocating each memtable entry, node
// and tower again costs 3 more per Put (3.19 measured before the arena).
func TestAllocGateWriteBurst(t *testing.T) {
	const bursts, perBurst = 64, 8
	s := newStreamServer(t, 1)
	reqs := make([]*Request, perBurst)
	for i := range reqs {
		reqs[i] = &Request{Op: OpPut, Key: []byte(fmt.Sprintf("key%08d", i)), Value: bytes.Repeat([]byte{'v'}, 400)}
	}
	burst := rawFrames(t, reqs...)
	stream := bytes.Repeat(burst, bursts)
	c := streamConn{burst: len(burst)}
	commits0 := s.router.Statistics().Get(lsm.TickerWriteDoneBySelf)
	avg := testing.AllocsPerRun(20, func() { serveStream(s, &c, stream) }) / (bursts * perBurst)
	puts := s.metrics.Requests(OpPut)
	if commits := s.router.Statistics().Get(lsm.TickerWriteDoneBySelf) - commits0; commits*perBurst != puts {
		t.Fatalf("%d Puts took %d engine commits, want one per %d-Put burst", puts, commits, perBurst)
	}
	t.Logf("%.3f allocations per Put frame", avg)
	const limit = 1
	if avg > limit {
		t.Fatalf("write burst path allocates %.2f per Put frame, gate is %d", avg, limit)
	}
}

// TestConnScratchNotPinned checks that one oversized frame does not stay
// attached to the connection's scratch buffers.
func TestConnScratchNotPinned(t *testing.T) {
	if b := trimScratch(make([]byte, 10, connBufSize)); b == nil || len(b) != 0 {
		t.Errorf("default-capacity scratch dropped or not emptied: len %d, nil %v", len(b), b == nil)
	}
	if b := trimScratch(make([]byte, 10, connBufSize+1)); b != nil {
		t.Errorf("scratch of capacity %d kept", cap(b))
	}
}

// TestWriteGroupScratchNotPinned checks that a shard batch one large request
// grew past connBufSize is dropped after its commit, and a small one kept.
func TestWriteGroupScratchNotPinned(t *testing.T) {
	s := newStreamServer(t, 1)
	g := s.router.newWriteGroup()
	commit := func(entries ...BatchEntry) {
		g.add(entries)
		g.commit(func(_ int, err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	commit(BatchEntry{Key: []byte("big"), Value: make([]byte, connBufSize)})
	if g.batches[0] != nil {
		t.Errorf("batch of %d bytes kept after its commit", g.batches[0].ApproximateSize())
	}
	commit(BatchEntry{Key: []byte("small"), Value: []byte("v")})
	if b := g.batches[0]; b == nil || b.Count() != 0 {
		t.Errorf("small batch dropped or not cleared after its commit: %v", b)
	}
}

// TestAllocGateClientEncode gates the client-side encode/frame path.
func TestAllocGateClientEncode(t *testing.T) {
	req := &Request{Op: OpGet, Key: []byte("key00000001")}
	bw := bufio.NewWriter(io.Discard)
	avg := testing.AllocsPerRun(500, func() {
		fb := getFrame()
		body, err := EncodeRequest(fb.b[:0], req)
		if err != nil {
			t.Fatal(err)
		}
		fb.b = body
		err = writeFrame(bw, fb.b)
		putFrame(fb)
		if err != nil {
			t.Fatal(err)
		}
	})
	const limit = 0
	if avg > limit {
		t.Fatalf("client encode path allocates %.1f/op, gate is %d", avg, limit)
	}
}

// BenchmarkServerFrame measures the per-frame server path without the
// network or an engine: the real serveConn loop over a prepared stream of
// frames, one op per frame.
func BenchmarkServerFrame(b *testing.B) {
	const frames = 1024
	s := newStreamServer(b, 1)
	stream := bytes.Repeat(rawFrames(b, frameGateRequest), frames)
	var c streamConn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += frames {
		serveStream(s, &c, stream)
	}
}

// BenchmarkClientEncode measures the client-side request framing path (the
// per-call cost of Client.Call before the bytes hit the socket).
func BenchmarkClientEncode(b *testing.B) {
	req := &Request{Op: OpGet, CF: "", Key: []byte("key00000001")}
	bw := bufio.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb := getFrame()
		body, err := EncodeRequest(fb.b[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		fb.b = body
		err = writeFrame(bw, fb.b)
		putFrame(fb)
		if err != nil {
			b.Fatal(err)
		}
	}
}
