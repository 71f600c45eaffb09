package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"unsafe"

	"repro/internal/lsm"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

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

// serveStream runs the real per-connection loop over stream, to completion,
// as a new connection, and returns the scratch that connection was left
// with.
func serveStream(s *Server, c *streamConn, stream []byte) *connScratch {
	c.in.Reset(stream)
	sc := new(connScratch)
	s.wg.Add(1)
	s.serveConn(c, sc)
	return sc
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

// newCachedStreamServer is newStreamServer over one shard holding keys
// key00000000… with 100-byte values, flushed to a table and read once so
// that every block is in the cache: what a Get or Scan frame then measures
// is the wire path plus the engine's cache-hit read path.
func newCachedStreamServer(tb testing.TB, keys int) *Server {
	s := newStreamServer(tb, 1)
	for i := 0; i < keys; i++ {
		if err := s.router.Put("", gateKey(i), gateValue(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.router.Flush(); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.router.Scan("", nil, keys); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if _, err := s.router.Get("", gateKey(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

func gateKey(i int) []byte   { return []byte(fmt.Sprintf("key%08d", i)) }
func gateValue(i int) []byte { return []byte(fmt.Sprintf("%-100d", i)) }

// TestAllocGateGetFrame gates a cache-hit Get frame through the real
// serveConn loop. The engine appends the value to the connection's value
// scratch and the response is encoded from there, so a Get frame allocates
// nothing once the connection is set up; 1 per frame means the engine, the
// router or the server copies the value into fresh storage again.
func TestAllocGateGetFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled lookup keys and iterators under -race")
	}
	const keys, frames = 256, 512
	s := newCachedStreamServer(t, keys)
	reqs := make([]*Request, frames)
	for i := range reqs {
		reqs[i] = &Request{Op: OpGet, Key: gateKey(i % keys)}
	}
	stream := rawFrames(t, reqs...)
	resps := serveBurst(t, s, reqs[:keys]...)
	for i, resp := range resps {
		if resp.Status != StatusOK || !bytes.Equal(resp.Value, gateValue(i)) {
			t.Fatalf("get %s: status %d value %q", reqs[i].Key, resp.Status, resp.Value)
		}
	}
	var c streamConn
	avg := testing.AllocsPerRun(20, func() { serveStream(s, &c, stream) }) / frames
	t.Logf("%.3f allocations per Get frame (connection set-up spread over %d frames)", avg, frames)
	const limit = 0.1
	if avg > limit {
		t.Fatalf("cache-hit Get frame allocates %.2f/frame, gate is %.1f", avg, limit)
	}
}

// TestAllocGateScanPairs gates a Scan frame. The shard's iterator tree is
// recycled across scans, so a Scan(1) frame allocates about 1, the iterator
// handle, and at most 2; building the tree per scan costs about 15 more.
// Each pair is appended once to the connection's scan scratch, so a
// Scan(20) frame allocates no more than 1 beyond Scan(1); copying every key
// and value costs 2 per pair, 38 more.
func TestAllocGateScanPairs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled iterators under -race")
	}
	const keys, frames = 1024, 256
	s := newCachedStreamServer(t, keys)
	perFrame := func(limit int) float64 {
		reqs := make([]*Request, frames)
		for i := range reqs {
			reqs[i] = &Request{Op: OpScan, Key: gateKey(i * (keys - limit) / frames), Limit: limit}
		}
		resp := serveBurst(t, s, reqs[0])[0]
		if len(resp.Pairs) != limit {
			t.Fatalf("scan(%d) returned %d pairs", limit, len(resp.Pairs))
		}
		stream := rawFrames(t, reqs...)
		var c streamConn
		return testing.AllocsPerRun(20, func() { serveStream(s, &c, stream) }) / frames
	}
	one, twenty := perFrame(1), perFrame(20)
	t.Logf("%.2f allocations per Scan(1) frame, %.2f per Scan(20) frame", one, twenty)
	const frameLimit, pairsLimit = 2, 1
	if one > frameLimit {
		t.Errorf("Scan(1) frame allocates %.2f, gate is %d", one, frameLimit)
	}
	if twenty-one > pairsLimit {
		t.Errorf("Scan(20) frame allocates %.2f more than Scan(1), gate is %d", twenty-one, pairsLimit)
	}
}

// TestAllocGateClientRoundTrip gates a whole Get round trip over loopback
// against an in-process server: client encode, the server's frame, router
// and engine path, and the client's decode. Measured 1.00: the reply frame
// the client reads into, which the caller keeps because the value aliases
// it. The call's slot is pooled and the response decodes into a value, so
// either falling out adds 1 or 2.
func TestAllocGateClientRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled slots, frames and iterators under -race")
	}
	const keys = 64
	srv, addr := startServer(t, 1)
	for i := 0; i < keys; i++ {
		if err := srv.Router().Put("", gateKey(i), gateValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Router().Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ks, vs [keys][]byte
	for i := range ks {
		ks[i], vs[i] = gateKey(i), gateValue(i)
	}
	i := 0
	get := func() {
		v, err := c.Get("", ks[i%keys])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v, vs[i%keys]) {
			t.Fatalf("get %s = %q", ks[i%keys], v)
		}
		i++
	}
	for i < keys {
		get() // warm the block cache and the pools
	}
	avg := testing.AllocsPerRun(500, get)
	t.Logf("%.2f allocations per Get round trip", avg)
	const limit = 1.5
	if avg > limit {
		t.Fatalf("Get round trip allocates %.2f, gate is %.1f", avg, limit)
	}
}

// TestAllocGateClientPut gates a whole Put round trip over loopback against
// an in-process server. A Put's reply is a status, which the client reads
// into a buffer its read loop reuses, so the round trip allocates nothing of
// its own: what is left is the memtable's share of an arena chunk. A reply
// frame allocated per call adds 1.
func TestAllocGateClientPut(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled slots and frames under -race")
	}
	const keys = 64
	_, addr := startServer(t, 1)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ks, vs [keys][]byte
	for i := range ks {
		ks[i], vs[i] = gateKey(i), gateValue(i)
	}
	i := 0
	put := func() {
		if err := c.Put("", ks[i%keys], vs[i%keys]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < keys {
		put() // warm the pools
	}
	avg := testing.AllocsPerRun(500, put)
	t.Logf("%.2f allocations per Put round trip", avg)
	const limit = 0.1
	if avg > limit {
		t.Fatalf("Put round trip allocates %.2f, gate is %.1f", avg, limit)
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

// TestConnScratchNotPinned checks that one oversized frame or reply does not
// stay attached to the connection's scratch buffers: after a Get of a value
// larger than connBufSize, and after a Scan whose pairs add up to more, the
// next request is served and no buffer is left above connBufSize bytes, nor
// a served pair that would keep a dropped buffer reachable.
func TestConnScratchNotPinned(t *testing.T) {
	if b := trimScratch(make([]byte, 10, connBufSize)); b == nil || len(b) != 0 {
		t.Errorf("default-capacity scratch dropped or not emptied: len %d, nil %v", len(b), b == nil)
	}
	if b := trimScratch(make([]byte, 10, connBufSize+1)); b != nil {
		t.Errorf("scratch of capacity %d kept", cap(b))
	}
	if b := trimScratch(make([]KV, 10, connBufSize/int(unsafe.Sizeof(KV{}))+1)); b != nil {
		t.Errorf("pair scratch of %d pairs kept", cap(b))
	}

	s := newStreamServer(t, 1)
	big := bytes.Repeat([]byte{'b'}, connBufSize+1)
	if err := s.router.Put("", []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	const scanPairs = 80 // 80 × 1 KiB values: more than connBufSize of pairs
	for i := 0; i < scanPairs; i++ {
		if err := s.router.Put("", []byte(fmt.Sprintf("scan%03d", i)), bytes.Repeat([]byte{'s'}, 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	small := &Request{Op: OpGet, Key: []byte("scan000")}
	for _, tc := range []struct {
		name string
		req  *Request
		size func(*Response) int
	}{
		{"get", &Request{Op: OpGet, Key: []byte("big")}, func(r *Response) int { return len(r.Value) }},
		{"scan", &Request{Op: OpScan, Key: []byte("scan"), Limit: scanPairs}, func(r *Response) int {
			n := 0
			for _, kv := range r.Pairs {
				n += len(kv.Key) + len(kv.Value)
			}
			return n
		}},
	} {
		var out bytes.Buffer
		sc := serveStream(s, &streamConn{out: &out}, rawFrames(t, tc.req, small))
		br := bufio.NewReader(&out)
		body, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(tc.req.Op, body)
		if err != nil {
			t.Fatal(err)
		}
		if n := tc.size(resp); n <= connBufSize {
			t.Fatalf("%s: reply carries %d bytes, want more than %d", tc.name, n, connBufSize)
		}
		for name, c := range map[string]int{
			"frame": cap(sc.frame), "out": cap(sc.out), "val": cap(sc.val), "kv": cap(sc.kv),
			"pairs": cap(sc.pairs) * int(unsafe.Sizeof(KV{})),
		} {
			if c > connBufSize {
				t.Errorf("%s: %s scratch holds %d bytes after the next request", tc.name, name, c)
			}
		}
		for _, kv := range sc.pairs[:cap(sc.pairs)] {
			if kv.Key != nil || kv.Value != nil {
				t.Fatalf("%s: a served pair is still in the pair scratch, keeping its buffer reachable", tc.name)
			}
		}
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
