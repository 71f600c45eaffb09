package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countConn counts the Write calls on a connection: over TCP each is one
// syscall and, with TCP_NODELAY, one segment.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countListener hands the server counting connections and sums their writes.
type countListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countConn
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countListener) writes() (n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		n += c.writes.Load()
	}
	return n
}

// startServer opens an n-shard router over a temp dir and serves it on an
// ephemeral port. Cleanup closes the server and the shards.
func startServer(t *testing.T, shards int) (*Server, string) {
	srv, _ := startCountingServer(t, shards)
	return srv, srv.Addr().String()
}

// startCountingServer is startServer with the server's socket writes counted.
func startCountingServer(t *testing.T, shards int) (*Server, *countListener) {
	t.Helper()
	router, err := OpenRouter(t.TempDir(), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		t.Fatal(err)
	}
	ln := &countListener{Listener: tcp}
	srv := Serve(ln, router)
	t.Cleanup(func() {
		srv.Close()
		if err := router.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	})
	return srv, ln
}

// dialCounting connects a Client whose socket writes are counted.
func dialCounting(t *testing.T, addr string) (*Client, *countConn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: conn}
	c := newClient(cc)
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// TestBurstCoalescing is the batch-at-a-time contract under concurrency:
// eight callers sharing one Client keep eight requests in flight, and both
// ends must move them in bursts — at most one socket write per two frames in
// each direction (no batching at all would be one per frame).
func TestBurstCoalescing(t *testing.T) {
	srv, ln := startCountingServer(t, 2)
	c, cc := dialCounting(t, srv.Addr().String())
	if err := c.Put("", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 8, 2000
	clientBefore, serverBefore := cc.writes.Load(), ln.writes()
	flushesBefore := srv.Metrics().Flushes.Load()
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perCaller; j++ {
				if v, err := c.Get("", []byte("k")); err != nil || string(v) != "v" {
					errs[i] = fmt.Errorf("caller %d get %d: %q, %v", i, j, v, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	const frames = callers * perCaller
	clientWrites, serverWrites := cc.writes.Load()-clientBefore, ln.writes()-serverBefore
	t.Logf("%d round trips: %d client writes, %d server writes", frames, clientWrites, serverWrites)
	if clientWrites > frames/2 {
		t.Errorf("client wrote %d times for %d requests, want at most %d", clientWrites, frames, frames/2)
	}
	if serverWrites > frames/2 {
		t.Errorf("server wrote %d times for %d responses, want at most %d", serverWrites, frames, frames/2)
	}
	if got := srv.Metrics().Flushes.Load() - flushesBefore; got != serverWrites {
		t.Errorf("kvserver_flushes_total advanced by %d, the socket saw %d writes", got, serverWrites)
	}
}

// TestSynchronousCallerOneWritePerFrame is the other half of the contract: a
// lone caller has nothing to batch with, so every request and every response
// is exactly one socket write — the burst rule never holds a frame back
// waiting for company.
func TestSynchronousCallerOneWritePerFrame(t *testing.T) {
	srv, ln := startCountingServer(t, 2)
	c, cc := dialCounting(t, srv.Addr().String())
	const calls = 500
	for i := 0; i < calls; i++ {
		if err := c.Put("", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := cc.writes.Load(); got != calls {
		t.Errorf("client wrote %d times for %d synchronous requests", got, calls)
	}
	if got := ln.writes(); got != calls {
		t.Errorf("server wrote %d times for %d synchronous responses", got, calls)
	}
}

// rawFrames encodes requests as back-to-back frames, the way a pipelined
// client's write loop lays a burst on the wire.
func rawFrames(t testing.TB, reqs ...*Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, req := range reqs {
		body, err := EncodeRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(bw, body); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	return buf.Bytes()
}

// TestBurstOrderAndContents writes Put, Scan, Get as one segment: the three
// responses must come back in that order, each seeing the one before it.
func TestBurstOrderAndContents(t *testing.T) {
	_, addr := startServer(t, 2)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	burst := []*Request{
		{Op: OpPut, Key: []byte("burst-key"), Value: []byte("burst-value")},
		{Op: OpScan, Key: []byte("burst"), Limit: 10},
		{Op: OpGet, Key: []byte("burst-key")},
	}
	if _, err := raw.Write(rawFrames(t, burst...)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	resps := make([]*Response, len(burst))
	for i, req := range burst {
		body, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resps[i], err = DecodeResponse(req.Op, body); err != nil {
			t.Fatalf("response %d does not decode as a %s response: %v", i, OpName(req.Op), err)
		}
		if resps[i].Status != StatusOK {
			t.Fatalf("%s: status %d (%s)", OpName(req.Op), resps[i].Status, resps[i].Err)
		}
	}
	if p := resps[1].Pairs; len(p) != 1 || string(p[0].Key) != "burst-key" || string(p[0].Value) != "burst-value" {
		t.Errorf("scan behind the put in the same burst returned %v", p)
	}
	if v := resps[2].Value; string(v) != "burst-value" {
		t.Errorf("get behind the put in the same burst returned %q", v)
	}
}

// TestServerCloseMidBurst closes the server while a connection is in the
// middle of a burst whose responses nobody reads (so its goroutine is
// executing or blocked in a socket write): Close must return, which it does
// only after every connection goroutine has.
func TestServerCloseMidBurst(t *testing.T) {
	srv, addr := startServer(t, 2)
	before := runtime.NumGoroutine() // accept loop and engine workers included
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{Op: OpPut, Key: []byte(fmt.Sprintf("k%03d", i)), Value: bytes.Repeat([]byte("v"), 1024)}
	}
	burst := rawFrames(t, reqs...)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			if _, err := raw.Write(burst); err != nil {
				return
			}
		}
	}()
	for srv.Metrics().Requests(OpPut) < 256 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Server.Close did not return with a burst in progress")
	}
	if n := srv.Metrics().ConnsActive.Load(); n != 0 {
		t.Errorf("%d connections still active after Close", n)
	}
	<-writerDone
	for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before the connection", n, before)
	}
}

func TestServerBasicOps(t *testing.T) {
	_, addr := startServer(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Default family and a named family hold independent values for one key.
	if err := c.Put("", []byte("k"), []byte("default-v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("hot", []byte("k"), []byte("hot-v")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get("", []byte("k")); err != nil || string(v) != "default-v" {
		t.Fatalf("get default: %q, %v", v, err)
	}
	if v, err := c.Get("hot", []byte("k")); err != nil || string(v) != "hot-v" {
		t.Fatalf("get hot: %q, %v", v, err)
	}
	if _, err := c.Get("", []byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing: %v, want ErrNotFound", err)
	}
	if err := c.Delete("", []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("", []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted: %v, want ErrNotFound", err)
	}
	// The hot family is untouched by the default-family delete.
	if v, err := c.Get("hot", []byte("k")); err != nil || string(v) != "hot-v" {
		t.Fatalf("get hot after delete: %q, %v", v, err)
	}

	// Batch across families, then MultiGet with hits and misses mixed.
	err = c.Batch([]BatchEntry{
		{CF: "", Key: []byte("b1"), Value: []byte("v1")},
		{CF: "", Key: []byte("b2"), Value: []byte("v2")},
		{CF: "hot", Key: []byte("b3"), Value: []byte("v3")},
		{IsDelete: true, CF: "hot", Key: []byte("k")},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals, errs := c.MultiGet("", [][]byte{[]byte("b1"), []byte("nope"), []byte("b2")})
	if errs[0] != nil || string(vals[0]) != "v1" {
		t.Fatalf("multiget[0]: %q, %v", vals[0], errs[0])
	}
	if !errors.Is(errs[1], ErrNotFound) {
		t.Fatalf("multiget[1]: %v, want ErrNotFound", errs[1])
	}
	if errs[2] != nil || string(vals[2]) != "v2" {
		t.Fatalf("multiget[2]: %q, %v", vals[2], errs[2])
	}

	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"KVServer aggregated stats (2 shards)", "Block cache (per shard)", "** Shard 1 **"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats dump missing %q", want)
		}
	}
}

// TestServerScanMerge loads keys that hash across all four shards and checks
// the merged scan is globally sorted and complete.
func TestServerScanMerge(t *testing.T) {
	_, addr := startServer(t, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	want := make([]string, 0, n)
	var entries []BatchEntry
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		want = append(want, k)
		entries = append(entries, BatchEntry{Key: []byte(k), Value: []byte(fmt.Sprintf("val-%04d", i))})
	}
	if err := c.Batch(entries); err != nil {
		t.Fatal(err)
	}

	pairs, err := c.Scan("", nil, n+50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n {
		t.Fatalf("scan returned %d pairs, want %d", len(pairs), n)
	}
	if !sort.SliceIsSorted(pairs, func(i, j int) bool {
		return bytes.Compare(pairs[i].Key, pairs[j].Key) < 0
	}) {
		t.Error("merged scan is not sorted")
	}
	for i, kv := range pairs {
		if string(kv.Key) != want[i] {
			t.Fatalf("pair %d: key %q, want %q", i, kv.Key, want[i])
		}
		if wantV := "val-" + want[i][4:]; string(kv.Value) != wantV {
			t.Fatalf("pair %d: value %q, want %q", i, kv.Value, wantV)
		}
	}

	// Bounded scan from the middle.
	pairs, err = c.Scan("", []byte("key-0100"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 || string(pairs[0].Key) != "key-0100" || string(pairs[4].Key) != "key-0104" {
		t.Fatalf("bounded scan wrong: %d pairs, first %q", len(pairs), pairs[0].Key)
	}
}

// TestServerGarbageFrame checks that a malformed frame drops only the
// offending connection while the server keeps serving others.
func TestServerGarbageFrame(t *testing.T) {
	srv, addr := startServer(t, 2)

	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Put("", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Raw connection sending, as one segment, a valid Get and then an
	// all-zero body: opcode 0 is invalid.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var garbage [8]byte
	binary.BigEndian.PutUint32(garbage[:4], 4)
	burst := append(rawFrames(t, &Request{Op: OpGet, Key: []byte("k")}), garbage[:]...)
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	// The response buffered ahead of the garbage frame is still delivered...
	br := bufio.NewReader(raw)
	body, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("response ahead of the garbage frame was lost: %v", err)
	}
	if resp, err := DecodeResponse(OpGet, body); err != nil || string(resp.Value) != "v" {
		t.Fatalf("response ahead of the garbage frame: %+v, %v", resp, err)
	}
	// ...and then the server closes the connection without another byte.
	if n, err := br.Read(make([]byte, 1)); err == nil {
		t.Fatalf("read after garbage frame returned %d bytes, want close", n)
	}

	if got := srv.Metrics().ProtoErrors.Load(); got == 0 {
		t.Error("protocol error counter not incremented")
	}
	// The healthy connection is unaffected.
	if v, err := good.Get("", []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("healthy connection broken after garbage on another: %q, %v", v, err)
	}
}

// TestServerConcurrentOracle hammers a 4-shard server from many pipelined
// connections, each worker owning a disjoint key range it mirrors in a local
// oracle map. Run under -race this exercises the full wire path: shared
// pipelined clients, per-connection bursts, cross-shard MultiGet and scans,
// shared Statistics across shards.
func TestServerConcurrentOracle(t *testing.T) {
	_, addr := startServer(t, 4)

	const (
		conns      = 16
		workers    = 32 // two workers share each connection: pipeline depth 2
		opsPer     = 300
		keysPerW   = 40
		scanEvery  = 64
		multiEvery = 16
	)
	clients := make([]*Client, conns)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%conns]
			cf := ""
			if w%3 == 0 {
				cf = "hot"
			}
			prefix := fmt.Sprintf("w%03d-", w)
			oracle := make(map[string]string)
			key := func(i int) string { return fmt.Sprintf("%s%06d", prefix, i%keysPerW) }
			for i := 0; i < opsPer; i++ {
				k := key(i)
				switch {
				case i%multiEvery == multiEvery-1:
					ks := [][]byte{[]byte(key(i)), []byte(key(i + 7)), []byte(key(i + 13))}
					vals, errs := c.MultiGet(cf, ks)
					for j, kb := range ks {
						want, ok := oracle[string(kb)]
						switch {
						case ok && (errs[j] != nil || string(vals[j]) != want):
							errCh <- fmt.Errorf("w%d multiget %q: got %q/%v want %q", w, kb, vals[j], errs[j], want)
							return
						case !ok && !errors.Is(errs[j], ErrNotFound):
							errCh <- fmt.Errorf("w%d multiget %q: got %q/%v want not-found", w, kb, vals[j], errs[j])
							return
						}
					}
				case i%scanEvery == scanEvery-1:
					pairs, err := c.Scan(cf, []byte(prefix), keysPerW*2)
					if err != nil {
						errCh <- fmt.Errorf("w%d scan: %v", w, err)
						return
					}
					last := ""
					for _, kv := range pairs {
						ks := string(kv.Key)
						if ks <= last {
							errCh <- fmt.Errorf("w%d scan out of order: %q after %q", w, ks, last)
							return
						}
						last = ks
						if !strings.HasPrefix(ks, prefix) {
							continue // another worker's key; its value is not ours to judge
						}
						if want, ok := oracle[ks]; !ok || want != string(kv.Value) {
							errCh <- fmt.Errorf("w%d scan %q: got %q want %q (known=%v)", w, ks, kv.Value, want, ok)
							return
						}
					}
				case i%5 == 4 && len(oracle) > 0:
					if err := c.Delete(cf, []byte(k)); err != nil {
						errCh <- fmt.Errorf("w%d delete: %v", w, err)
						return
					}
					delete(oracle, k)
				case i%2 == 0:
					v := fmt.Sprintf("v-%d-%d", w, i)
					if err := c.Put(cf, []byte(k), []byte(v)); err != nil {
						errCh <- fmt.Errorf("w%d put: %v", w, err)
						return
					}
					oracle[k] = v
				default:
					v, err := c.Get(cf, []byte(k))
					want, ok := oracle[k]
					switch {
					case ok && (err != nil || string(v) != want):
						errCh <- fmt.Errorf("w%d get %q: got %q/%v want %q", w, k, v, err, want)
						return
					case !ok && !errors.Is(err, ErrNotFound):
						errCh <- fmt.Errorf("w%d get %q: got %q/%v want not-found", w, k, v, err)
						return
					}
				}
			}
			// Quiesced final check over the whole owned range via MultiGet.
			var ks [][]byte
			for i := 0; i < keysPerW; i++ {
				ks = append(ks, []byte(key(i)))
			}
			vals, errs := c.MultiGet(cf, ks)
			for j, kb := range ks {
				want, ok := oracle[string(kb)]
				switch {
				case ok && (errs[j] != nil || string(vals[j]) != want):
					errCh <- fmt.Errorf("w%d final %q: got %q/%v want %q", w, kb, vals[j], errs[j], want)
					return
				case !ok && !errors.Is(errs[j], ErrNotFound):
					errCh <- fmt.Errorf("w%d final %q: want not-found, got %v", w, kb, errs[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestRouterSharedStatistics verifies the multi-instance aggregation: all
// shards feed one Statistics sink, and the stats dump's block-cache table
// covers every shard.
func TestRouterSharedStatistics(t *testing.T) {
	router, err := OpenRouter(t.TempDir(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if err := router.Put("", k, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if router.Shard(i).Statistics() != router.Statistics() {
			t.Fatalf("shard %d has a private Statistics sink", i)
		}
	}
	// 300 hashed keys cannot all land on one shard (FNV spreads them), so
	// every shard must have advanced its sequence, and the shared tickers
	// must account for all of the writes.
	for i := 0; i < 3; i++ {
		if seq := router.Shard(i).GetMetrics().LastSequence; seq == 0 {
			t.Errorf("shard %d saw no writes", i)
		}
	}
	snap := router.Statistics().Snapshot()
	perKey := int64(len("key-00000") + len("value"))
	if got := snap["rocksdb.bytes.written"]; got < 300*perKey {
		t.Errorf("shared ticker saw %d bytes written, want >= %d", got, 300*perKey)
	}
	text := router.StatsText()
	for i := 0; i < 3; i++ {
		if !strings.Contains(text, fmt.Sprintf("** Shard %d **", i)) {
			t.Errorf("stats dump missing shard %d section", i)
		}
	}
}

// TestServerSetOptions drives a live retune through the wire: a mixed
// DB/CF-scoped change must land on every shard, an immutable knob must be
// rejected with an error naming it, and the CF variant must retarget a named
// family without touching the default one.
func TestServerSetOptions(t *testing.T) {
	srv, addr := startServer(t, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	text, err := c.SetOptions("", []OptionKV{
		{Name: "write_buffer_size", Value: "1048576"},
		{Name: "max_background_jobs", Value: "7"},
	})
	if err != nil {
		t.Fatalf("SetOptions: %v", err)
	}
	if !strings.Contains(text, "3 shard(s)") {
		t.Errorf("summary %q does not mention shard count", text)
	}
	for i := 0; i < srv.router.NumShards(); i++ {
		o := srv.router.Shard(i).Options()
		if o.WriteBufferSize != 1048576 {
			t.Errorf("shard %d write_buffer_size = %d, want 1048576", i, o.WriteBufferSize)
		}
		if o.MaxBackgroundJobs != 7 {
			t.Errorf("shard %d max_background_jobs = %d, want 7", i, o.MaxBackgroundJobs)
		}
	}

	// Immutable knobs are refused server-side; the error names the knob.
	if _, err := c.SetOptions("", []OptionKV{{Name: "num_levels", Value: "5"}}); err == nil {
		t.Fatal("SetOptions(num_levels) succeeded, want error")
	} else if !strings.Contains(err.Error(), "num_levels") {
		t.Errorf("error %q does not name the knob", err)
	}

	// CF-scoped change against a named family leaves the default alone.
	if err := c.Put("hot", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetOptions("hot", []OptionKV{{Name: "write_buffer_size", Value: "2097152"}}); err != nil {
		t.Fatalf("SetOptions(hot): %v", err)
	}
	db := srv.router.Shard(0)
	h, err := db.GetColumnFamily("hot")
	if err != nil {
		t.Fatal(err)
	}
	if o, err := db.OptionsCF(h); err != nil || o.WriteBufferSize != 2097152 {
		t.Errorf("hot write_buffer_size = %v (%v), want 2097152", o, err)
	}
	if db.Options().WriteBufferSize != 1048576 {
		t.Errorf("default family changed: %d", db.Options().WriteBufferSize)
	}
}
