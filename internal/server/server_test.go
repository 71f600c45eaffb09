package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lsm"
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

// serveBurst runs the real per-connection loop over reqs, sent as one burst,
// and returns their responses in order.
func serveBurst(t *testing.T, s *Server, reqs ...*Request) []*Response {
	t.Helper()
	var out bytes.Buffer
	serveStream(s, &streamConn{out: &out}, rawFrames(t, reqs...))
	br := bufio.NewReader(&out)
	resps := make([]*Response, len(reqs))
	for i, req := range reqs {
		body, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i, len(reqs), err)
		}
		if resps[i], err = DecodeResponse(req.Op, body); err != nil {
			t.Fatalf("response %d does not decode as a %s response: %v", i, OpName(req.Op), err)
		}
	}
	if n := br.Buffered() + out.Len(); n != 0 {
		t.Fatalf("%d bytes after the %d responses", n, len(reqs))
	}
	return resps
}

// keysOnShard returns n distinct keys that the router places on shard.
func keysOnShard(r *Router, shard, n int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		if k := []byte(fmt.Sprintf("s%d-%04d", shard, i)); r.shardFor(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

func putReq(key, value string) *Request {
	return &Request{Op: OpPut, Key: []byte(key), Value: []byte(value)}
}

// TestWriteGroupBurstSemantics sends bursts in which reads follow the writes
// they must see: each read sees every write ahead of it in its burst, applied
// in request order.
func TestWriteGroupBurstSemantics(t *testing.T) {
	s := newStreamServer(t, 2)
	t.Run("put-delete-put-get", func(t *testing.T) {
		resps := serveBurst(t, s,
			putReq("k", "v1"),
			&Request{Op: OpDelete, Key: []byte("k")},
			putReq("k", "v2"),
			&Request{Op: OpGet, Key: []byte("k")})
		for i, resp := range resps {
			if resp.Status != StatusOK {
				t.Fatalf("request %d: status %d (%s)", i, resp.Status, resp.Err)
			}
		}
		if v := resps[3].Value; string(v) != "v2" {
			t.Errorf("get behind put, delete, put of one key returned %q, want the last put", v)
		}
	})
	t.Run("puts-over-both-shards-then-scan", func(t *testing.T) {
		var reqs []*Request
		shards := map[int]bool{}
		for i := 0; i < 16; i++ {
			k := fmt.Sprintf("scan-%02d", i)
			reqs = append(reqs, putReq(k, "v-"+k))
			shards[s.router.shardFor([]byte(k))] = true
		}
		if len(shards) != 2 {
			t.Fatalf("the puts touch %d shards, want both", len(shards))
		}
		reqs = append(reqs, &Request{Op: OpScan, Key: []byte("scan-"), Limit: 100})
		resps := serveBurst(t, s, reqs...)
		pairs := resps[16].Pairs
		if resps[16].Status != StatusOK || len(pairs) != 16 {
			t.Fatalf("scan behind 16 puts: status %d, %d pairs", resps[16].Status, len(pairs))
		}
		for i, kv := range pairs {
			if k := fmt.Sprintf("scan-%02d", i); string(kv.Key) != k || string(kv.Value) != "v-"+k {
				t.Errorf("scan pair %d is %q=%q, want %q", i, kv.Key, kv.Value, k)
			}
		}
	})
	t.Run("batch-between-puts", func(t *testing.T) {
		resps := serveBurst(t, s,
			putReq("bx", "1"),
			&Request{Op: OpBatch, Batch: []BatchEntry{
				{Key: []byte("by"), Value: []byte("2")},
				{IsDelete: true, Key: []byte("bx")},
				{Key: []byte("bz"), Value: []byte("3")},
			}},
			putReq("bx", "4"),
			&Request{Op: OpMultiGet, Keys: [][]byte{[]byte("bx"), []byte("by"), []byte("bz")}})
		mg := resps[3]
		if mg.Status != StatusOK || len(mg.Found) != 3 {
			t.Fatalf("multiget: status %d, %d results", mg.Status, len(mg.Found))
		}
		for i, want := range []string{"4", "2", "3"} {
			if !mg.Found[i] || string(mg.Values[i]) != want {
				t.Errorf("multiget[%d] = %q (found %v), want %q", i, mg.Values[i], mg.Found[i], want)
			}
		}
	})
}

// TestWriteGroupFailureScope closes one shard under a burst of writes:
// exactly the requests that staged entries on it fail, in order, while the
// rest of the group commits; a request whose family cannot be created fails
// alone, with nothing of it written.
func TestWriteGroupFailureScope(t *testing.T) {
	s := newStreamServer(t, 2)
	r := s.router
	k0, k1 := keysOnShard(r, 0, 3), keysOnShard(r, 1, 2)
	if err := r.Shard(1).Close(); err != nil {
		t.Fatal(err)
	}
	v := []byte("v")
	reqs := []*Request{
		{Op: OpPut, Key: k0[0], Value: v},
		{Op: OpPut, Key: k1[0], Value: v},
		{Op: OpBatch, Batch: []BatchEntry{{Key: k0[1], Value: v}, {Key: k1[1], Value: v}}},
		{Op: OpDelete, Key: k1[0]},
		// The family is created on every shard on first use; shard 1 cannot.
		{Op: OpBatch, Batch: []BatchEntry{{Key: k0[2], Value: v}, {CF: "fresh", Key: k0[0], Value: v}}},
		{Op: OpPut, Key: k0[0], Value: []byte("last")},
	}
	want := []byte{StatusOK, StatusErr, StatusErr, StatusErr, StatusErr, StatusOK}
	for i, resp := range serveBurst(t, s, reqs...) {
		if resp.Status != want[i] {
			t.Errorf("request %d (%s): status %d (%s), want %d", i, OpName(reqs[i].Op), resp.Status, resp.Err, want[i])
		}
	}
	// The batch split over both shards kept its shard-0 part (atomic per
	// shard, not across shards); the unresolvable one staged nothing.
	for _, c := range []struct {
		key  []byte
		want string
	}{{k0[0], "last"}, {k0[1], "v"}, {k0[2], ""}} {
		got, err := r.Get("", c.key)
		if c.want == "" {
			if !errors.Is(err, lsm.ErrNotFound) {
				t.Errorf("%s: %q, %v; want not found", c.key, got, err)
			}
		} else if err != nil || string(got) != c.want {
			t.Errorf("%s: %q, %v; want %q", c.key, got, err, c.want)
		}
	}
}

// TestWriteGroupCommitsOncePerShard counts engine commits: a burst of writes
// costs one per shard it touches however many writes it holds, and the
// server's write-commit counter agrees with the engine.
func TestWriteGroupCommitsOncePerShard(t *testing.T) {
	s := newStreamServer(t, 2)
	k0, k1 := keysOnShard(s.router, 0, 8), keysOnShard(s.router, 1, 8)
	writes := func(keys ...[]byte) []*Request {
		reqs := []*Request{{Op: OpBatch, Batch: []BatchEntry{{Key: keys[0], Value: []byte("b")}}}}
		for _, k := range keys[1:] {
			reqs = append(reqs, &Request{Op: OpPut, Key: k, Value: []byte("v")}, &Request{Op: OpDelete, Key: k})
		}
		return reqs
	}
	for _, tc := range []struct {
		name   string
		reqs   []*Request
		shards int64
	}{
		{"one shard", writes(k0...), 1},
		{"both shards", writes(append(k0[:4:4], k1[:4]...)...), 2},
	} {
		self0, commits0 := s.router.Statistics().Get(lsm.TickerWriteDoneBySelf), s.metrics.WriteCommits.Load()
		for i, resp := range serveBurst(t, s, tc.reqs...) {
			if resp.Status != StatusOK {
				t.Fatalf("%s: request %d: status %d (%s)", tc.name, i, resp.Status, resp.Err)
			}
		}
		if got := s.router.Statistics().Get(lsm.TickerWriteDoneBySelf) - self0; got != tc.shards {
			t.Errorf("%s: a burst of %d writes took %d engine commits, want %d", tc.name, len(tc.reqs), got, tc.shards)
		}
		if got := s.metrics.WriteCommits.Load() - commits0; got != tc.shards {
			t.Errorf("%s: kvserver_write_commits_total advanced by %d, want %d", tc.name, got, tc.shards)
		}
	}
	var prom bytes.Buffer
	s.metrics.WritePrometheus(&prom)
	if want := fmt.Sprintf("kvserver_write_commits_total %d\n", s.metrics.WriteCommits.Load()); !strings.Contains(prom.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestWriteGroupSplitsPastConnBufSize sends one burst of writes staging more
// than connBufSize bytes: it commits as more than one group, and the responses
// still come back complete and in order, the last write to each key winning.
func TestWriteGroupSplitsPastConnBufSize(t *testing.T) {
	s := newStreamServer(t, 2)
	const keys, writes = 5, 40
	value := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), 4<<10) }
	var reqs []*Request
	for i := 0; i < writes; i++ {
		reqs = append(reqs, putReq(fmt.Sprintf("key-%d", i%keys), value(i)))
	}
	if staged := writes * len(value(0)); staged <= connBufSize {
		t.Fatalf("burst stages %d bytes, not past connBufSize", staged)
	}
	for k := 0; k < keys; k++ {
		reqs = append(reqs, &Request{Op: OpGet, Key: []byte(fmt.Sprintf("key-%d", k))})
	}
	self0 := s.router.Statistics().Get(lsm.TickerWriteDoneBySelf)
	resps := serveBurst(t, s, reqs...)
	for i, resp := range resps[:writes] {
		if resp.Status != StatusOK {
			t.Fatalf("put %d: status %d (%s)", i, resp.Status, resp.Err)
		}
	}
	for k, resp := range resps[writes:] {
		if want := value(writes - keys + k); resp.Status != StatusOK || string(resp.Value) != want {
			t.Errorf("key-%d: status %d, value %.8q..., want %.8q...", k, resp.Status, resp.Value, want)
		}
	}
	if commits := s.router.Statistics().Get(lsm.TickerWriteDoneBySelf) - self0; commits <= int64(s.router.NumShards()) {
		t.Errorf("%d bytes of writes took %d engine commits: one group", writes*len(value(0)), commits)
	}
}

// deadConn is a connection whose reads and writes block until it is closed,
// and then fail.
type deadConn struct {
	net.Conn // nil: the client uses nothing below
	broken   chan struct{}
	once     sync.Once
}

func (c *deadConn) Read([]byte) (int, error)  { <-c.broken; return 0, net.ErrClosed }
func (c *deadConn) Write([]byte) (int, error) { <-c.broken; return 0, net.ErrClosed }
func (c *deadConn) Close() error              { c.once.Do(func() { close(c.broken) }); return nil }

// TestClientFailsQueuedCallsOnDeadConn breaks a connection while the write
// loop is stuck in it with a full send queue and more callers waiting to
// join the queue: every call must fail promptly, including those the write
// loop never took off the queue.
func TestClientFailsQueuedCallsOnDeadConn(t *testing.T) {
	conn := &deadConn{broken: make(chan struct{})}
	c := newClient(conn)
	const calls = 3 * pipelineDepth
	// Larger than the write loop's buffer, so the first frame reaches the
	// connection and blocks there.
	value := make([]byte, connBufSize)
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() { errs <- c.Put("", []byte("k"), value) }()
	}
	for len(c.sendCh) < cap(c.sendCh) {
		time.Sleep(time.Millisecond)
	}
	conn.Close()
	deadline := time.After(5 * time.Second)
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a call on a dead connection succeeded")
			}
		case <-deadline:
			c.Close()
			t.Fatalf("%d of %d calls still blocked 5 s after the connection broke", calls-i, calls)
		}
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

// TestClientPooledSlotNeverStale checks that the pooled per-call slots never
// hand one call another's result. Sixteen goroutines read their own keys
// through two Clients in turn, checking every value against its key, so
// calls of both connections are in flight at once and draw on the one slot
// pool. One connection is then closed under them — failing its calls
// through readLoop and failQueued — and a new Client in the same process
// takes its place. A slot put back before its one send was received is soon
// waited on by a call of the other connection too, and whichever reply
// arrives first goes to the call that waited first: a Get that succeeds
// must return its own key's value, never another call's.
func TestClientPooledSlotNeverStale(t *testing.T) {
	const workers, keysPer, before, after = 16, 16, 2000, 200
	srv, addr := startServer(t, 2)
	key := func(w, k int) []byte { return []byte(fmt.Sprintf("w%02d-k%02d", w, k)) }
	for w := 0; w < workers; w++ {
		for k := 0; k < keysPer; k++ {
			if err := srv.Router().Put("", key(w, k), append([]byte("value-of-"), key(w, k)...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	dial := func() *Client {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	var (
		clients  [2]atomic.Pointer[Client]
		ok       atomic.Int64 // Gets that returned their own value
		wrong    atomic.Int64 // Gets that returned another key's value
		replaced = make(chan struct{})
		wg       sync.WaitGroup
	)
	clients[0].Store(dial())
	clients[1].Store(dial())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, left := 0, after; left > 0; i++ {
				select {
				case <-replaced:
					left--
				default:
				}
				c := clients[i%2].Load()
				k := key(w, i%keysPer)
				v, err := c.Get("", k)
				switch {
				case err != nil:
					// Only calls on the closed connection may fail, and it
					// is replaced before it is closed.
					if clients[i%2].Load() == c {
						t.Errorf("Get(%s) on a live client: %v", k, err)
						return
					}
				case string(v) != "value-of-"+string(k):
					if wrong.Add(1) <= 3 {
						t.Errorf("Get(%s) returned %q", k, v)
					}
				default:
					ok.Add(1)
				}
			}
		}(w)
	}
	for ok.Load() < before && wrong.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	old := clients[0].Load()
	clients[0].Store(dial())
	close(replaced)
	old.conn.Close() // transport failure under its callers
	old.Close()      // and the send queue closes under late ones
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Errorf("%d of %d successful Gets returned another call's value", n, n+ok.Load())
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

// TestRouterWorkloadCounters reads a 3-shard server's workload counters over
// the wire around known traffic: one Batch of 100 Puts, one MultiGet of 10
// keys, 20 Gets and 5 Scans make a window of 100 writes, 30 reads and 5
// scans. The engine tickers count differently for the same traffic (3 write
// commits, one per shard; 40 reads, MultiGet keys twice; 15 seeks, one per
// shard per Scan), so a window built from them misstates the mix.
func TestRouterWorkloadCounters(t *testing.T) {
	srv, addr := startServer(t, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.Workload()
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	batch := make([]BatchEntry, 100)
	for i := range batch {
		batch[i] = BatchEntry{Key: key(i), Value: []byte("v")}
	}
	if err := c.Batch(batch); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 10)
	for i := range keys {
		keys[i] = key(i)
	}
	if _, errs := c.MultiGet("", keys); slices.ContainsFunc(errs, func(e error) bool { return e != nil }) {
		t.Fatalf("MultiGet errors %v", errs)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Get("", key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Scan("", key(10*i), 10); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Workload()
	if err != nil {
		t.Fatal(err)
	}
	ws := lsm.NewWorkloadSnapshot(before, after)
	if ws.Writes != 100 || ws.Reads != 30 || ws.Scans != 5 {
		t.Fatalf("window counted %d writes, %d reads, %d scans; want 100, 30, 5", ws.Writes, ws.Reads, ws.Scans)
	}
	if share := ws.CFTraffic[lsm.DefaultColumnFamilyName]; share != 1 {
		t.Errorf("default family carried %v of the traffic, want all of it", share)
	}
	if ws.WindowEnd <= ws.WindowStart || ws.WriteAmp < 1 {
		t.Errorf("window %v..%v with write amp %v, want a forward clock and user bytes written", ws.WindowStart, ws.WindowEnd, ws.WriteAmp)
	}
	if local := srv.Router().WorkloadCounters(); local.Families[lsm.DefaultColumnFamilyName] != after.Families[lsm.DefaultColumnFamilyName] {
		t.Errorf("router reads %+v, the wire returned %+v", local.Families, after.Families)
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
