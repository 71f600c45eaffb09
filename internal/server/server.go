package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/lsm"
)

// connBufSize is the read buffer of a connection (either end) and the size at
// which buffered writes go to the socket without waiting for the burst to
// end. Per-connection scratch that one large frame grew past it is dropped.
const connBufSize = 64 << 10

// Metrics is the server's own observability surface: connection gauges,
// per-opcode request counters, byte, socket-write and engine-commit counters
// and a request-latency sum. All fields are atomics; WritePrometheus renders
// them for the /metrics mux next to the engine's gauges. Write requests per
// WriteCommits is how many writes an engine commit carries; the engine's own
// write-group size counts batches per group and stays near 1 however large
// the server's batches are.
type Metrics struct {
	ConnsActive  atomic.Int64
	ConnsTotal   atomic.Int64
	ProtoErrors  atomic.Int64
	OpErrors     atomic.Int64
	BytesIn      atomic.Int64
	BytesOut     atomic.Int64
	Flushes      atomic.Int64 // socket writes; requests / flushes = responses per burst
	WriteCommits atomic.Int64 // engine writes: one per shard a write group touches
	requests     [opMax]atomic.Int64
	requestMicro [opMax]atomic.Int64
}

// book records one finished request.
func (m *Metrics) book(op byte, d time.Duration, failed bool) {
	if m == nil {
		return
	}
	m.requests[op].Add(1)
	m.requestMicro[op].Add(int64(d / time.Microsecond))
	if failed {
		m.OpErrors.Add(1)
	}
}

// Requests returns the total request count for one opcode.
func (m *Metrics) Requests(op byte) int64 { return m.requests[op].Load() }

// WritePrometheus renders the server metrics in the text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	gauge("kvserver_connections_active", m.ConnsActive.Load())
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	counter("kvserver_connections_total", m.ConnsTotal.Load())
	counter("kvserver_protocol_errors_total", m.ProtoErrors.Load())
	counter("kvserver_op_errors_total", m.OpErrors.Load())
	counter("kvserver_bytes_in_total", m.BytesIn.Load())
	counter("kvserver_bytes_out_total", m.BytesOut.Load())
	counter("kvserver_flushes_total", m.Flushes.Load())
	counter("kvserver_write_commits_total", m.WriteCommits.Load())
	fmt.Fprintf(w, "# TYPE kvserver_requests_total counter\n")
	for op := byte(1); op < opMax; op++ {
		fmt.Fprintf(w, "kvserver_requests_total{op=%q} %d\n", OpName(op), m.requests[op].Load())
	}
	fmt.Fprintf(w, "# TYPE kvserver_request_micros_sum counter\n")
	for op := byte(1); op < opMax; op++ {
		fmt.Fprintf(w, "kvserver_request_micros_sum{op=%q} %d\n", OpName(op), m.requestMicro[op].Load())
	}
}

// Server accepts TCP connections and serves the kvserver protocol against a
// shard router, one goroutine per connection (see serveConn). A client may
// keep many requests in flight on one connection; they execute in order, one
// burst at a time, and a burst's consecutive write requests commit together
// as one engine write per shard they touch.
type Server struct {
	router  *Router
	ln      net.Listener
	metrics *Metrics

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts accepting connections on ln. It owns ln: Close stops the
// accept loop and every live connection.
func Serve(ln net.Listener, router *Router) *Server {
	s := &Server{
		router:  router,
		ln:      ln,
		metrics: &Metrics{},
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Metrics returns the server's observability counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Router returns the shard router the server fronts.
func (s *Server) Router() *Router { return s.router }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.metrics.ConnsTotal.Add(1)
		s.metrics.ConnsActive.Add(1)
		s.wg.Add(1)
		go s.serveConn(c, new(connScratch))
	}
}

// serveConn runs one connection to completion on this goroutine: decode and
// execute every complete request already in the read buffer, in order, append
// each response to the write buffer, and hand the buffer to the socket exactly
// when the next read would block (or the buffer is full). A burst of pipelined
// requests that arrived in one segment therefore leaves in one segment, and
// responses are in request order by construction.
//
// The burst is also the write group: consecutive Put, Delete and Batch
// requests stage into one writeGroup and commit as one engine write per shard
// they touch. The group commits before any other request executes, so a read
// sees every write ahead of it; when no complete frame is buffered (the end of
// the burst); and when its staged bytes reach connBufSize. Its members'
// responses are appended at the commit, in request order, so none leaves
// before its write has committed.
//
// The request, the response and every buffer in sc are per-connection
// scratch. Request fields alias sc.frame until the next readFrame, which is
// safe because staging copies keys and values and a read is done with its
// key before the next frame is read. A Get's value and a Scan's pairs are
// appended to sc.val and sc.kv, and the response aliases them until
// appendResponse has copied it into sc.out; the read buffers are emptied
// right after (see connScratch).
func (s *Server) serveConn(c net.Conn, sc *connScratch) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.metrics.ConnsActive.Add(-1)
	}()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	br := bufio.NewReaderSize(c, connBufSize)
	var (
		req    Request
		resp   Response
		group  = s.router.newWriteGroup()
		staged []stagedWrite // the group's members, in request order
		one    [1]BatchEntry // a Put or Delete, staged as a batch of one
	)
	written := func(i int, err error) {
		resp = Response{Status: StatusOK}
		if err != nil {
			resp = Response{Status: StatusErr, Err: err.Error()}
		}
		s.metrics.book(staged[i].op, time.Since(staged[i].start), err != nil)
		sc.out = appendResponse(sc.out, staged[i].op, &resp)
	}
	commit := func() {
		if len(staged) > 0 {
			s.metrics.WriteCommits.Add(int64(group.commit(written)))
			staged = staged[:0]
		}
	}
	flush := func() bool {
		if len(sc.out) == 0 {
			return true
		}
		s.metrics.Flushes.Add(1)
		s.metrics.BytesOut.Add(int64(len(sc.out)))
		_, err := c.Write(sc.out)
		sc.out = trimScratch(sc.out)
		return err == nil
	}
	// Responses to the requests ahead of an EOF or a protocol violation
	// still go out before the connection closes, staged writes committed
	// first.
	defer flush()
	defer commit()
	for {
		burst := frameBuffered(br)
		if !burst {
			commit()
		}
		if !burst || len(sc.out) >= connBufSize {
			if !flush() {
				return
			}
		}
		var err error
		if sc.frame, err = readFrame(br, trimScratch(sc.frame)); err != nil {
			if errors.Is(err, ErrProtocol) {
				s.metrics.ProtoErrors.Add(1)
			}
			return // EOF, protocol violation, or closed connection
		}
		s.metrics.BytesIn.Add(int64(len(sc.frame) + 4))
		req.reset()
		if err := DecodeRequestInto(sc.frame, &req); err != nil {
			// Malformed body: the stream cannot be trusted past this point.
			s.metrics.ProtoErrors.Add(1)
			return
		}
		switch req.Op {
		case OpPut, OpDelete, OpBatch:
			entries := req.Batch
			if req.Op != OpBatch {
				one[0] = BatchEntry{IsDelete: req.Op == OpDelete, CF: req.CF, Key: req.Key, Value: req.Value}
				entries = one[:]
			}
			staged = append(staged, stagedWrite{op: req.Op, start: time.Now()})
			group.add(entries)
			if group.size >= connBufSize {
				commit()
			}
			continue
		}
		commit()
		start := time.Now()
		s.exec(&req, &resp, sc)
		s.metrics.book(req.Op, time.Since(start), resp.Status == StatusErr)
		sc.out = appendResponse(sc.out, req.Op, &resp)
		sc.trimReplies()
	}
}

// connScratch is the storage one connection reuses from request to request.
// Every buffer goes through trimScratch once it is consumed, so one large
// request or reply does not stay pinned for the life of the connection.
type connScratch struct {
	frame []byte // the current request body: the decoded request aliases it
	out   []byte // length-prefixed responses not yet written
	val   []byte // a Get's value: the response aliases it
	kv    []byte // a Scan's keys and values, back to back
	pairs []KV   // a Scan's pairs: the response holds them, aliasing kv
}

// trimReplies empties the read-reply buffers once appendResponse has copied
// the response out of them. The used pairs are cleared first: left in the
// array, they would keep a dropped kv buffer reachable.
func (sc *connScratch) trimReplies() {
	sc.val = trimScratch(sc.val)
	sc.kv = trimScratch(sc.kv)
	clear(sc.pairs)
	sc.pairs = trimScratch(sc.pairs)
}

// stagedWrite is a write request waiting in its connection's write group.
type stagedWrite struct {
	op    byte
	start time.Time
}

// appendResponse appends resp to out as one length-prefixed frame.
func appendResponse(out []byte, op byte, resp *Response) []byte {
	hdr := len(out)
	out = EncodeResponse(append(out, 0, 0, 0, 0), op, resp)
	binary.BigEndian.PutUint32(out[hdr:], uint32(len(out)-hdr-4))
	return out
}

// trimScratch empties a per-connection scratch slice for reuse, dropping it
// instead when one large frame or reply grew it past connBufSize bytes (a
// 32 MiB request must not stay pinned for the life of the connection).
func trimScratch[E any](b []E) []E {
	var e E
	if uintptr(cap(b))*unsafe.Sizeof(e) > connBufSize {
		return nil
	}
	return b[:0]
}

// exec runs one decoded request other than a write (serveConn stages those)
// against the router, filling resp. A Get's value and a Scan's pairs are
// appended to the connection's empty read scratch in sc, which resp aliases.
func (s *Server) exec(req *Request, resp *Response, sc *connScratch) {
	*resp = Response{Status: StatusOK}
	var err error
	switch req.Op {
	case OpGet:
		if sc.val, err = s.router.AppendGet(sc.val, req.CF, req.Key); errors.Is(err, lsm.ErrNotFound) {
			resp.Status, err = StatusNotFound, nil
		}
		resp.Value = sc.val
	case OpMultiGet:
		vals, errs := s.router.MultiGet(req.CF, req.Keys)
		resp.Found, resp.Values = make([]bool, len(req.Keys)), vals
		for i, e := range errs {
			switch {
			case e == nil:
				resp.Found[i] = true
			case !errors.Is(e, lsm.ErrNotFound):
				err = e
			}
		}
	case OpScan:
		sc.kv, sc.pairs, err = s.router.AppendScan(sc.kv, sc.pairs, req.CF, req.Key, req.Limit)
		resp.Pairs = sc.pairs
	case OpStats:
		resp.Text = s.router.StatsText()
	case OpWorkload:
		var js []byte
		if js, err = json.Marshal(s.router.WorkloadCounters()); err == nil {
			resp.Text = string(js)
		}
	case OpSetOptions:
		if err = s.router.SetOptions(req.CF, req.Options); err != nil {
			break
		}
		parts := make([]string, len(req.Options))
		for i, kv := range req.Options {
			parts[i] = kv.Name + "=" + kv.Value
		}
		resp.Text = fmt.Sprintf("applied %d option(s) to %d shard(s): %s",
			len(req.Options), s.router.NumShards(), strings.Join(parts, " "))
	default:
		err = fmt.Errorf("unknown opcode %d", req.Op)
	}
	if err != nil {
		*resp = Response{Status: StatusErr, Err: err.Error()}
	}
}

// Close stops accepting, closes every live connection, and waits for the
// connection goroutines to return. The router (and its shard databases)
// is NOT closed — the caller owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// String describes the server for logs.
func (s *Server) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kvserver on %s (%d shards)", s.ln.Addr(), s.router.NumShards())
	return b.String()
}
