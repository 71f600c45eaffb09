package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"

	"repro/internal/lsm"
)

// pipelineDepth bounds the calls a Client holds queued for the write loop and
// in flight awaiting responses; callers beyond it block in Call.
const pipelineDepth = 128

// Client is a pipelined connection to a kvserver. It is safe for concurrent
// use: calls from many goroutines are multiplexed onto the single
// connection, requests stream out back-to-back without waiting for earlier
// responses, and the background reader matches responses to callers in FIFO
// order (the server's ordering contract). One goroutine issuing call-after-
// call behaves like a classic synchronous client; N goroutines sharing a
// Client give a pipeline N deep.
type Client struct {
	conn   net.Conn
	sendCh chan clientCall
	wg     sync.WaitGroup

	// sendMu orders sends on sendCh before its close: callers hold it shared
	// while they enqueue, Close holds it exclusively to close the queue. A
	// caller may block on a full queue while holding it; the write loop, which
	// never takes sendMu, drains the queue until it is closed — once Close
	// has closed the connection, by failing every call (failQueued).
	sendMu sync.RWMutex

	mu     sync.Mutex
	err    error // sticky transport error
	closed bool
}

// clientCall is one in-flight request: its encoded body (a pooled frame the
// write loop releases after the bytes hit the bufio writer) and the slot its
// response lands in.
type clientCall struct {
	op    byte
	frame *frameBuf
	slot  chan clientResult
}

// clientResult is what a call's slot carries: the decoded response by value,
// or the error that ended the call.
type clientResult struct {
	resp Response
	err  error
}

// slotPool recycles the one-slot channels calls wait on. A slot is safe to
// reuse because every call that enqueues receives exactly one send on it —
// from readLoop, or from failQueued once the write loop has stopped — and
// the call has received that send before it puts the slot back.
var slotPool = sync.Pool{
	New: func() any { return make(chan clientResult, 1) },
}

// Dial connects a pipelined client to a kvserver address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newClient(conn), nil
}

// newClient starts the write and read loops over an established connection.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:   conn,
		sendCh: make(chan clientCall, pipelineDepth),
	}
	pending := make(chan clientCall, pipelineDepth)
	c.wg.Add(2)
	go c.writeLoop(pending)
	go c.readLoop(pending)
	return c
}

// writeLoop streams requests onto the wire a burst at a time. It flushes only
// when the send queue is still empty after yielding once to callers that are
// already runnable: the first caller's channel send readies this loop ahead
// of the other callers the same response burst woke, and without the yield it
// would pay one syscall for that single frame. With nothing else runnable
// Gosched returns at once, so a lone synchronous caller gets one flush per
// call and no added wait. After a transport error it stops writing and fails
// every queued and later call until Close closes the send queue.
func (c *Client) writeLoop(pending chan<- clientCall) {
	defer c.wg.Done()
	defer close(pending)
	bw := bufio.NewWriterSize(c.conn, connBufSize)
	for call := range c.sendCh {
		// Enqueue before writing: the reader must know about the call even
		// if the response races the local bookkeeping.
		pending <- call
		err := writeFrame(bw, call.frame.b)
		putFrame(call.frame) // bufio copied (or rejected) the bytes
		if err == nil && len(c.sendCh) == 0 {
			runtime.Gosched()
		}
		if err == nil && len(c.sendCh) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			c.fail(err)
			c.failQueued()
			return
		}
	}
	bw.Flush()
}

// failQueued answers every call still in, or later sent to, the send queue
// with the sticky transport error, until Close closes the queue.
func (c *Client) failQueued() {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	for call := range c.sendCh {
		putFrame(call.frame)
		call.slot <- clientResult{err: err}
	}
}

// readLoop matches response frames to pending calls in FIFO order.
func (c *Client) readLoop(pending <-chan clientCall) {
	defer c.wg.Done()
	br := bufio.NewReaderSize(c.conn, connBufSize)
	var scratch []byte // status replies' frames: nothing decoded aliases it
	for call := range pending {
		// A Get, MultiGet or Scan reply gets a fresh buffer, the one
		// allocation of its round trip: the decoded response aliases it and
		// the caller keeps the values.
		var body []byte
		var err error
		if statusReply(call.op) {
			body, err = readFrame(br, scratch)
			scratch = body
		} else {
			body, err = readFrame(br, nil)
		}
		var res clientResult
		if err == nil {
			err = decodeResponseInto(call.op, body, &res.resp)
		}
		if err != nil {
			c.fail(err)
			call.slot <- clientResult{err: err}
			// Fail the rest of the queue.
			for call := range pending {
				call.slot <- clientResult{err: err}
			}
			return
		}
		call.slot <- res
	}
}

// fail records the first transport error and tears the connection down so
// both loops unblock.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.conn.Close()
}

// Call sends one request and blocks for its response, which it returns in
// storage of its own. A StatusErr response comes back with the error.
func (c *Client) Call(req *Request) (*Response, error) {
	resp := new(Response)
	if err := c.call(req, resp); err != nil {
		if resp.Status != StatusErr {
			return nil, err
		}
		return resp, err
	}
	return resp, nil
}

// call sends one request and blocks for its response, decoded into resp.
// The request is encoded into a pooled frame (released by the write loop)
// and the call waits on a pooled slot; the response's fields alias the one
// reply frame readLoop allocated for it, which the caller keeps (a status
// reply, which nothing aliases, is read into readLoop's reused buffer). A
// transport error leaves resp zero; a StatusErr response fills it and
// returns the error too.
func (c *Client) call(req *Request, resp *Response) error {
	fb := getFrame()
	body, err := EncodeRequest(fb.b[:0], req)
	if err != nil {
		putFrame(fb)
		return err
	}
	fb.b = body
	c.sendMu.RLock()
	c.mu.Lock()
	closed, err := c.closed, c.err
	c.mu.Unlock()
	if closed || err != nil {
		c.sendMu.RUnlock()
		putFrame(fb)
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	slot := slotPool.Get().(chan clientResult)
	// The send channel is the pipeline: many callers enqueue concurrently,
	// the write loop serializes them, and FIFO response matching follows
	// from the single pending queue. Close cannot close it under this send:
	// it sets closed first and then waits for sendMu.
	c.sendCh <- clientCall{op: req.Op, frame: fb, slot: slot}
	c.sendMu.RUnlock()
	res := <-slot
	slotPool.Put(slot) // its one send is received: nothing can land in it now
	if res.err != nil {
		return res.err
	}
	*resp = res.resp
	if resp.Status == StatusErr {
		return fmt.Errorf("kvserver: %s", resp.Err)
	}
	return nil
}

// Put writes one key.
func (c *Client) Put(cf string, key, value []byte) error {
	var resp Response
	return c.call(&Request{Op: OpPut, CF: cf, Key: key, Value: value}, &resp)
}

// Get reads one key; ErrNotFound when absent.
func (c *Client) Get(cf string, key []byte) ([]byte, error) {
	var resp Response
	if err := c.call(&Request{Op: OpGet, CF: cf, Key: key}, &resp); err != nil {
		return nil, err
	}
	if resp.Status == StatusNotFound {
		return nil, ErrNotFound
	}
	return resp.Value, nil
}

// Delete removes one key.
func (c *Client) Delete(cf string, key []byte) error {
	var resp Response
	return c.call(&Request{Op: OpDelete, CF: cf, Key: key}, &resp)
}

// MultiGet reads a key batch; results are positional, with ErrNotFound for
// missing keys (matching lsm.DB.MultiGet).
func (c *Client) MultiGet(cf string, keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	resp, err := c.Call(&Request{Op: OpMultiGet, CF: cf, Keys: keys})
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	for i := range keys {
		if i < len(resp.Found) && resp.Found[i] {
			vals[i] = resp.Values[i]
		} else {
			errs[i] = ErrNotFound
		}
	}
	return vals, errs
}

// Scan returns up to limit pairs with key >= start in ascending order,
// merged across the server's shards.
func (c *Client) Scan(cf string, start []byte, limit int) ([]KV, error) {
	var resp Response
	if err := c.call(&Request{Op: OpScan, CF: cf, Key: start, Limit: limit}, &resp); err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// Batch applies entries atomically per server shard.
func (c *Client) Batch(entries []BatchEntry) error {
	var resp Response
	return c.call(&Request{Op: OpBatch, Batch: entries}, &resp)
}

// Stats fetches the server's aggregated stats dump.
func (c *Client) Stats() (string, error) {
	resp, err := c.Call(&Request{Op: OpStats})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Workload fetches the server's cumulative workload counters; two readings
// make a window (lsm.NewWorkloadSnapshot).
func (c *Client) Workload() (lsm.WorkloadCounters, error) {
	var wc lsm.WorkloadCounters
	resp, err := c.Call(&Request{Op: OpWorkload})
	if err != nil {
		return wc, err
	}
	if err := json.Unmarshal([]byte(resp.Text), &wc); err != nil {
		return wc, fmt.Errorf("kvserver: workload reply: %w", err)
	}
	return wc, nil
}

// Close tears the connection down. In-flight calls fail with net.ErrClosed
// or a transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Closing the connection first fails the write loop, which then answers
	// every queued call, so callers still blocked sending get through and
	// release sendMu.
	err := c.conn.Close()
	c.sendMu.Lock()
	close(c.sendCh)
	c.sendMu.Unlock()
	c.wg.Wait()
	return err
}

// SetOptions applies dynamic option changes to the server's running shards —
// the remote face of lsm.DB.SetOptions. cf scopes column-family knobs ("" =
// default family); DB-scoped names in the same call land in each shard's DB
// snapshot. Returns the server's human-readable summary.
func (c *Client) SetOptions(cf string, changes []OptionKV) (string, error) {
	resp, err := c.Call(&Request{Op: OpSetOptions, CF: cf, Options: changes})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}
