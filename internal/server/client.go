package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
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

type clientResult struct {
	resp *Response
	err  error
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
	for call := range pending {
		// Fresh buffer per frame: the decoded response aliases it and is
		// handed to the caller.
		body, err := readFrame(br, nil)
		if err != nil {
			c.fail(err)
			call.slot <- clientResult{err: err}
			// Fail the rest of the queue.
			for call := range pending {
				call.slot <- clientResult{err: err}
			}
			return
		}
		resp, err := DecodeResponse(call.op, body)
		if err != nil {
			c.fail(err)
			call.slot <- clientResult{err: err}
			for call := range pending {
				call.slot <- clientResult{err: err}
			}
			return
		}
		call.slot <- clientResult{resp: resp}
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

// Call sends one request and blocks for its response. The request is
// encoded into a pooled frame (released by the write loop); the response
// frame stays freshly allocated because its decoded fields are handed to
// the caller.
func (c *Client) Call(req *Request) (*Response, error) {
	fb := getFrame()
	body, err := EncodeRequest(fb.b[:0], req)
	if err != nil {
		putFrame(fb)
		return nil, err
	}
	fb.b = body
	slot := make(chan clientResult, 1)
	c.mu.Lock()
	if c.closed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		putFrame(fb)
		if err == nil {
			err = net.ErrClosed
		}
		return nil, err
	}
	c.mu.Unlock()
	// The send channel is the pipeline: many callers enqueue concurrently,
	// the write loop serializes them, and FIFO response matching follows
	// from the single pending queue.
	func() {
		defer func() {
			// sendCh closes concurrently with Close; surface it as an error
			// rather than a panic. The frame is abandoned to the GC: the
			// write loop never saw it, so nobody else will put it back.
			if recover() != nil {
				slot <- clientResult{err: net.ErrClosed}
			}
		}()
		c.sendCh <- clientCall{op: req.Op, frame: fb, slot: slot}
	}()
	res := <-slot
	if res.err != nil {
		return nil, res.err
	}
	if res.resp.Status == StatusErr {
		return res.resp, fmt.Errorf("kvserver: %s", res.resp.Err)
	}
	return res.resp, nil
}

// Put writes one key.
func (c *Client) Put(cf string, key, value []byte) error {
	_, err := c.Call(&Request{Op: OpPut, CF: cf, Key: key, Value: value})
	return err
}

// Get reads one key; ErrNotFound when absent.
func (c *Client) Get(cf string, key []byte) ([]byte, error) {
	resp, err := c.Call(&Request{Op: OpGet, CF: cf, Key: key})
	if err != nil {
		return nil, err
	}
	if resp.Status == StatusNotFound {
		return nil, ErrNotFound
	}
	return resp.Value, nil
}

// Delete removes one key.
func (c *Client) Delete(cf string, key []byte) error {
	_, err := c.Call(&Request{Op: OpDelete, CF: cf, Key: key})
	return err
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
	resp, err := c.Call(&Request{Op: OpScan, CF: cf, Key: start, Limit: limit})
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// Batch applies entries atomically per server shard.
func (c *Client) Batch(entries []BatchEntry) error {
	_, err := c.Call(&Request{Op: OpBatch, Batch: entries})
	return err
}

// Stats fetches the server's aggregated stats dump.
func (c *Client) Stats() (string, error) {
	resp, err := c.Call(&Request{Op: OpStats})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
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
	close(c.sendCh)
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// SetOptions applies dynamic option changes to the server's running shards —
// the remote face of lsm.DB.SetOptions/SetDBOptions. cf scopes column-family
// knobs ("" = default family); DB-scoped names in the same call are routed to
// SetDBOptions server-side. Returns the server's human-readable summary.
func (c *Client) SetOptions(cf string, changes []OptionKV) (string, error) {
	resp, err := c.Call(&Request{Op: OpSetOptions, CF: cf, Options: changes})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}
