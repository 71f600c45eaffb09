package lsm

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Block codecs and their pooled state.
//
// A block's trailer names its type: blockRaw, blockFlate (DEFLATE, level
// flateLevel; zstd and zlib, and snappy/lz4 tables written before block type
// 2 existed) or blockSnappy (snappy.go; snappy and lz4 — one codec under two
// names). The snappy codec keeps no state between calls: its hash table lives
// on the encoder's stack and its decoder writes straight into the block's
// final storage. DEFLATE does keep state — a flate.Writer carries ~600 KB of
// window and hash chains, a flate.Reader ~40 KB of history — so both are
// pooled, as are the staging buffers every codec path reads and encodes into.
//
// Ownership rules (see DESIGN §13):
//   - getBlockBuf/putBlockBuf pair around one block's encode or one block
//     read; nothing returned from the call may alias the buffer.
//   - getFlateWriter/putFlateWriter pair around one block's compression; the
//     writer must be Closed before it is put back.
//   - getFlateReader/putFlateReader pair around one block's decompression;
//     put is safe after a decode error because Reset discards all state.
//   - flateScratch is private to one inflateBlock call; the plaintext is
//     copied out before it is put back.

// Block types, the first byte of every block trailer.
const (
	blockRaw    = 0
	blockFlate  = 1
	blockSnappy = 2
)

// flateLevel is the DEFLATE level behind ZstdCompression.
const flateLevel = 6

// blockType is the block type comp writes.
func (c Compression) blockType() byte {
	switch c {
	case SnappyCompression, LZ4Compression:
		return blockSnappy
	case ZstdCompression:
		return blockFlate
	default:
		return blockRaw
	}
}

var flateWriterPool sync.Pool

// getFlateWriter returns a pooled flate.Writer reset to write to dst.
func getFlateWriter(dst io.Writer) *flate.Writer {
	if fw, ok := flateWriterPool.Get().(*flate.Writer); ok {
		fw.Reset(dst)
		return fw
	}
	fw, err := flate.NewWriter(dst, flateLevel)
	if err != nil {
		// Unreachable: flateLevel is a valid level.
		panic(err)
	}
	return fw
}

func putFlateWriter(fw *flate.Writer) { flateWriterPool.Put(fw) }

// flateReaderPool recycles flate.Readers; every reader the stdlib returns
// implements flate.Resetter.
var flateReaderPool sync.Pool

func getFlateReader(src io.Reader) io.ReadCloser {
	if fr, ok := flateReaderPool.Get().(io.ReadCloser); ok {
		fr.(flate.Resetter).Reset(src, nil)
		return fr
	}
	return flate.NewReader(src)
}

func putFlateReader(fr io.ReadCloser) {
	fr.Close()
	flateReaderPool.Put(fr)
}

// blockBufPool recycles the staging buffers blocks are encoded into before
// they are appended to a file, and read into before they are decoded.
var blockBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

func getBlockBuf() *bytes.Buffer {
	return blockBufPool.Get().(*bytes.Buffer)
}

func putBlockBuf(b *bytes.Buffer) {
	b.Reset()
	blockBufPool.Put(b)
}

// compressBlock encodes raw with comp's codec into buf and returns the
// payload and its block type. It returns raw itself as blockRaw when comp is
// NoCompression or the codec saves less than 12.5 %.
func compressBlock(buf *bytes.Buffer, raw []byte, comp Compression) ([]byte, byte, error) {
	limit := len(raw) - len(raw)/8
	switch ctype := comp.blockType(); ctype {
	case blockSnappy:
		buf.Grow(snappyMaxEncodedLen(len(raw)))
		if enc, ok := snappyEncode(buf.AvailableBuffer(), raw, limit); ok {
			return enc, ctype, nil
		}
	case blockFlate:
		fw := getFlateWriter(buf)
		_, werr := fw.Write(raw)
		cerr := fw.Close()
		putFlateWriter(fw)
		if werr != nil {
			return nil, 0, werr
		}
		if cerr != nil {
			return nil, 0, cerr
		}
		if buf.Len() < limit {
			return buf.Bytes(), ctype, nil
		}
	}
	return raw, blockRaw, nil
}

// decodeBlock turns a verified payload of block type ctype into the block,
// in dst's storage when its capacity suffices and in one exactly-sized
// allocation otherwise. payload must not alias dst.
func decodeBlock(dst, payload []byte, ctype byte) ([]byte, error) {
	switch ctype {
	case blockRaw:
		dst = sized(dst, len(payload))
		copy(dst, payload)
		return dst, nil
	case blockFlate:
		return inflateBlock(dst, payload)
	case blockSnappy:
		n, prefix, err := snappyDecodedLen(payload)
		if err != nil {
			return nil, err
		}
		dst = sized(dst, n)
		if err := snappyDecode(dst, payload[prefix:]); err != nil {
			return nil, err
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("lsm: unknown block compression %d", ctype)
	}
}

// sized returns b resliced to n bytes when its capacity allows, else new
// storage of exactly n bytes.
func sized(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// flateScratch is inflateBlock's pooled state: a reader over the payload and
// a staging buffer, because a DEFLATE stream does not say how long its
// plaintext is.
type flateScratch struct {
	src bytes.Reader
	buf bytes.Buffer
}

var flateScratchPool = sync.Pool{
	New: func() any { return new(flateScratch) },
}

// inflateBlock inflates a DEFLATE payload into dst's storage (see
// decodeBlock).
func inflateBlock(dst, payload []byte) ([]byte, error) {
	scr := flateScratchPool.Get().(*flateScratch)
	defer func() {
		scr.buf.Reset()
		flateScratchPool.Put(scr)
	}()
	scr.src.Reset(payload)
	fr := getFlateReader(&scr.src)
	_, err := scr.buf.ReadFrom(fr)
	putFlateReader(fr)
	if err != nil {
		return nil, err
	}
	dst = sized(dst, scr.buf.Len())
	copy(dst, scr.buf.Bytes())
	return dst, nil
}
