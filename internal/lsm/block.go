package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Data blocks hold prefix-compressed key/value entries with restart points,
// in the LevelDB/RocksDB style:
//
//	entry:   varint(shared) varint(unshared) varint(valueLen) keyDelta value
//	trailer: uint32 restart offsets ..., uint32 numRestarts
type blockBuilder struct {
	buf             bytes.Buffer
	restarts        []uint32
	restartInterval int
	counter         int
	lastKey         []byte
	entries         int
}

func newBlockBuilder(restartInterval int) *blockBuilder {
	if restartInterval <= 0 {
		restartInterval = 16
	}
	return &blockBuilder{restartInterval: restartInterval, restarts: []uint32{0}}
}

// add appends key/value; keys must arrive in strictly increasing order.
func (b *blockBuilder) add(key, value []byte) {
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(b.buf.Len()))
		b.counter = 0
	}
	var tmp [3 * binary.MaxVarintLen32]byte
	n := binary.PutUvarint(tmp[:], uint64(shared))
	n += binary.PutUvarint(tmp[n:], uint64(len(key)-shared))
	n += binary.PutUvarint(tmp[n:], uint64(len(value)))
	b.buf.Write(tmp[:n])
	b.buf.Write(key[shared:])
	b.buf.Write(value)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// estimatedSize returns the encoded size if finish were called now.
func (b *blockBuilder) estimatedSize() int {
	return b.buf.Len() + 4*len(b.restarts) + 4
}

// empty reports whether no entries have been added.
func (b *blockBuilder) empty() bool { return b.entries == 0 }

// finish appends the restart trailer and returns the block contents.
func (b *blockBuilder) finish() []byte {
	var tmp [4]byte
	for _, r := range b.restarts {
		binary.LittleEndian.PutUint32(tmp[:], r)
		b.buf.Write(tmp[:])
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(b.restarts)))
	b.buf.Write(tmp[:])
	return b.buf.Bytes()
}

// reset prepares the builder for a new block.
func (b *blockBuilder) reset() {
	b.buf.Reset()
	b.restarts = b.restarts[:1]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

// blockIter iterates a decoded block. The restart array is read in place
// from the block's trailer rather than materialized, so an iterator carries
// no per-block state beyond its (reusable) key buffer — init lets one
// blockIter be re-pointed at successive blocks without allocating.
type blockIter struct {
	data        []byte
	off         uint32 // offset of next entry to decode
	key         []byte
	val         []byte
	valid       bool
	err         error
	dataLimit   uint32 // offset where entries end (start of restart array)
	numRestarts int
}

// init parses the restart trailer and re-points the iterator at data,
// keeping the key buffer's capacity; returns an error for corrupt data
// (leaving the iterator invalid).
func (it *blockIter) init(data []byte) error {
	it.valid = false
	it.err = nil
	it.off = 0
	it.val = nil
	if it.key != nil {
		it.key = it.key[:0]
	}
	if len(data) < 4 {
		it.data = nil
		return fmt.Errorf("lsm: block too short (%d bytes)", len(data))
	}
	numRestarts := binary.LittleEndian.Uint32(data[len(data)-4:])
	trailer := 4 * (int(numRestarts) + 1)
	if numRestarts == 0 || trailer > len(data) {
		it.data = nil
		return fmt.Errorf("lsm: bad restart count %d in %d-byte block", numRestarts, len(data))
	}
	it.data = data
	it.numRestarts = int(numRestarts)
	it.dataLimit = uint32(len(data) - trailer)
	return nil
}

// restart returns the i-th restart offset, read from the trailer in place.
func (it *blockIter) restart(i int) uint32 {
	return binary.LittleEndian.Uint32(it.data[int(it.dataLimit)+4*i:])
}

// newBlockIter parses the restart trailer; returns an error for corrupt data.
func newBlockIter(data []byte) (*blockIter, error) {
	it := &blockIter{}
	if err := it.init(data); err != nil {
		return nil, err
	}
	return it, nil
}

// Valid reports whether the iterator is positioned on an entry.
func (it *blockIter) Valid() bool { return it.valid }

// Err returns the first corruption error encountered.
func (it *blockIter) Err() error { return it.err }

// Key returns the current key (internal key for data blocks).
func (it *blockIter) Key() []byte { return it.key }

// Value returns the current value.
func (it *blockIter) Value() []byte { return it.val }

// decodeAt decodes the entry at off; returns the offset just past it.
func (it *blockIter) decodeAt(off uint32) (uint32, bool) {
	if off >= it.dataLimit {
		it.valid = false
		return off, false
	}
	data := it.data[off:it.dataLimit]
	// Each length is decoded with a one-byte fast path: a value under 0x80 is
	// its own varint encoding, which is what the shared and unshared key
	// lengths (and short values) almost always are. Longer values, truncated
	// and overlong input take binary.Uvarint and its corruption checks.
	shared, n1 := uint64(data[0]), 1 // off < dataLimit, so data is not empty
	if shared >= 0x80 {
		if shared, n1 = binary.Uvarint(data); n1 <= 0 {
			it.corrupt(off)
			return off, false
		}
	}
	var unshared, valLen uint64
	n2, n3 := 1, 1
	if rest := data[n1:]; len(rest) > 0 && rest[0] < 0x80 {
		unshared = uint64(rest[0])
	} else if unshared, n2 = binary.Uvarint(rest); n2 <= 0 {
		it.corrupt(off)
		return off, false
	}
	if rest := data[n1+n2:]; len(rest) > 0 && rest[0] < 0x80 {
		valLen = uint64(rest[0])
	} else if valLen, n3 = binary.Uvarint(rest); n3 <= 0 {
		it.corrupt(off)
		return off, false
	}
	hdr := n1 + n2 + n3
	need := hdr + int(unshared) + int(valLen)
	if need > len(data) || int(shared) > len(it.key) {
		it.corrupt(off)
		return off, false
	}
	it.key = append(it.key[:shared], data[hdr:hdr+int(unshared)]...)
	it.val = data[hdr+int(unshared) : hdr+int(unshared)+int(valLen)]
	it.valid = true
	return off + uint32(need), true
}

func (it *blockIter) corrupt(off uint32) {
	it.valid = false
	if it.err == nil {
		it.err = fmt.Errorf("lsm: corrupt block entry at offset %d", off)
	}
}

// SeekToFirst positions at the first entry.
func (it *blockIter) SeekToFirst() {
	it.key = it.key[:0]
	it.off, _ = it.decodeAt(0)
}

// Next advances to the following entry.
func (it *blockIter) Next() {
	if !it.valid {
		return
	}
	it.off, _ = it.decodeAt(it.off)
}

// Seek positions at the first entry with key >= target under cmp, using a
// binary search over restart points then a linear scan.
func (it *blockIter) Seek(target []byte, cmp func(a, b []byte) int) {
	// Binary search the last restart whose key < target.
	lo, hi := 0, it.numRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.key = it.key[:0]
		if _, ok := it.decodeAt(it.restart(mid)); !ok {
			return
		}
		if cmp(it.key, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.key = it.key[:0]
	off, ok := it.decodeAt(it.restart(lo))
	if !ok {
		return
	}
	it.off = off
	for it.valid && cmp(it.key, target) < 0 {
		it.Next()
	}
}
