package lsm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The snappy block format, written from scratch on the standard library.
// It is the codec behind both SnappyCompression and LZ4Compression (block
// type 2): one byte-oriented LZ77 coder with no entropy stage.
//
//	block   = uvarint(decoded length) element*
//	element = literal | copy
//
// The low two bits of an element's tag byte give its kind:
//
//	00 literal  tag>>2 < 60: length-1 is tag>>2; 60..63: length-1 follows in
//	            1..4 little-endian bytes. Then the literal bytes.
//	01 copy1    length 4 + (tag>>2)&7; offset is (tag>>5)<<8 | next byte.
//	10 copy2    length 1 + tag>>2; 2-byte little-endian offset follows.
//	11 copy4    length 1 + tag>>2; 4-byte little-endian offset follows.
//
// A copy repeats length bytes starting offset bytes back in the output. An
// offset below the length is legal and repeats a period: a run of zeros is
// one literal zero and one copy with offset 1.

const (
	snappyTagLiteral = 0
	snappyTagCopy1   = 1
	snappyTagCopy2   = 2
	snappyTagCopy4   = 3

	// snappyWindow is how far back the encoder looks. It restarts its hash
	// table every window of input, so every offset it emits fits copy1 or
	// copy2 whatever the block size; copy4 is decoded, never produced.
	snappyWindow = 1 << 16
	// snappyTableBits sizes the encoder's hash table of 4-byte sequences.
	snappyTableBits = 14
	// snappyMaxExpansion bounds decoded bytes per encoded byte: no element
	// yields more than a copy2's 64 bytes from 3.
	snappyMaxExpansion = 22
)

var (
	errSnappyTruncated = fmt.Errorf("%w: snappy block truncated", ErrCorruption)
	errSnappyOffset    = fmt.Errorf("%w: snappy copy offset out of range", ErrCorruption)
	errSnappyLength    = fmt.Errorf("%w: snappy block length disagrees with its prefix", ErrCorruption)
)

// snappyMaxEncodedLen bounds the encoding of n input bytes: the prefix, the
// bytes themselves, and tag overhead that never exceeds one byte in six.
func snappyMaxEncodedLen(n int) int {
	return binary.MaxVarintLen64 + n + n/6 + 32
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func snappyHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - snappyTableBits) }

// snappyEncode appends the encoding of src to dst and reports whether the
// whole of dst stayed below limit bytes. It gives up as soon as the bytes
// already emitted plus the literal bytes pending reach limit, so an
// incompressible block costs only the work up to that point. With
// cap(dst) >= snappyMaxEncodedLen(len(src)) it does not allocate. The output
// is a pure function of src.
func snappyEncode(dst, src []byte, limit int) ([]byte, bool) {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	var table [1 << snappyTableBits]uint16
	for {
		w := src
		if len(w) > snappyWindow {
			w = w[:snappyWindow]
		}
		src = src[len(w):]
		var ok bool
		if dst, ok = snappyEncodeWindow(dst, w, &table, limit); !ok || len(src) == 0 {
			return dst, ok
		}
		clear(table[:])
	}
}

// snappyEncodeWindow appends the elements of one window (at most
// snappyWindow bytes) with a greedy search: hash the 4 bytes at s, and if the
// last position with that hash holds the same 4 bytes, extend the match and
// emit it as a copy. Table entries are positions within w, all before s; an
// empty entry (0) is harmless because a match is always verified against the
// bytes.
func snappyEncodeWindow(dst, w []byte, table *[1 << snappyTableBits]uint16, limit int) ([]byte, bool) {
	last := len(w) - 4 // the last position a 4-byte load may start at
	lit := 0           // start of the bytes not yet emitted
	// Each miss advances s by skip/32, so a run of incompressible bytes is
	// crossed ever faster; a match resets it.
	skip := 32
	for s := 1; s <= last; {
		cur := load32(w, s)
		h := snappyHash(cur)
		cand := int(table[h])
		table[h] = uint16(s)
		if load32(w, cand) != cur {
			if len(dst)+s-lit >= limit {
				return dst, false
			}
			s += skip >> 5
			skip++
			continue
		}
		skip = 32
		end := s + 4
		for c := cand + 4; ; {
			if end+8 > len(w) {
				for end < len(w) && w[c] == w[end] {
					c, end = c+1, end+1
				}
				break
			}
			if x := binary.LittleEndian.Uint64(w[c:]) ^ binary.LittleEndian.Uint64(w[end:]); x != 0 {
				end += bits.TrailingZeros64(x) >> 3
				break
			}
			c, end = c+8, end+8
		}
		dst = snappyAppendLiteral(dst, w[lit:s])
		dst = snappyAppendCopy(dst, s-cand, end-s)
		if len(dst) >= limit {
			return dst, false
		}
		lit, s = end, end
		// Index the position just before the match's end too, so the next
		// repeat of the bytes the match ended on can be found.
		if end-1 <= last {
			table[snappyHash(load32(w, end-1))] = uint16(end - 1)
		}
	}
	dst = snappyAppendLiteral(dst, w[lit:])
	return dst, len(dst) < limit
}

func snappyAppendLiteral(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	n := uint32(len(lit) - 1)
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|snappyTagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|snappyTagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|snappyTagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|snappyTagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		dst = append(dst, 63<<2|snappyTagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, lit...)
}

// snappyAppendCopy emits a match of length >= 4 at offset < snappyWindow,
// split into elements of at most 64 bytes that each stay at least 4 long.
func snappyAppendCopy(dst []byte, offset, length int) []byte {
	for length >= 68 {
		dst = append(dst, 63<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		dst = append(dst, 59<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if length >= 12 || offset >= 2048 {
		return append(dst, byte(length-1)<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
	}
	return append(dst, byte(offset>>8)<<5|byte(length-4)<<2|snappyTagCopy1, byte(offset))
}

// snappyDecodedLen parses a block's length prefix and returns the declared
// length and the prefix size. A length the rest of the block could not
// expand to is refused here, so a hostile prefix never sizes an allocation
// beyond snappyMaxExpansion times the bytes received.
func snappyDecodedLen(block []byte) (n, prefix int, err error) {
	v, prefix := binary.Uvarint(block)
	if prefix <= 0 {
		return 0, 0, errSnappyTruncated
	}
	if v > uint64(len(block)-prefix)*snappyMaxExpansion {
		return 0, 0, errSnappyLength
	}
	return int(v), prefix, nil
}

// snappyDecode decodes the elements of a block (after its prefix) into dst,
// which must be exactly as long as the prefix declares and must not overlap
// src. Any malformed input is an error wrapping ErrCorruption.
func snappyDecode(dst, src []byte) error {
	d, s := 0, 0
	for s < len(src) {
		tag := src[s]
		var length, offset uint64
		switch tag & 3 {
		case snappyTagLiteral:
			length = uint64(tag >> 2)
			s++
			if length >= 60 {
				k := int(length) - 59 // 1..4 little-endian length bytes
				if k > len(src)-s {
					return errSnappyTruncated
				}
				length = 0
				for i := k - 1; i >= 0; i-- {
					length = length<<8 | uint64(src[s+i])
				}
				s += k
			}
			length++
			if length > uint64(len(src)-s) {
				return errSnappyTruncated
			}
			if length > uint64(len(dst)-d) {
				return errSnappyLength
			}
			d += copy(dst[d:], src[s:s+int(length)])
			s += int(length)
			continue
		case snappyTagCopy1:
			if len(src)-s < 2 {
				return errSnappyTruncated
			}
			length = 4 + uint64(tag>>2&7)
			offset = uint64(tag>>5)<<8 | uint64(src[s+1])
			s += 2
		case snappyTagCopy2:
			if len(src)-s < 3 {
				return errSnappyTruncated
			}
			length = 1 + uint64(tag>>2)
			offset = uint64(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3
		case snappyTagCopy4:
			if len(src)-s < 5 {
				return errSnappyTruncated
			}
			length = 1 + uint64(tag>>2)
			offset = uint64(binary.LittleEndian.Uint32(src[s+1:]))
			s += 5
		}
		if offset == 0 || offset > uint64(d) {
			return errSnappyOffset
		}
		if length > uint64(len(dst)-d) {
			return errSnappyLength
		}
		// Copying from the start of the period doubles what each copy call
		// moves, so a long run at a short offset takes few calls.
		from, end := d-int(offset), d+int(length)
		for d < end {
			d += copy(dst[d:end], dst[from:d])
		}
	}
	if d != len(dst) {
		return errSnappyLength
	}
	return nil
}
