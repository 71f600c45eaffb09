package lsm

// Bloom filter compatible in spirit with LevelDB/RocksDB's full filters:
// double hashing over a 32-bit base hash, k probes derived from bits-per-key.

// bloomHash is the murmur-ish hash LevelDB uses for filter probes.
func bloomHash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	i := 0
	for ; i+4 <= len(data); i += 4 {
		w := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		h += w
		h *= m
		h ^= h >> 16
	}
	switch len(data) - i {
	case 3:
		h += uint32(data[i+2]) << 16
		fallthrough
	case 2:
		h += uint32(data[i+1]) << 8
		fallthrough
	case 1:
		h += uint32(data[i])
		h *= m
		h ^= h >> 24
	}
	return h
}

// bloomFilter builds a filter block for a set of keys.
type bloomFilter struct {
	bitsPerKey int
	k          int
	hashes     []uint32
	bits       []byte // build's output, reused by the next build
}

// reset empties the builder for another set of keys under a bits-per-key
// budget, keeping its buffers. bitsPerKey <= 0 disables the filter (build
// returns nil).
func (b *bloomFilter) reset(bitsPerKey int) {
	b.bitsPerKey, b.hashes = bitsPerKey, b.hashes[:0]
	b.k = min(max(int(float64(bitsPerKey)*0.69), 1), 30) // ln(2) * bits/key
}

// add records a key for the filter under construction.
func (b *bloomFilter) add(key []byte) {
	b.hashes = append(b.hashes, bloomHash(key))
}

// build encodes the filter bits; the final byte stores k. Returns nil when
// the filter is disabled or empty. The result is valid until the next build.
func (b *bloomFilter) build() []byte {
	if b.bitsPerKey <= 0 || len(b.hashes) == 0 {
		return nil
	}
	bits := len(b.hashes) * b.bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8
	if cap(b.bits) < nBytes+1 {
		b.bits = make([]byte, nBytes+1)
	} else {
		b.bits = b.bits[:nBytes+1]
		clear(b.bits)
	}
	out := b.bits
	out[nBytes] = byte(b.k)
	for _, h := range b.hashes {
		delta := h>>17 | h<<15
		for j := 0; j < b.k; j++ {
			pos := h % uint32(bits)
			out[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	b.hashes = b.hashes[:0]
	return out
}

// bloomMayContain tests a key against an encoded filter. A nil/short filter
// matches everything (no filter ⇒ cannot exclude).
func bloomMayContain(filter, key []byte) bool {
	if len(filter) < 2 {
		return true
	}
	nBytes := len(filter) - 1
	bits := uint32(nBytes * 8)
	k := filter[nBytes]
	if k > 30 {
		return true // reserved for future encodings
	}
	h := bloomHash(key)
	delta := h>>17 | h<<15
	for j := byte(0); j < k; j++ {
		pos := h % bits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
