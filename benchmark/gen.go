package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Input generation. The program under test receives only what these
// functions produce; --seed drives every random choice. The generators are
// the benchmark's own, not internal/bench's, so that a change to the
// repository's db_bench stand-in cannot silently change this workload. Values carry their
// own checksum, so any Get or Scan result is verifiable without keeping an
// oracle of what was last written (callers overwrite each other's keys).

const (
	keySize   = 16
	valueSize = 400
	headSize  = 24                         // id | nonce | FNV-1a64(id, nonce)
	fillSize  = (valueSize - headSize) / 2 // incompressible half; the rest is zeros
	scanLimit = 20
)

// fillPool is the source of the incompressible half of every value. It is
// built from a constant, not from --seed, so a value written under one seed
// still verifies under another.
var fillPool = func() []byte {
	p := make([]byte, 64<<10)
	rand.New(rand.NewSource(0x5eed)).Read(p)
	return p
}()

// appendKey renders a key id as a fixed-width key whose byte order equals
// the numeric order of ids, which is what lets a scan be verified exactly.
func appendKey(dst []byte, id uint64) []byte {
	var b [keySize]byte
	b[0] = 'k'
	for i := keySize - 1; i > 0; i-- {
		b[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, b[:]...)
}

// keyID is the inverse of appendKey.
func keyID(key []byte) (uint64, bool) {
	if len(key) != keySize || key[0] != 'k' {
		return 0, false
	}
	var id uint64
	for _, c := range key[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint64(c-'0')
	}
	return id, true
}

func headSum(id, nonce uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range [2]uint64{id, nonce} {
		for i := 0; i < 8; i++ {
			h ^= w >> (8 * i) & 0xff
			h *= prime64
		}
	}
	return h
}

func fillOffset(nonce uint64) int { return int(nonce % uint64(len(fillPool)-fillSize)) }

// appendValue builds the value for (id, nonce): half of the body is random
// bytes, half zeros, so a block codec sees about 50 % compressible data.
func appendValue(dst []byte, id, nonce uint64) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, valueSize)...)
	v := dst[n:]
	binary.LittleEndian.PutUint64(v[0:], id)
	binary.LittleEndian.PutUint64(v[8:], nonce)
	binary.LittleEndian.PutUint64(v[16:], headSum(id, nonce))
	off := fillOffset(nonce)
	copy(v[headSize:], fillPool[off:off+fillSize])
	return dst
}

var zeroTail = make([]byte, valueSize-headSize-fillSize)

// verifyValue checks every byte of a value read back for key id.
func verifyValue(id uint64, v []byte) error {
	if len(v) != valueSize {
		return fmt.Errorf("key %d: value has %d bytes, want %d", id, len(v), valueSize)
	}
	if got := binary.LittleEndian.Uint64(v[0:]); got != id {
		return fmt.Errorf("key %d: value belongs to key %d", id, got)
	}
	nonce := binary.LittleEndian.Uint64(v[8:])
	if binary.LittleEndian.Uint64(v[16:]) != headSum(id, nonce) {
		return fmt.Errorf("key %d: header checksum mismatch", id)
	}
	off := fillOffset(nonce)
	if !bytes.Equal(v[headSize:headSize+fillSize], fillPool[off:off+fillSize]) {
		return fmt.Errorf("key %d: body mismatch", id)
	}
	if !bytes.Equal(v[headSize+fillSize:], zeroTail) {
		return fmt.Errorf("key %d: tail mismatch", id)
	}
	return nil
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta for theta < 1
// (Gray et al., the YCSB generator; math/rand's Zipf needs an exponent > 1).
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
}

func newZipf(n uint64, theta float64) *zipf {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
	}
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// scatter maps a rank onto a key id by a fixed bijection of [0, n), so the
// hot ranks are scattered over the keyspace (and over shards and blocks)
// instead of sitting in one corner of it. 2654435761 is prime, hence coprime
// to every n it does not divide.
func scatter(rank, n uint64) uint64 { return rank * 2654435761 % n }

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
)

var opKindNames = [...]string{opGet: "get", opPut: "put", opScan: "scan"}

// op is one generated request. nonce selects the value body of a Put.
type op struct {
	kind  opKind
	id    uint64
	nonce uint64
}

// mix is a workload's traffic shape: percentages of Gets and Puts (the
// remainder are scans of scanLimit pairs) over keys keys, uniform or Zipf.
type mix struct {
	keys           uint64
	getPct, putPct int
	zipfTheta      float64 // 0 = uniform
}

// zipf returns the mix's rank sampler, nil for a uniform mix. Building it sums
// keys terms, so callers build it once and share it between streams.
func (m mix) zipf() *zipf {
	if m.zipfTheta == 0 {
		return nil
	}
	return newZipf(m.keys, m.zipfTheta)
}

// opStream is one caller's deterministic request sequence.
type opStream struct {
	m   mix
	rng *rand.Rand
	z   *zipf
}

// newOpStream derives caller's stream from the run seed. z may be shared: it
// is read-only after construction.
func newOpStream(m mix, z *zipf, seed int64, caller int) *opStream {
	return &opStream{m: m, z: z, rng: rand.New(rand.NewSource(seed*1000003 + int64(caller)))}
}

func (s *opStream) next() op {
	var o op
	switch p := s.rng.Intn(100); {
	case p < s.m.getPct:
		o.kind = opGet
	case p < s.m.getPct+s.m.putPct:
		o.kind = opPut
		o.nonce = s.rng.Uint64()
	default:
		o.kind = opScan
	}
	o.id = s.nextID()
	return o
}

// nextID draws a key id from the workload's distribution.
func (s *opStream) nextID() uint64 {
	if s.z != nil {
		return scatter(s.z.rank(s.rng.Float64()), s.m.keys)
	}
	return uint64(s.rng.Int63n(int64(s.m.keys)))
}

// streamHash folds the first n ops of the first callers streams into one
// number: the fingerprint the run stamp carries and the tests compare.
func streamHash(m mix, seed int64, callers, n int) uint64 {
	z := m.zipf()
	h := uint64(14695981039346656037)
	for c := 0; c < callers; c++ {
		s := newOpStream(m, z, seed, c)
		for i := 0; i < n; i++ {
			o := s.next()
			h = (h ^ headSum(o.id, o.nonce) ^ uint64(o.kind)) * 1099511628211
		}
	}
	return h
}
