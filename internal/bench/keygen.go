package bench

import (
	"math"
	"math/rand"
)

// keyGen produces db_bench-style fixed-width keys ("%016d") from key ids.
type keyGen struct {
	buf []byte
}

// newKeyGen returns a generator for keys of the given width (min 16).
func newKeyGen(keySize int) *keyGen {
	if keySize < 16 {
		keySize = 16
	}
	return &keyGen{buf: make([]byte, keySize)}
}

// Key renders key id into the generator's reusable buffer, right-aligned
// and zero-padded; an id wider than the key keeps its last digits.
func (g *keyGen) Key(id uint64) []byte {
	for i := len(g.buf) - 1; i >= 0; i-- {
		g.buf[i] = byte('0' + id%10)
		id /= 10
	}
	return g.buf
}

// valueGen produces pseudo-random values with a target compressibility,
// like db_bench's RandomGenerator (compression_ratio 0.5 by default).
type valueGen struct {
	data []byte
	pos  int
}

// newValueGen builds a pool of value bytes with the given compression ratio
// (fraction of incompressible bytes; 1.0 = fully random).
func newValueGen(r *rand.Rand, ratio float64) *valueGen {
	const poolSize = 1 << 20
	data := make([]byte, poolSize)
	if ratio <= 0 {
		ratio = 0.5
	}
	if ratio > 1 {
		ratio = 1
	}
	// Random prefix of each 100-byte piece, repeated filler after.
	piece := 100
	rndLen := int(float64(piece) * ratio)
	for i := 0; i < poolSize; i += piece {
		end := i + rndLen
		if end > poolSize {
			end = poolSize
		}
		for j := i; j < end; j++ {
			data[j] = byte(' ' + r.Intn(95))
		}
		for j := end; j < i+piece && j < poolSize; j++ {
			data[j] = 'x'
		}
	}
	return &valueGen{data: data}
}

// Value returns a value slice of length n (valid until the next call).
func (g *valueGen) Value(n int) []byte {
	if n > len(g.data) {
		n = len(g.data)
	}
	if g.pos+n > len(g.data) {
		g.pos = 0
	}
	v := g.data[g.pos : g.pos+n]
	g.pos += n + 13
	if g.pos >= len(g.data) {
		g.pos %= 61
	}
	return v
}

// keyDist selects key ids for a workload.
type keyDist interface {
	// Next returns the next key id in [0, N).
	Next(r *rand.Rand) uint64
}

// uniformDist picks uniformly from [0, N).
type uniformDist struct{ N uint64 }

// Next implements keyDist.
func (d uniformDist) Next(r *rand.Rand) uint64 { return uint64(r.Int63n(int64(d.N))) }

// zipfDist is a power-law distribution over [0, N) with exponent theta,
// matching the "two-term-exp" hot-key behaviour of Facebook's production
// traces (Cao et al., FAST'20) closely enough for benchmarking: a small
// fraction of keys receives most accesses.
type zipfDist struct {
	N     uint64
	Theta float64 // typical 0.99 for mixgraph

	zetaN float64
	alpha float64
	eta   float64
}

// newZipfDist precomputes the rejection-free Zipfian sampler of Gray et al.
// (the same algorithm YCSB uses).
func newZipfDist(n uint64, theta float64) *zipfDist {
	if theta <= 0 || theta >= 1 {
		theta = 0.99
	}
	d := &zipfDist{N: n, Theta: theta}
	d.zetaN = zeta(n, theta)
	d.alpha = 1 / (1 - theta)
	d.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/d.zetaN)
	return d
}

func zeta(n uint64, theta float64) float64 {
	// Exact for small n; integral approximation beyond.
	const exactLimit = 10000
	var sum float64
	limit := n
	if limit > exactLimit {
		limit = exactLimit
	}
	for i := uint64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > exactLimit {
		// ∫ x^-theta dx from exactLimit to n.
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exactLimit), 1-theta)) / (1 - theta)
	}
	return sum
}

// Next implements keyDist. Hot ids are scattered across the key space by a
// multiplicative hash so the hot set is not one contiguous range.
func (d *zipfDist) Next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * d.zetaN
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, d.Theta):
		rank = 1
	default:
		rank = uint64(float64(d.N) * math.Pow(d.eta*u-d.eta+1, d.alpha))
	}
	if rank >= d.N {
		rank = d.N - 1
	}
	// Scatter.
	return (rank * 0x9e3779b97f4a7c15) % d.N
}

// sequentialDist yields 0,1,2,... (fillseq).
type sequentialDist struct{ next uint64 }

// Next implements keyDist.
func (d *sequentialDist) Next(*rand.Rand) uint64 {
	v := d.next
	d.next++
	return v
}
