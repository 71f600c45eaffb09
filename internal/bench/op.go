package bench

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/lsm"
)

// Op is one workload operation: what an op source yields, what a worker
// executes against its target, and what one trace line records.
type Op struct {
	// Kind is the trace format's record letter: 'G' get, 'P' put, 'D' delete,
	// 'S' seek + iterate, 'M' multiget.
	Kind byte
	// Key addresses G, P, D and S; it is valid until the source's next call.
	Key []byte
	// CF indexes the workload's column-family list (0 for single-family
	// workloads and traces).
	CF       int
	ValueLen int // P
	ScanLen  int // S
	// Keys are an M's keys, bucketed by column-family index.
	Keys [][][]byte
}

// OpSource is a stream of operations for one worker.
type OpSource interface {
	// Next fills op with the next operation. io.EOF ends the stream; any
	// other error fails the run.
	Next(op *Op) error
}

// specSource turns a Spec and a per-worker rng into that worker's operations.
// It is the only place the op mix is decided.
type specSource struct {
	spec *Spec
	rng  *rand.Rand
	dist KeyDist
	keys *KeyGen
	// writer marks a dedicated write worker (readwhilewriting).
	writer  bool
	left    int64
	buckets [][][]byte // multiget keys per column family, reused across ops
}

// Next implements OpSource. The rng is drawn in a fixed order (roll, key id,
// further multiget ids, Pareto value size) so a seed names one stream.
func (s *specSource) Next(op *Op) error {
	if s.left == 0 {
		return io.EOF
	}
	s.left--
	spec := s.spec
	roll := s.rng.Float64()
	isRead := roll < spec.ReadFraction
	isScan := !isRead && roll < spec.ReadFraction+spec.ScanFraction
	if s.writer {
		isRead, isScan = false, false
	}
	ncf := uint64(len(s.buckets))
	id := s.dist.Next(s.rng)
	*op = Op{Key: s.keys.Key(id), CF: int(id % ncf)}
	switch {
	case isScan:
		op.Kind, op.ScanLen = 'S', spec.ScanLength
	case isRead && spec.MultiGetBatch > 0:
		// readmulti: one MultiGet of K keys; each key id maps onto its own
		// family, like single reads.
		for i := range s.buckets {
			s.buckets[i] = s.buckets[i][:0]
		}
		s.buckets[op.CF] = append(s.buckets[op.CF], append([]byte(nil), op.Key...))
		for n := 1; n < spec.MultiGetBatch; n++ {
			id = s.dist.Next(s.rng)
			s.buckets[id%ncf] = append(s.buckets[id%ncf], append([]byte(nil), s.keys.Key(id)...))
		}
		op.Kind, op.Key, op.Keys = 'M', nil, s.buckets
	case isRead:
		op.Kind = 'G'
	default:
		op.Kind, op.ValueLen = 'P', spec.ValueSize
		if spec.ParetoValues {
			op.ValueLen = paretoValueSize(s.rng, spec.ValueSize)
		}
	}
	return nil
}

// worker is one closed-loop workload thread: it pulls operations from its
// source, executes them against its target and keeps its own counters, so
// the drivers share nothing per operation.
type worker struct {
	src    OpSource
	t      target
	values *ValueGen
	op     Op

	now  time.Duration // virtual time (sim driver)
	done bool          // source exhausted (sim driver)
	err  error         // source failure (wall-clock driver)

	ops       int64
	errs      int64
	readMiss  int64
	bytes     int64
	readHist  *lsm.Histogram // the worker's own: merged after the run
	writeHist *lsm.Histogram
}

// newWorker builds a worker whose put values come from a pool seeded by rng.
func newWorker(src OpSource, t target, rng *rand.Rand) *worker {
	return &worker{
		src:       src,
		t:         t,
		values:    NewValueGen(rng, 0.5),
		readHist:  lsm.NewHistogram(),
		writeHist: lsm.NewHistogram(),
	}
}

// newWorkers lays spec's operations out over n workers: the op count is split
// evenly, the spec's writer share carries over, and under Sequential each
// worker owns a contiguous shard of the ascending key sequence. targetFor
// names worker i's target.
func newWorkers(spec *Spec, n int, targetFor func(i int) target) []*worker {
	total := spec.TotalOps()
	writers := (n*spec.WriterThreads + spec.Threads - 1) / spec.Threads
	workers := make([]*worker, n)
	var first int64 // ops laid out on workers before this one
	for i := range workers {
		rng := rand.New(rand.NewSource(spec.Seed*7919 + int64(i)*104729 + 1))
		ops := total / int64(n)
		if int64(i) < total%int64(n) {
			ops++
		}
		dist := spec.dist()
		if spec.Sequential {
			dist = &SequentialDist{next: uint64(first)}
		}
		src := &specSource{
			spec:    spec,
			rng:     rng,
			dist:    dist,
			keys:    NewKeyGen(spec.KeySize),
			writer:  i < writers,
			left:    ops,
			buckets: make([][][]byte, len(spec.families())),
		}
		workers[i] = newWorker(src, targetFor(i), rng)
		first += ops
	}
	return workers
}

// Sources returns the spec's per-thread op sources: the streams a Runner's
// threads execute, for serialising a workload (trace.Generate).
func (s *Spec) Sources() []OpSource {
	srcs := make([]OpSource, s.Threads)
	for i, w := range newWorkers(s, s.Threads, func(int) target { return nil }) {
		srcs[i] = w.src
	}
	return srcs
}

// exec issues w.op against the worker's target, books bytes, misses and
// failures, and reports whether the operation counts as a read. A get moves
// len(key) bytes by db_bench's accounting; every other op counts the keys
// and values it touched.
func (w *worker) exec() (isRead bool) {
	op := &w.op
	var err error
	switch op.Kind {
	case 'G':
		if err = w.t.get(op.CF, op.Key); isMiss(err) {
			w.readMiss++
			err = nil
		}
		w.bytes += int64(len(op.Key))
	case 'M':
		for cf, keys := range op.Keys {
			if len(keys) == 0 {
				continue
			}
			vals, errs := w.t.multiGet(cf, keys)
			for i := range keys {
				if isMiss(errs[i]) {
					w.readMiss++
				} else if errs[i] != nil {
					err = errs[i]
				}
				w.bytes += int64(len(keys[i]) + len(vals[i]))
			}
		}
	case 'S':
		var n int64
		n, err = w.t.scan(op.CF, op.Key, op.ScanLen)
		w.bytes += n
	case 'P':
		val := w.values.Value(op.ValueLen)
		err = w.t.put(op.CF, op.Key, val)
		w.bytes += int64(len(op.Key) + len(val))
	case 'D':
		err = w.t.delete(op.CF, op.Key)
	}
	if err != nil {
		w.errs++
	}
	return op.Kind != 'P' && op.Kind != 'D'
}

// observe books one finished operation and its measured cost.
func (w *worker) observe(isRead bool, cost time.Duration) {
	if isRead {
		w.readHist.Add(cost)
	} else {
		w.writeHist.Add(cost)
	}
	w.ops++
}
