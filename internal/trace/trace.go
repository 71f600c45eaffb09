// Package trace records and replays key-value operation traces, in the
// spirit of the RocksDB trace_replay tooling and of the production-trace
// methodology behind mixgraph (Cao et al., FAST'20). A trace is a plain
// text file, one operation per line:
//
//	P <key> <value_size>    put
//	G <key>                 get
//	D <key>                 delete
//	S <key> <scan_length>   seek + iterate
//	M <key> <key>...        multiget
//
// A record is a bench.Op written out. Generate serialises the op streams the
// live runner would execute for a bench.Spec; Replay parses lines back into
// ops and hands them to the runner's own driver, so a replay is measured and
// reported exactly like a live workload.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/lsm"
)

// Writer emits trace lines.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (t *Writer) line(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
	t.n++
}

// Put records a put of key with a value of the given size.
func (t *Writer) Put(key string, valueSize int) { t.line("P %s %d\n", key, valueSize) }

// Get records a point lookup.
func (t *Writer) Get(key string) { t.line("G %s\n", key) }

// Delete records a tombstone write.
func (t *Writer) Delete(key string) { t.line("D %s\n", key) }

// Scan records a seek + iterate.
func (t *Writer) Scan(key string, n int) { t.line("S %s %d\n", key, n) }

// op records one operation of a workload's op stream.
func (t *Writer) op(op *bench.Op) {
	switch op.Kind {
	case 'P':
		t.Put(string(op.Key), op.ValueLen)
	case 'G':
		t.Get(string(op.Key))
	case 'D':
		t.Delete(string(op.Key))
	case 'S':
		t.Scan(string(op.Key), op.ScanLen)
	case 'M':
		var b strings.Builder
		for _, keys := range op.Keys {
			for _, k := range keys {
				b.WriteByte(' ')
				b.Write(k)
			}
		}
		t.line("M%s\n", b.String())
	}
}

// Flush finishes the trace. It returns the first write error.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Ops returns the number of records written.
func (t *Writer) Ops() int64 { return t.n }

// Generate synthesizes a trace from a workload spec: the operation streams
// the live runner's threads would execute, interleaved round-robin.
func Generate(spec *bench.Spec, w io.Writer) (int64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	tw := NewWriter(w)
	srcs := spec.Sources()
	var op bench.Op
	for live := true; live; {
		live = false
		for _, src := range srcs {
			if src.Next(&op) == nil {
				tw.op(&op)
				live = true
			}
		}
	}
	return tw.Ops(), tw.Flush()
}

// parseLine parses one trace line into op ("" and # lines are skipped,
// returning ok=false).
func parseLine(line string, op *bench.Op) (ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return false, nil
	}
	bad := func() (bool, error) {
		return false, fmt.Errorf("trace: malformed line %q", line)
	}
	fields := strings.Fields(line)
	if len(fields[0]) != 1 || len(fields) < 2 {
		return bad()
	}
	*op = bench.Op{Kind: line[0], Key: append(op.Key[:0], fields[1]...)}
	switch op.Kind {
	case 'P':
		if len(fields) != 3 {
			return bad()
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			return bad()
		}
		op.ValueLen = n
	case 'G', 'D':
		if len(fields) != 2 {
			return bad()
		}
	case 'S':
		if len(fields) != 3 {
			return bad()
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			return bad()
		}
		op.ScanLen = n
	case 'M':
		keys := make([][]byte, len(fields)-1)
		for i, k := range fields[1:] {
			keys[i] = []byte(k)
		}
		op.Key, op.Keys = nil, [][][]byte{keys}
	default:
		return bad()
	}
	return true, nil
}

// lineSource is the op stream of a trace being read.
type lineSource struct {
	sc   *bufio.Scanner
	line int
}

// Next implements bench.OpSource.
func (s *lineSource) Next(op *bench.Op) error {
	for s.sc.Scan() {
		s.line++
		ok, err := parseLine(s.sc.Text(), op)
		if err != nil {
			return fmt.Errorf("%w (line %d)", err, s.line)
		}
		if ok {
			return nil
		}
	}
	if err := s.sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

// Replay executes a trace against db and reports db_bench-style metrics.
// In a simulation environment latencies come from the virtual clock. seed
// drives the bytes of the values put.
func Replay(db *lsm.DB, r io.Reader, seed int64) (*bench.Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return bench.Replay(db, &lineSource{sc: sc}, seed)
}
