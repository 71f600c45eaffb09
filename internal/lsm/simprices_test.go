package lsm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSimPricesNameBenchmarks: every row of the simulator's price table is
// positive and names a Benchmark* function of this package that measures
// its real counterpart, or says unmeasured.
func TestSimPricesNameBenchmarks(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	benches := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				benches[fn.Name.Name] = true
			}
		}
	}
	v := reflect.ValueOf(simPrices)
	var unmeasuredRows []string
	for i := 0; i < v.NumField(); i++ {
		row, name := v.Field(i), v.Type().Field(i).Name
		if price := row.Field(0).Int(); price <= 0 {
			t.Errorf("row %s: price %d, want > 0", name, price)
		}
		switch bench := row.FieldByName("bench").String(); {
		case bench == unmeasured:
			unmeasuredRows = append(unmeasuredRows, name)
		case !benches[bench]:
			t.Errorf("row %s names %q, which is not a Benchmark* function of this package", name, bench)
		}
	}
	t.Logf("%d rows, %d unmeasured: %s", v.NumField(), len(unmeasuredRows), strings.Join(unmeasuredRows, ", "))
}

// BenchmarkIteratorSeekNext measures the iterator against flushed tables
// with a warm block cache: Seek is one Seek to a key (the iterSeek row),
// Next one step forward (the iterNext row).
func BenchmarkIteratorSeekNext(b *testing.B) {
	db, keys := openAllocBenchDB(b, 4096, nil)
	defer db.Close()
	b.Run("Seek", func(b *testing.B) {
		it := db.NewIterator(nil)
		defer it.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it.Seek(keys[i%len(keys)])
			if !it.Valid() {
				b.Fatal("seek to a present key is not valid")
			}
		}
	})
	b.Run("Next", func(b *testing.B) {
		it := db.NewIterator(nil)
		defer it.Close()
		it.SeekToFirst()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it.Next()
			if !it.Valid() {
				it.SeekToFirst()
			}
		}
	})
}

// BenchmarkBloomMayContain measures one probe of a table's bloom filter at
// 10 bits per key (the bloomProbe row), over keys half present, half absent.
func BenchmarkBloomMayContain(b *testing.B) {
	const n = 4096
	bf := newBloomFilter(10)
	probes := make([][]byte, 2*n)
	for i := range probes {
		probes[i] = []byte(fmt.Sprintf("key%08d", i))
		if i < n {
			bf.add(probes[i])
		}
	}
	filter := bf.build()
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bloomMayContain(filter, probes[i%len(probes)]) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}
