package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/lsm"
	"repro/internal/server"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	for name, spec := range kvSpecs {
		a := streamHash(spec.mix, 42, 4, 2000)
		if b := streamHash(spec.mix, 42, 4, 2000); a != b {
			t.Errorf("%s: same seed gave different op streams (%x, %x)", name, a, b)
		}
		if b := streamHash(spec.mix, 43, 4, 2000); a == b {
			t.Errorf("%s: seeds 42 and 43 gave the same op stream", name)
		}
	}
}

func TestOpStreamFollowsMix(t *testing.T) {
	m := kvSpecs["mixed"].mix
	s := newOpStream(m, nil, 1, 0)
	var byKind [3]int
	const n = 100_000
	for i := 0; i < n; i++ {
		o := s.next()
		if o.id >= m.keys {
			t.Fatalf("id %d outside the keyspace", o.id)
		}
		byKind[o.kind]++
	}
	for kind, want := range map[opKind]int{opGet: m.getPct, opPut: m.putPct, opScan: 100 - m.getPct - m.putPct} {
		if got := 100 * float64(byKind[kind]) / n; math.Abs(got-float64(want)) > 1 {
			t.Errorf("%s share %.1f %%, want %d %%", opKindNames[kind], got, want)
		}
	}
}

func TestZipfIsSkewedAndScatterIsABijection(t *testing.T) {
	const n = 1000
	z := newZipf(n, 0.99)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < 200_000; i++ {
		counts[z.rank(rng.Float64())]++
	}
	if counts[0] < 5*counts[9] || counts[9] < 5*counts[99] {
		t.Errorf("ranks 0, 9, 99 drawn %d, %d, %d times: not Zipf(0.99)-like", counts[0], counts[9], counts[99])
	}
	seen := make([]bool, 120_000)
	for r := uint64(0); r < 120_000; r++ {
		id := scatter(r, 120_000)
		if seen[id] {
			t.Fatalf("scatter maps two ranks onto id %d", id)
		}
		seen[id] = true
	}
}

func TestKeysSortLikeIDs(t *testing.T) {
	ids := []uint64{0, 9, 10, 99, 100, 119_999, 1 << 40}
	var prev []byte
	for _, id := range ids {
		key := appendKey(nil, id)
		if len(key) != keySize {
			t.Fatalf("key of %d has %d bytes", id, len(key))
		}
		if got, ok := keyID(key); !ok || got != id {
			t.Errorf("keyID(appendKey(%d)) = %d, %v", id, got, ok)
		}
		if prev != nil && string(prev) >= string(key) {
			t.Errorf("key of %d does not sort after its predecessor", id)
		}
		prev = key
	}
	if _, ok := keyID([]byte("k00000000000000x")); ok {
		t.Error("keyID accepted a non-digit")
	}
}

func TestVerifyValue(t *testing.T) {
	v := appendValue(nil, 7, 0xdeadbeef)
	if err := verifyValue(7, v); err != nil {
		t.Fatalf("fresh value rejected: %v", err)
	}
	if err := verifyValue(8, v); err == nil {
		t.Error("value of key 7 accepted for key 8")
	}
	if err := verifyValue(7, v[:valueSize-1]); err == nil {
		t.Error("short value accepted")
	}
	// Any single corrupted byte must be caught, wherever it is.
	for _, i := range []int{0, 8, 16, headSize, headSize + fillSize - 1, headSize + fillSize, valueSize - 1} {
		bad := append([]byte(nil), v...)
		bad[i] ^= 0x40
		if err := verifyValue(7, bad); err == nil {
			t.Errorf("corruption at byte %d accepted", i)
		}
	}
	// A reused buffer must not leak the previous value into the zero tail.
	buf := appendValue(make([]byte, 0, valueSize), 1, ^uint64(0))
	for i := range buf {
		buf[i] = 0xff
	}
	if err := verifyValue(2, appendValue(buf[:0], 2, 5)); err != nil {
		t.Errorf("value built in a dirty buffer rejected: %v", err)
	}
}

func TestVerifyScan(t *testing.T) {
	const keys = 100
	pairsFrom := func(id uint64, n int) []server.KV {
		var out []server.KV
		for i := 0; i < n; i++ {
			out = append(out, server.KV{Key: appendKey(nil, id+uint64(i)), Value: appendValue(nil, id+uint64(i), 3)})
		}
		return out
	}
	if err := verifyScan(10, keys, pairsFrom(10, scanLimit)); err != nil {
		t.Errorf("full scan rejected: %v", err)
	}
	if err := verifyScan(95, keys, pairsFrom(95, 5)); err != nil {
		t.Errorf("scan cut short by the end of the keyspace rejected: %v", err)
	}
	if err := verifyScan(10, keys, pairsFrom(10, scanLimit-1)); err == nil {
		t.Error("scan missing a pair accepted")
	}
	if err := verifyScan(10, keys, pairsFrom(11, scanLimit)); err == nil {
		t.Error("scan starting at the wrong key accepted")
	}
	bad := pairsFrom(10, scanLimit)
	bad[4].Value[100] ^= 1
	if err := verifyScan(10, keys, bad); err == nil {
		t.Error("scan with a corrupt value accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	// call [0,100) contains encode 10, router 40 (which contains engine 25)
	// and decode 5; gen stands alone. A child longer than its parent (the
	// ladder times them on different keys) leaves the parent negative.
	spans := []span{
		{name: spGen, parent: -1, start: 0, end: 3},
		{name: spCall, parent: -1, start: 10, end: 110},
		{name: spEncodeReq, parent: 1, start: 200, end: 210},
		{name: spRouterGet, parent: 1, start: 220, end: 260},
		{name: spLsmGet, parent: 3, start: 300, end: 325},
		{name: spDecodeResp, parent: 1, start: 400, end: 405},
		{name: spRouterPut, parent: -1, start: 500, end: 510},
		{name: spLsmPut, parent: 6, start: 600, end: 630},
	}
	want := []int64{3, 45, 10, 15, 25, 5, -20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spanLabels[spans[i].name], got[i], want[i])
		}
	}
	l := sumLayers(spans)
	if l[spCall].count != 1 || l[spCall].total != 100 || l[spCall].self != 45 {
		t.Errorf("call layer = %+v", l[spCall])
	}
	if r := add(l[spRouterGet], l[spRouterPut]); r.count != 2 || r.total != 50 || r.self != -5 {
		t.Errorf("router layers = %+v", r)
	}
	// The self times of one request's tree add up to its root's duration.
	if sum := got[1] + got[2] + got[3] + got[4] + got[5]; sum != 100 {
		t.Errorf("self times under the call sum to %d, want 100", sum)
	}
}

// TestLayerSelfIsDifferenceOfTotals is the ladder's case: parent and child
// rungs are timed on independent keys, so the child is often the longer of
// the two. The layer's self time must be the parent total minus the child
// total; clamping each span at zero first would report far more.
func TestLayerSelfIsDifferenceOfTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var spans []span
	var parents, children, clamped int64
	now := int64(0)
	for op := uint32(0); op < 5000; op++ {
		// Both rungs 5..45, independent: the child is longer half the time.
		p, c := 5+rng.Int63n(41), 5+rng.Int63n(41)
		spans = append(spans, span{name: spRouterGet, parent: -1, op: op, start: now, end: now + p})
		now += p
		spans = append(spans, span{name: spLsmGet, parent: int32(len(spans) - 1), op: op, start: now, end: now + c})
		now += c
		parents += p
		children += c
		clamped += max(p-c, 0)
	}
	l := sumLayers(spans)
	if l[spRouterGet].self != parents-children {
		t.Errorf("router self %d, want %d - %d = %d", l[spRouterGet].self, parents, children, parents-children)
	}
	if l[spLsmGet].self != children {
		t.Errorf("engine self %d, want its total %d", l[spLsmGet].self, children)
	}
	if clamped < 10*max(parents-children, children-parents) {
		t.Fatalf("test data does not separate the two definitions (clamped %d, difference %d)", clamped, parents-children)
	}
}

func TestTickerWatch(t *testing.T) {
	s := lsm.NewStatistics()
	s.Add(lsm.TickerBytesWritten, 100)
	w := watchTickers(s, 1000)
	s.Add(lsm.TickerBytesWritten, 400)
	s.Add(lsm.TickerWALBytes, 7)
	time.Sleep(20 * time.Millisecond) // several polls below the target
	s.Add(lsm.TickerBytesWritten, 500)
	<-w.done
	// Counted after the watch fired: must not be in what it kept.
	s.Add(lsm.TickerWALBytes, 1000)
	at, hit := w.finish()
	if !hit || at[lsm.TickerBytesWritten] != 1000 || at[lsm.TickerWALBytes] != 7 {
		t.Errorf("watch kept bytes %d, wal %d, hit %v; want 1000, 7, true", at[lsm.TickerBytesWritten], at[lsm.TickerWALBytes], hit)
	}
	if _, hit := watchTickers(s, 1<<40).finish(); hit {
		t.Error("watch reports a target that was never reached")
	}
}

func TestLatHistPercentiles(t *testing.T) {
	var h latHist
	var all []float64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200_000; i++ {
		d := time.Duration(math.Exp(rng.NormFloat64()+11)) + 1 // log-normal around 60 us
		h.record(d)
		all = append(all, float64(d)/1e3)
	}
	sort.Float64s(all)
	for _, p := range []float64{50, 99, 99.9} {
		exact := all[int(p/100*float64(len(all)))]
		if got := h.percentileUS(p); math.Abs(got-exact)/exact > 0.02 {
			t.Errorf("p%v = %.2f us, exact %.2f us", p, got, exact)
		}
	}
	var merged latHist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.percentileUS(50) != h.percentileUS(50) {
		t.Error("merging a histogram with itself changed its median")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32, 64})
	if q1 != 2 || q2 != 8 || q3 != 32 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := worsening(100, 90, "higher"); got != 0.1 {
		t.Errorf("worsening(higher) = %v", got)
	}
	if got := worsening(100, 90, "lower"); got != -0.1 {
		t.Errorf("worsening(lower) = %v", got)
	}
}

// TestBenchmarkJSONMatchesDriver applies the check every run starts with to
// the committed contract file.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	f, err := loadBenchmarkFile("../" + benchmarkFilePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.check(); err != nil {
		t.Error(err)
	}
	for _, w := range f.Workloads {
		if w.Name != "tune" && kvSpecs[w.Name].mix.keys == 0 {
			t.Errorf("workload %s has no spec", w.Name)
		}
	}
	for _, l := range spanLabels {
		if _, ok := perLayerUnits[l+"_us"]; !ok {
			t.Errorf("span %s has no per-layer metric", l)
		}
	}
}

// TestCheckRejectsDrift: a contract file that names a metric the program does
// not emit, omits one it does, or reorders the workloads must not pass.
func TestCheckRejectsDrift(t *testing.T) {
	load := func() *benchmarkFile {
		f, err := loadBenchmarkFile("../" + benchmarkFilePath)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := load()
	f.EndToEnd[1].Name = "ops_per_sec"
	if f.check() == nil {
		t.Error("renamed end-to-end metric accepted")
	}
	f = load()
	f.PerLayer = f.PerLayer[1:]
	if f.check() == nil {
		t.Error("missing per-layer metric accepted")
	}
	f = load()
	f.Workloads[0], f.Workloads[1] = f.Workloads[1], f.Workloads[0]
	if f.check() == nil {
		t.Error("reordered workloads accepted")
	}
	f = load()
	f.EndToEnd[0].Bound = 0.3
	if f.check() == nil {
		t.Error("bound above 0.25 accepted")
	}
}
