// Command dbbench is the db_bench stand-in: it runs the paper's workloads
// against the LSM engine, on the real filesystem or on a simulated device,
// and prints a db_bench-style report.
//
// Examples:
//
//	dbbench -benchmarks fillrandom -num 100000 -db /tmp/bench-db
//	dbbench -benchmarks mixgraph -num 500000 -sim nvme -profile 4+4 -scale 40
//	dbbench -benchmarks readrandom -num 100000 -sim hdd -options OPTIONS.ini
//	dbbench -benchmarks readrandomwriterandom -num 200000 -column_family default,hot
//	dbbench -server 127.0.0.1:6380 -benchmarks readmulti -num 100000 -connections 64
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ini"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	var (
		benchmarks = flag.String("benchmarks", "fillrandom", "workload: fillrandom, readrandom, readrandomwriterandom, mixgraph")
		num        = flag.Int64("num", 100000, "operations (reads for readrandom)")
		valueSize  = flag.Int("value_size", 400, "value size in bytes")
		dbPath     = flag.String("db", "", "database directory (OS filesystem mode; empty = in-memory simulation)")
		sim        = flag.String("sim", "nvme", "simulated device when -db is empty: nvme, satassd, hdd")
		profile    = flag.String("profile", "4+8", "simulated hardware profile: 2+4, 2+8, 4+4, 4+8")
		scale      = flag.Int64("scale", 1, "simulation scale divisor for memory and byte-valued options")
		seed       = flag.Int64("seed", 42, "workload seed")
		optsFile   = flag.String("options", "", "load an OPTIONS ini file (incl. CFOptions sections) instead of db_bench defaults")
		cfList     = flag.String("column_family", "", "comma-separated column families to spread workload traffic across (created if missing)")
		stats      = flag.Bool("statistics", false, "print engine statistics after the run")
		perfLevel  = flag.String("perf_level", "", "per-operation profiling level: disable, enable_count, enable_time (prints a PerfContext/IOStatsContext profile at exit)")
		traceOut   = flag.String("trace_out", "", "synthesize the workload into a trace file and exit (no benchmark)")
		traceIn    = flag.String("trace_in", "", "replay a trace file instead of running -benchmarks")
		metricsA   = flag.String("metrics_addr", "", "serve Prometheus /metrics on this address while the benchmark runs (e.g. :9090)")
		jsonTrace  = flag.String("trace", "", "append one JSON benchmark record (ops/sec, P99s, stats dump, histograms) to this file")
		serverAddr = flag.String("server", "", "drive a kvserver at this address instead of an embedded DB (client mode)")
		conns      = flag.Int("connections", 8, "client mode: number of pipelined TCP connections")
		pipeDepth  = flag.Int("pipeline", 4, "client mode: concurrent in-flight requests per connection")
		mgetBatch  = flag.Int("multiget_batch", 0, "override MultiGet batch size (>0 turns reads into MultiGets)")
		applyCyc   = flag.Int("apply_downtime_cycles", 0, "measure config-apply downtime instead of a workload: flip write_buffer_size this many times under write load, once via live SetOptions and once via close/reopen, and print the downtime histogram")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		gcSum      = flag.Bool("gc_summary", false, "print a GC/allocation summary (runtime.ReadMemStats) to stderr at exit")
	)
	flag.Parse()

	stopProfiling := startProfiling(*cpuProf, *memProf, *gcSum)
	defer stopProfiling()

	// Open the trace file before the (possibly long) run so a bad path
	// fails immediately, not after the benchmark.
	var traceFile *os.File
	if *jsonTrace != "" {
		f, err := os.OpenFile(*jsonTrace, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		traceFile = f
	}

	cfg := lsm.NewConfigSet(lsm.DBBenchDefaults())
	if *optsFile != "" {
		doc, err := ini.Load(*optsFile)
		if err != nil {
			fatal(err)
		}
		loaded, unknown, err := lsm.ConfigSetFromINI(doc)
		if err != nil {
			fatal(err)
		}
		for _, u := range unknown {
			fmt.Fprintf(os.Stderr, "warning: unknown option %q ignored\n", u)
		}
		cfg = loaded
	}

	if *perfLevel != "" {
		if _, err := lsm.ParsePerfLevel(*perfLevel); err != nil {
			fatal(err)
		}
		cfg.Default.PerfLevel = *perfLevel
	}

	// Client mode: drive a running kvserver over TCP instead of opening an
	// embedded database. Every workload spec works unchanged; reads become
	// MultiGets when the spec (or -multiget_batch) says so.
	if *serverAddr != "" {
		spec, err := bench.WorkloadByName(*benchmarks, *num, *valueSize, *seed)
		if err != nil {
			fatal(err)
		}
		if *cfList != "" {
			spec.ColumnFamilies = strings.Split(*cfList, ",")
		}
		if *mgetBatch > 0 {
			spec.MultiGetBatch = *mgetBatch
		}
		rep, err := (&bench.NetRunner{
			Addr:        *serverAddr,
			Connections: *conns,
			Pipeline:    *pipeDepth,
			Spec:        spec,
		}).Run()
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Format())
		if *stats && rep.StatsDump != "" {
			fmt.Println("\nSERVER STATISTICS:")
			fmt.Print(rep.StatsDump)
		}
		writeTraceRecord(traceFile, rep, *jsonTrace)
		failOnErrors(rep)
		return
	}

	dir := *dbPath
	if dir == "" {
		dev, err := device.ByName(*sim)
		if err != nil {
			fatal(err)
		}
		prof, err := device.ProfileByName(*profile)
		if err != nil {
			fatal(err)
		}
		env := lsm.NewScaledSimEnv(dev, prof, *scale, *seed)
		cfg = cfg.Scaled(*scale)
		cfg.Default.Env = env
		dir = "/dbbench"
		fmt.Fprintf(os.Stderr, "simulating %s on %s (scale 1/%d)\n", prof.Name, dev.Kind, *scale)
	}

	if *traceOut != "" {
		spec, err := bench.WorkloadByName(*benchmarks, *num, *valueSize, *seed)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		n, err := trace.Generate(spec, f)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d-op %s trace to %s\n", n, spec.Name, *traceOut)
		return
	}

	db, err := lsm.OpenConfig(dir, cfg)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	if *metricsA != "" {
		addr, _, err := metrics.Serve(*metricsA, metrics.NewExporter(db))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving Prometheus metrics on http://%s/metrics\n", addr)
	}

	if *applyCyc > 0 {
		runApplyDowntime(dir, db, *applyCyc)
		return
	}

	var rep *bench.Report
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rep, err = trace.Replay(db, f, *seed)
		if err != nil {
			fatal(err)
		}
	} else {
		spec, err := bench.WorkloadByName(*benchmarks, *num, *valueSize, *seed)
		if err != nil {
			fatal(err)
		}
		if *cfList != "" {
			spec.ColumnFamilies = strings.Split(*cfList, ",")
		}
		rep, err = (&bench.Runner{DB: db, Spec: spec}).Run()
		if err != nil {
			fatal(err)
		}
	}
	fmt.Print(rep.Format())
	if *stats {
		fmt.Println("\nSTATISTICS:")
		fmt.Print(db.Statistics().String())
	}
	if db.PerfContext().Level() != lsm.PerfDisable {
		fmt.Println("\nPER-OPERATION PROFILE (PerfContext):")
		fmt.Print(db.PerfContext().String())
		fmt.Println("\nI/O PROFILE (IOStatsContext):")
		fmt.Print(db.IOStats().String())
	}
	if rep.WorkloadSnap != nil {
		fmt.Println("\nWORKLOAD CHARACTERIZATION:")
		fmt.Println(rep.WorkloadSnap.String())
	}
	writeTraceRecord(traceFile, rep, *jsonTrace)
	failOnErrors(rep)
}

// failOnErrors exits non-zero when the store failed operations: the report
// above is printed either way, but its throughput is not a measurement.
func failOnErrors(rep *bench.Report) {
	if rep.Errors > 0 {
		fatal(fmt.Errorf("%d of %d operations failed", rep.Errors, rep.Ops))
	}
}

// writeTraceRecord appends the report as a JSON benchmark record when -trace
// was given (traceFile nil otherwise).
func writeTraceRecord(traceFile *os.File, rep *bench.Report, path string) {
	if traceFile == nil {
		return
	}
	rec := core.TraceRecord{
		Kind:           "benchmark",
		Workload:       rep.Workload,
		OpsPerSec:      rep.Throughput,
		P99WriteMicros: rep.P99Write(),
		P99ReadMicros:  rep.P99Read(),
		Kept:           true,
		StatsDump:      rep.StatsDump,
		Histograms:     rep.HistogramDump,
		Tickers:        rep.Stats,
		WorkloadSnap:   rep.WorkloadSnap,
	}
	if err := json.NewEncoder(traceFile).Encode(rec); err != nil {
		fatal(err)
	}
	if err := traceFile.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "appended benchmark record to %s\n", path)
}

// runApplyDowntime quantifies what a configuration change costs a running
// instance: under a steady write load it flips write_buffer_size repeatedly,
// applying each flip twice — live through SetOptions and again through a full
// close/reopen — and prints both downtime distributions side by side (the
// numbers behind live retuning vs. the restart it replaces; see
// results/apply_downtime.txt).
func runApplyDowntime(dir string, db *lsm.DB, cycles int) {
	target := core.NewEmbeddedTarget(dir, db)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-%07d", w, i)
				// Errors during a reopen window ARE the downtime; keep going.
				_ = target.DB().Put(nil, []byte(key), val)
			}
		}(w)
	}

	base := target.DB().Options().WriteBufferSize
	sizes := []int64{base / 2, base}
	var inplace, reopen []time.Duration
	for c := 0; c < cycles; c++ {
		v := fmt.Sprintf("%d", sizes[c%2])
		start := time.Now()
		if err := target.ApplyLive("", map[string]string{"write_buffer_size": v}); err != nil {
			fatal(err)
		}
		inplace = append(inplace, time.Since(start))

		cfg, err := target.Config()
		if err != nil {
			fatal(err)
		}
		if err := cfg.Default.SetByName("write_buffer_size", v); err != nil {
			fatal(err)
		}
		start = time.Now()
		if err := target.Reopen(cfg); err != nil {
			fatal(err)
		}
		reopen = append(reopen, time.Since(start))
	}
	close(stop)
	wg.Wait()
	defer target.DB().Close()

	fmt.Printf("CONFIG-APPLY DOWNTIME (write_buffer_size flip under 4-writer load, %d cycles each)\n", cycles)
	fmt.Printf("%-9s %6s %12s %12s %12s %12s\n", "mode", "count", "avg", "p50", "p99", "max")
	printDowntime("in_place", inplace)
	printDowntime("reopen", reopen)
}

// printDowntime renders one mode's downtime distribution row.
func printDowntime(mode string, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	fmt.Printf("%-9s %6d %12s %12s %12s %12s\n",
		mode, len(sorted), sum/time.Duration(len(sorted)), pct(0.5), pct(0.99), sorted[len(sorted)-1])
}

// startProfiling wires -cpuprofile/-memprofile/-gc_summary. The returned
// function stops the CPU profile, writes the heap profile, and prints the GC
// summary; main defers it immediately after flag parsing so every exit path —
// embedded run, client mode, trace generation, and apply-downtime — is
// covered. fatal() exits without profiles, which is fine: a failed run has
// nothing worth profiling.
func startProfiling(cpuPath, memPath string, gcSummary bool) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", memPath)
		}
		if gcSummary {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(os.Stderr,
				"GC SUMMARY: total_alloc=%d B  mallocs=%d  frees=%d  heap_alloc=%d B  num_gc=%d  pause_total=%s\n",
				ms.TotalAlloc, ms.Mallocs, ms.Frees, ms.HeapAlloc, ms.NumGC,
				time.Duration(ms.PauseTotalNs))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbbench:", err)
	os.Exit(1)
}
