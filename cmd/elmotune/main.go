// Command elmotune runs the full tuning framework: the user states the
// expected workload, the framework loops prompt -> LLM -> safeguards ->
// benchmark -> flagger, and the best OPTIONS file is written at the end.
//
// Examples:
//
//	elmotune -workload fillrandom -sim hdd -profile 2+4 -scale 40 -out OPTIONS-tuned
//	elmotune -workload mixgraph -llm http://localhost:8080/v1 -model gpt-4 -key $KEY
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/finetune"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/mockllm"
	"repro/internal/server"
	"repro/internal/sysmon"
)

func main() {
	var (
		workload = flag.String("workload", "fillrandom", "expected workload: fillrandom, readrandom, readrandomwriterandom, mixgraph")
		sim      = flag.String("sim", "nvme", "simulated device: nvme, satassd, hdd")
		profile  = flag.String("profile", "4+8", "simulated hardware profile: 2+4, 2+8, 4+4, 4+8")
		scale    = flag.Int64("scale", 40, "simulation scale divisor")
		seed     = flag.Int64("seed", 42, "seed")
		iters    = flag.Int("iters", 7, "max tuning iterations")
		out      = flag.String("out", "OPTIONS-tuned", "path for the final OPTIONS file")
		fine     = flag.Bool("finetune", false, "after the LLM session, hill-climb numeric knobs (the paper's proposed extension)")
		real     = flag.Bool("real", false, "benchmark on the real filesystem instead of the simulator")
		dbDir    = flag.String("db", "", "database directory for -real (default: a temp dir)")
		num      = flag.Int64("num", 100000, "operations per benchmark run with -real")
		llmURL   = flag.String("llm", "", "OpenAI-compatible endpoint (default: in-process mock expert)")
		llmKey   = flag.String("key", "", "API key for -llm")
		model    = flag.String("model", "gpt-4", "model name for -llm")
		metricsA = flag.String("metrics_addr", "", "serve Prometheus /metrics for the live iteration's engine (e.g. :9090)")
		traceF   = flag.String("trace", "", "write the tuning-loop JSONL trace (one record per iteration) to this file")
		cfList   = flag.String("column_family", "", "comma-separated column families to benchmark and tune alongside \"default\"")
		live     = flag.Bool("live", false, "retune a RUNNING kvserver in place via SetOptions (requires -server)")
		srvAddr  = flag.String("server", "", "kvserver address for -live, e.g. 127.0.0.1:4930")
		window   = flag.Duration("window", 3*time.Second, "observation window per live round (-live)")
		watch    = flag.Int("watch", 0, "post-tuning watch windows; drift past 0.5 re-triggers a live retune (-live)")
		insightF = flag.String("insights", "", "cross-session insight memory file (JSON); best configs are recalled for similar workloads")
	)
	flag.Parse()
	var cfNames []string
	if *cfList != "" {
		cfNames = strings.Split(*cfList, ",")
	}

	dev, err := device.ByName(*sim)
	if err != nil {
		fatal(err)
	}
	prof, err := device.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.Config{
		Scale:          *scale,
		Seed:           *seed,
		MaxIterations:  *iters,
		ColumnFamilies: cfNames,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		InsightPath: *insightF,
	}
	if *llmURL != "" {
		cfg.Client = llm.NewHTTPClient(*llmURL, *llmKey, *model)
	} else {
		cfg.Client = mockllm.NewExpert(*seed)
	}
	var exporter *metrics.Exporter
	if *metricsA != "" {
		exporter = metrics.NewExporter(nil)
		addr, _, err := metrics.Serve(*metricsA, exporter)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving Prometheus metrics on http://%s/metrics\n", addr)
		cfg.OnDB = func(db *lsm.DB) { exporter.Set(db) }
	}
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Trace = f
	}
	if *live {
		if *srvAddr == "" {
			fatal(fmt.Errorf("-live requires -server <addr>"))
		}
		runLive(cfg, *srvAddr, *workload, *iters, *window, *watch, *insightF, *traceF, *out, cfNames)
		return
	}
	// The simulator and -real differ only in the runner and the host monitor;
	// the session and the hill climb run on runners of the same kind.
	var newRunner func() core.ConfigRunner
	var monitor sysmon.Monitor
	if *real {
		base := *dbDir
		if base == "" {
			base, err = os.MkdirTemp("", "elmotune-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(base)
		}
		fmt.Fprintf(os.Stderr, "ELMo-Tune: %s on the REAL filesystem under %s, up to %d iterations, model %s\n",
			*workload, base, *iters, cfg.Client.Name())
		// Real files run unscaled, in wall time.
		cfg.Scale = 1
		newRunner = func() core.ConfigRunner {
			return &experiments.OSRunner{BaseDir: base, Workload: *workload, Ops: *num, Seed: *seed, OnDB: cfg.OnDB, ColumnFamilies: cfNames}
		}
		monitor = sysmon.NewOSMonitor()
	} else {
		fmt.Fprintf(os.Stderr, "ELMo-Tune: %s on %s (%s), up to %d iterations, model %s\n",
			*workload, dev.Kind, prof.Name, *iters, cfg.Client.Name())
		newRunner = func() core.ConfigRunner {
			return &experiments.SimRunner{Device: dev, Profile: prof, Workload: *workload, Cfg: cfg}
		}
		monitor = &experiments.HostMonitor{Device: dev, Profile: prof}
	}
	session, err := experiments.RunSessionOn(context.Background(), newRunner(), monitor, *workload, cfg)
	if err != nil {
		fatal(err)
	}
	res := session.Result
	fmt.Printf("\nBaseline: %.0f ops/sec (p99 write %.2fus, p99 read %.2fus)\n",
		res.BaselineMetrics.Throughput, res.BaselineMetrics.P99Write, res.BaselineMetrics.P99Read)
	fmt.Printf("Tuned:    %.0f ops/sec (p99 write %.2fus, p99 read %.2fus)\n",
		res.BestMetrics.Throughput, res.BestMetrics.P99Write, res.BestMetrics.P99Read)
	fmt.Printf("Improvement: %.2fx throughput over %d iterations\n",
		res.ImprovementFactor(), len(res.Iterations))
	for _, it := range res.Iterations {
		status := "kept"
		if !it.Kept {
			status = "reverted"
		}
		fmt.Printf("  iteration %d: %.0f ops/sec (%s, %d changes applied)\n",
			it.Number, it.Metrics.Throughput, status, len(it.AppliedDiff))
	}
	best := res.BestConfig
	if *fine {
		fmt.Fprintln(os.Stderr, "\nfine-tuning the LLM's configuration (hill climb)...")
		ft, err := finetune.Run(context.Background(), finetune.Config{
			Runner:       newRunner(),
			Start:        best,
			StartMetrics: res.BestMetrics,
			Logf:         cfg.Logf,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fine-tuned: %.0f ops/sec after %d extra trials (%.2fx over baseline)\n",
			ft.BestMetrics.Throughput, ft.Trials, ft.ImprovementOver(res.BaselineMetrics))
		best = ft.Best
	}
	if err := best.ToINI().Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote tuned configuration to %s\n", *out)
}

// runLive retunes a running kvserver in place: accepted changes land through
// the SetOptions wire op — never a restart — and the loop keeps watching for
// workload drift afterwards.
func runLive(cfg experiments.Config, addr, workload string, rounds int, window time.Duration, watch int, insightPath, traceF, out string, cfNames []string) {
	client, err := server.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	var trace *core.TraceWriter
	if traceF != "" {
		f, err := os.Create(traceF)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		trace = core.NewTraceWriter(f)
	}
	fmt.Fprintf(os.Stderr, "ELMo-Tune LIVE: retuning kvserver at %s (%s windows, %d round(s), watch %d), model %s\n",
		addr, window, rounds, watch, cfg.Client.Name())
	res, err := core.RunLive(context.Background(), core.LiveConfig{
		Client:        cfg.Client,
		Target:        newServerTarget(client, cfNames),
		Monitor:       sysmon.NewOSMonitor(),
		WorkloadName:  workload,
		ObserveWindow: window,
		MaxRounds:     rounds,
		WatchWindows:  watch,
		InsightPath:   insightPath,
		Logf:          cfg.Logf,
		Trace:         trace,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nLive retuning: %d round(s), %d drift-triggered, best %.0f ops/sec\n",
		len(res.Rounds), res.DriftRetunes, res.BestThroughput)
	for _, r := range res.Rounds {
		status := "kept"
		if !r.Kept {
			status = "rolled back"
		}
		if len(r.AppliedDiff) == 0 {
			status = "no change"
		}
		fmt.Printf("  round %d (%s): %d change(s) %s", r.Number, r.Trigger, len(r.AppliedDiff), status)
		if r.ApplyMode != "" {
			fmt.Printf(" via %s, downtime %s", r.ApplyMode, r.Downtime)
		}
		fmt.Println()
	}
	if out != "" {
		if err := res.FinalConfig.ToINI().Save(out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote live-tuned configuration to %s\n", out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elmotune:", err)
	os.Exit(1)
}
