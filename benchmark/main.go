// Command benchmark is the repository's performance benchmark: four
// workloads, each run end to end with tracing off (--trace 0) or as a traced
// run that times every layer from outside through its public entry points
// (--trace 1). README.md in this directory defines every workload and
// metric; BENCHMARK.json at the repository root is the contract with the
// driver that runs it.
//
//	bash benchmark/run.sh --workload mixed --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh --selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var workloadNames = []string{"overwrite", "readhot", "mixed", "tune"}

// The load shape is part of the benchmark's definition, not a setting: two
// runs that report the same metric names must have measured the same thing.
const (
	shards         = 2 // engine shards behind the router
	callersPerConn = 8 // blocking callers per connection
	selfCheckRuns  = 10
)

// conns is the number of client connections: one per CPU.
func conns() int { return runtime.NumCPU() }

func callers() int { return conns() * callersPerConn }

// runConfig is one invocation's settings: what the driver passes, and where
// the run may write.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string
	outDir   string
}

// setupRounds is how many times the run sets its workload up. An untraced
// run reports the median of three; a traced run reports no set-up time.
func (c *runConfig) setupRounds() int {
	if c.trace {
		return 1
	}
	return 3
}

// units is the metric set this run must report: exactly these names.
func (c *runConfig) units() map[string]string {
	if c.trace {
		return perLayerUnits
	}
	return endToEndUnits
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	problems          []string
	metrics           metrics
	notes             map[string]any
}

func newResult() *result { return &result{metrics: metrics{}, notes: map[string]any{}} }

func (r *result) note(k string, v any) { r.notes[k] = v }

// fail records a correctness failure that is not one failed operation.
func (r *result) fail(msg string) {
	r.problems = append(r.problems, msg)
}

func (r *result) count(l *loadResult) {
	r.attempted += l.ops
	r.failed += l.failed
	r.problems = append(r.problems, l.firstFailures...)
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func main() {
	c := &runConfig{}
	var trace int
	var selfcheck bool
	var benchOut string
	flag.StringVar(&c.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&c.seed, "seed", 42, "seed of the generated inputs")
	flag.Float64Var(&c.seconds, "seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&c.dataDir, "dir", filepath.Join(".bench_build", "data"), "scratch directory for the stores")
	flag.StringVar(&c.outDir, "out", filepath.Join("benchmark", "out"), "directory for span files and full results")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two sets of ten runs and compare them against the bounds in BENCHMARK.json")
	flag.StringVar(&benchOut, "bench_out", "", "with -selfcheck: also write the first set's medians and one traced run per workload to this file")
	flag.Parse()
	c.trace = trace != 0

	spec, err := loadBenchmarkFile(benchmarkFilePath)
	if err == nil {
		err = spec.check()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if c.seconds == 0 {
		c.seconds = float64(spec.RunSeconds)
	}
	if selfcheck {
		os.Exit(selfCheck(c, spec, benchOut))
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(c *runConfig) error {
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	calibBefore := calibrate()
	var res *result
	var err error
	switch {
	case c.workload == "tune":
		res, err = runTune(c)
	case kvSpecs[c.workload].mix.keys > 0:
		res, err = runKV(c)
	default:
		return fmt.Errorf("unknown -workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return err
	}
	calibAfter := calibrate()

	// The drift sentinel: the same pure-CPU loop before and after the run.
	// If its two readings disagree the machine changed speed under the run,
	// and a difference from another run is not evidence about the program.
	drift := float64(calibAfter-calibBefore) / float64(calibBefore)
	noisy := drift > 0.10 || drift < -0.10
	if c.trace {
		res.metrics.set("trace.calib_ms", float64(calibBefore.Microseconds())/1e3, "ms")
		res.metrics.set("trace.calib_drift_frac", drift, "ratio")
		res.metrics.complete(perLayerUnits)
	}
	if err := res.metrics.matches(c.units()); err != nil {
		return err
	}

	stamp := map[string]any{
		"workload":         c.workload,
		"trace":            c.trace,
		"seed":             c.seed,
		"seconds":          c.seconds,
		"git_sha":          gitSHA(),
		"go_version":       runtime.Version(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"shards":           shards,
		"connections":      conns(),
		"callers_per_conn": callersPerConn,
		"data_dir":         c.dataDir,
		"out_dir":          c.outDir,
		"setup_rounds":     c.setupRounds(),
		"calib_ms":         []float64{float64(calibBefore.Microseconds()) / 1e3, float64(calibAfter.Microseconds()) / 1e3},
		"noisy":            noisy,
		"time":             time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range res.notes {
		stamp[k] = v
	}

	for _, name := range sortedNames(res.metrics) {
		m := res.metrics[name]
		fmt.Printf("%-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v", res.attempted, res.failed, res.correct())
	if noisy {
		fmt.Printf(", NOISY (calibration loop drifted %+.1f %% across the run)", 100*drift)
	}
	fmt.Println()
	for _, p := range res.problems {
		fmt.Println("problem:", p)
	}

	line := map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}
	full := map[string]any{"stamp": stamp, "result": line}
	mode := "e2e"
	if c.trace {
		mode = "layers"
	}
	if err := writeJSON(filepath.Join(c.outDir, fmt.Sprintf("result_%s_%s.json", c.workload, mode)), full); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitSHA names the commit being measured, or "unknown" outside a git
// checkout (the benchmark driver runs from an exported tree).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
