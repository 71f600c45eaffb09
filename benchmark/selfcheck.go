package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The A/A self-check measures the benchmark against itself the way its
// driver does: two sets of runs of the same binary, each run in a fresh
// process with its own seed. Within a set, a metric's spread is the distance
// between the first and third quartile of its values as a share of their
// median; between the sets, its drift is how much worse the second median is
// than the first. Both must stay within the metric's bound in
// BENCHMARK.json, or a regression of that size could not be told from noise.

// metricDef is one entry of end_to_end or per_layer in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// benchmarkFilePath is relative to the root of the checkout, which is where
// the driver (and run.sh) start the program.
const benchmarkFilePath = "BENCHMARK.json"

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// check holds the contract file to this program: the same workloads in the
// same order, and exactly the metrics a run emits, with the same units. Every
// run starts with it, so the two cannot drift apart unnoticed.
func (f *benchmarkFile) check() error {
	var errs []error
	bad := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	if len(f.Workloads) != len(workloadNames) {
		bad("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			bad("workload %d is %q", i, w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			bad("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	sets := []struct {
		kind    string
		defs    []metricDef
		units   map[string]string
		bounded bool
	}{
		{"end_to_end", f.EndToEnd, endToEndUnits, true},
		{"per_layer", f.PerLayer, perLayerUnits, false},
	}
	for _, set := range sets {
		seen := map[string]bool{}
		for _, d := range set.defs {
			if !metricName.MatchString(d.Name) || seen[d.Name] {
				bad("%s metric name %q is malformed or repeated", set.kind, d.Name)
			}
			seen[d.Name] = true
			if unit, ok := set.units[d.Name]; !ok {
				bad("%s metric %s is not emitted by the program", set.kind, d.Name)
			} else if unit != d.Unit {
				bad("%s metric %s: unit %q in BENCHMARK.json, %q in the program", set.kind, d.Name, d.Unit, unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				bad("%s metric %s: better = %q", set.kind, d.Name, d.Better)
			}
			if set.bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				bad("%s metric %s: bound %v", set.kind, d.Name, d.Bound)
			}
			if !set.bounded && d.Bound != 0 {
				bad("%s metric %s has a bound", set.kind, d.Name)
			}
		}
		for n := range set.units {
			if !seen[n] {
				bad("the program emits %s metric %s, which BENCHMARK.json does not list", set.kind, n)
			}
		}
	}
	if len(f.PerLayer) > 128 {
		bad("%d per-layer metrics, at most 128 allowed", len(f.PerLayer))
	}
	return errors.Join(errs...)
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (its default "exclusive" method), which is what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// worsening is how much worse b is than a, as a share of a, given which
// direction is better; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// childLine is the last line of a run's standard output.
type childLine struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runChild runs one workload once in a fresh process of this same binary.
func runChild(c *runConfig, workload string, seed int64, seconds int, trace int) (*childLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
		"-dir", c.dataDir, "-out", c.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line childLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result: %w", workload, seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s seed %d: run was not correct (%d of %d failed)", workload, seed, line.Failed, line.Attempted)
	}
	return &line, nil
}

// selfCheck returns the process's exit code.
func selfCheck(c *runConfig, spec *benchmarkFile, benchOut string) int {
	const runs = selfCheckRuns
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	began := time.Now()
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range spec.Workloads {
			values[set][w.Name] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				line, err := runChild(c, w.Name, c.seed+int64(1000*set+r), spec.RunSeconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for name, m := range line.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "set %d %s: %d runs done (%.0f s so far)\n", set+1, w.Name, runs, time.Since(began).Seconds())
		}
	}

	fmt.Printf("A/A self-check: 2 sets x %d runs x %d s per workload, seeds %d.. and %d.., %s\n",
		runs, spec.RunSeconds, c.seed, c.seed+1000, time.Now().UTC().Format(time.RFC3339))
	fmt.Printf("%-10s %-20s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median 1", "median 2", "spread1", "spread2", "drift", "bound", "verdict")
	breaches := 0
	for _, w := range spec.Workloads {
		for _, def := range spec.EndToEnd {
			a, b := values[0][w.Name][def.Name], values[1][w.Name][def.Name]
			if len(a) != runs || len(b) != runs {
				fmt.Printf("%-10s %-20s missing from %d runs\n", w.Name, def.Name, 2*runs-len(a)-len(b))
				breaches++
				continue
			}
			s1, s2 := spread(a), spread(b)
			drift := worsening(median(a), median(b), def.Better)
			// The driver's acceptance rule, quoted in README.md: every spread
			// "except that of setup_s" must stay within the bound, and every
			// second median, "setup_s too", must not be worse than the first
			// by more than the bound. setup_s is spared the spread test because
			// a set-up is seconds long and cannot be lengthened within the
			// time cap; it is still printed.
			verdict := "ok"
			switch {
			case drift > def.Bound:
				verdict = "BREACH: second set worse than the bound"
			case def.Name != "setup_s" && math.Max(s1, s2) > def.Bound:
				verdict = "BREACH: spread wider than the bound"
			case def.Name != "setup_s" && math.Max(s1, s2) > def.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "BREACH") {
				breaches++
			}
			fmt.Printf("%-10s %-20s %14.4f %14.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.Name, def.Name, median(a), median(b), 100*s1, 100*s2, 100*drift, 100*def.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("FAIL: %d breaches\n", breaches)
	} else {
		fmt.Println("PASS")
	}

	if benchOut != "" {
		if err := writeBaseline(c, spec, values[0], benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if breaches > 0 {
		return 1
	}
	return 0
}

// writeBaseline stores the first set's medians, plus one traced run per
// workload, as the repository's BENCH_<n>.json.
func writeBaseline(c *runConfig, spec *benchmarkFile, set map[string]map[string][]float64, path string) error {
	type row struct {
		EndToEnd map[string]metric `json:"end_to_end"`
		PerLayer metrics           `json:"per_layer"`
	}
	out := map[string]any{
		"stamp": map[string]any{
			"git_sha": gitSHA(), "go_version": runtime.Version(), "nproc": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "runs_per_median": len(set[spec.Workloads[0].Name]["setup_s"]),
			"run_seconds": spec.RunSeconds, "shards": shards, "connections": conns(),
			"callers_per_conn": callersPerConn, "first_seed": c.seed,
			"time": time.Now().UTC().Format(time.RFC3339),
		},
	}
	rows := map[string]row{}
	for _, w := range spec.Workloads {
		r := row{EndToEnd: map[string]metric{}}
		for name, v := range set[w.Name] {
			r.EndToEnd[name] = metric{Value: median(v), Unit: endToEndUnits[name]}
		}
		line, err := runChild(c, w.Name, c.seed, spec.RunSeconds, 1)
		if err != nil {
			return err
		}
		r.PerLayer = line.Metrics
		rows[w.Name] = r
	}
	out["workloads"] = rows
	return writeJSON(path, out)
}
