// Command perfbench is the repository benchmark. It runs one named
// workload on inputs generated from a seed, checks the program's outputs
// against oracles, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of standard output:
//
//	perfbench -workload locate|serve|churn -seed N -seconds S -trace 0|1
//
// It exits nonzero when a correctness oracle fails or a run is invalid.
// See spec.json for the workload sizes and rates, and BENCHMARK.json for
// the metric names, units and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Spec     *spec
	Dir      string // scratch directory for this run (durable store)
}

// outcome is what a workload run hands back: the result plus a record
// of run details printed on the line before it.
type outcome struct {
	res    result
	record map[string]any
	// problems lists oracle failures; any makes the run incorrect.
	mu       sync.Mutex
	problems []string
	failures []string // a sample of failed ops' errors
}

func (o *outcome) metric(name, unit string, v float64) {
	if o.res.Metrics == nil {
		o.res.Metrics = map[string]metricValue{}
	}
	o.res.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// failure samples a failed op's error for the run record; safe for
// concurrent gateways.
func (o *outcome) failure(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err.Error())
	}
}

// problem records an oracle failure; safe for concurrent gateways.
func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: locate, serve or churn")
	seed := flag.Int64("seed", 0, "input seed (0 selects spec.json's default_seed)")
	seconds := flag.Float64("seconds", 28, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	probe := flag.Bool("setup-probe", false, "time one set-up in this process and exit (used by the benchmark itself)")
	flag.Parse()

	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seed == 0 {
		*seed = sp.DefaultSeed
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	scratch := filepath.Join(cwd, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		return 2
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	rc := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Spec: sp, Dir: dir}

	if *probe {
		p, err := setupProbe(rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			return 1
		}
		return printJSON(p)
	}

	var out *outcome
	switch rc.Workload {
	case "locate":
		out, err = runLocate(rc)
	case "serve", "churn":
		out, err = runPush(rc)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want locate, serve or churn)\n", rc.Workload)
		return 2
	}
	if err == nil {
		err = completeMetrics(out, rc.Trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.record["workload"] = rc.Workload
	out.record["seed"] = rc.Seed
	out.record["seconds"] = rc.Seconds
	out.record["trace"] = rc.Trace
	out.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.record["problems"] = out.problems
	out.record["failures"] = out.failures
	out.res.Correct = len(out.problems) == 0
	if code := printJSON(map[string]any{"record": out.record}); code != 0 {
		return code
	}
	if code := printJSON(out.res); code != 0 {
		return code
	}
	if !out.res.Correct {
		for _, p := range out.problems {
			fmt.Fprintln(os.Stderr, "perfbench: oracle failed:", p)
		}
		return 1
	}
	return 0
}

func printJSON(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode output:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// probeResult is what a setup-probe process reports: its set-up time and
// a digest of a few outputs, which must match the parent's bit for bit.
type probeResult struct {
	SetupS float64 `json:"setup_s"`
	Digest string  `json:"digest"`
}

// setupProbe times one set-up in a fresh process (so the one-time
// EnvAware training is paid again) and computes the workload's
// cross-process digest.
func setupProbe(rc runConfig) (probeResult, error) {
	switch rc.Workload {
	case "locate":
		return locateProbe(rc)
	case "serve", "churn":
		return pushProbe(rc)
	}
	return probeResult{}, fmt.Errorf("unknown workload %q", rc.Workload)
}

// runProbes runs n setup probes, one process after another, before the
// parent sets up, and returns their results.
func runProbes(rc runConfig, n int) ([]probeResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []probeResult
	for i := 0; i < n; i++ {
		p, err := runProbe(exe, rc)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// runProbe runs one setup-probe process to completion and parses its
// report. The process is killed if it outlives a minute.
func runProbe(exe string, rc runConfig) (probeResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", rc.Workload,
		"-seed", strconv.FormatInt(rc.Seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return probeResult{}, fmt.Errorf("setup probe: %w", err)
	}
	var p probeResult
	if err := json.Unmarshal(bytes.TrimSpace(raw), &p); err != nil {
		return probeResult{}, fmt.Errorf("setup probe output %q: %w", raw, err)
	}
	return p, nil
}

// medianOf returns the median of xs (xs is not modified).
func medianOf(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// secondsOf converts a float second count to a Duration.
func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
