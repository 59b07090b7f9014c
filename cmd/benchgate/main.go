// Command benchgate is the performance-regression gate: it runs the
// instrumented end-to-end pipeline benchmark (the same one behind
// locble-bench -json), writes the report, and checks every section of
// it against a committed baseline report with pipebench.Gate's rows:
// walls, allocations, throughput, deterministic error and solver work
// within tolerance of the baseline, and fixed contracts (no fix lost,
// no log damage, the binary codec's floors over JSON) on the report
// alone. It exits nonzero on any violation, so CI (and `make ci`) fail
// the build.
//
// The tolerances are pipebench.DefaultTolerances; only the wall-clock
// one can be overridden, for hosts noisier than the baseline's.
//
// Usage:
//
//	benchgate                         # run, write BENCH_gate.json, gate
//	                                  # against BENCH_pr4.json
//	benchgate -baseline B.json        # choose the committed baseline
//	benchgate -out OUT.json           # where to write the fresh report
//	benchgate -compare RUN.json       # gate an existing report instead
//	                                  # of running the benchmark
//	benchgate -wall-tol 0.2           # loosen the wall-clock tolerance
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"locble/internal/pipebench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind testable plumbing: it returns the process exit
// code (0 pass, 1 gate violation or error, 2 flag error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := pipebench.DefaultTolerances()
	var (
		baseline = fs.String("baseline", "BENCH_pr4.json", "committed baseline benchmark JSON")
		out      = fs.String("out", "BENCH_gate.json", "path for the fresh benchmark report")
		compare  = fs.String("compare", "", "gate this existing report file instead of running the benchmark")
	)
	fs.Float64Var(&tol.Wall, "wall-tol", tol.Wall, "allowed fractional wall-clock regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base, err := pipebench.Load(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	report := *compare
	if report == "" {
		rep, err := pipebench.Run(pipebench.Config{Seed: 1, Trials: 25})
		if err == nil {
			err = rep.WriteFile(*out)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchgate: %s -> %s\n", rep.Summary(), *out)
		report = *out
	}
	got, err := pipebench.Load(report)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}

	violations := pipebench.Gate(got, base, tol)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, "benchgate: FAIL:", v)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: PASS against %s\n", *baseline)
	return 0
}
