// Command locble-bench regenerates the paper's evaluation: every table
// and figure from Sec. 7 (plus the ablation studies DESIGN.md calls out)
// as text rows/series.
//
// Usage:
//
//	locble-bench              # run everything (takes a few minutes)
//	locble-bench -quick       # reduced trial counts
//	locble-bench -run fig11a  # one experiment by ID
//	locble-bench -list        # list experiment IDs
//	locble-bench -seed 7      # change the simulation seed
//	locble-bench -outdir out  # also save per-experiment files
//	locble-bench -json f.json # instrumented pipeline benchmark instead of
//	                          # the experiments: stage latencies + estimate
//	                          # error as machine-readable JSON
//	locble-bench -pprof addr  # serve net/http/pprof and /metrics while running
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"locble"
	"locble/internal/experiments"
	"locble/internal/pipebench"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced trial counts")
		runID    = flag.String("run", "", "run a single experiment by ID")
		list     = flag.Bool("list", false, "list experiment IDs")
		seed     = flag.Int64("seed", 1, "simulation seed")
		outdir   = flag.String("outdir", "", "also write each experiment's output to <outdir>/<id>.txt")
		jsonOut  = flag.String("json", "", "run the instrumented pipeline benchmark and write JSON to this file")
		trials   = flag.Int("trials", 25, "trial count for the -json pipeline benchmark")
		metricsF = flag.Bool("metrics", false, "print the process metrics snapshot as JSON when done")
		pprofF   = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	if *pprofF != "" {
		http.Handle("/metrics", locble.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(*pprofF, nil); err != nil {
				fmt.Fprintln(os.Stderr, "locble-bench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ and /metrics\n", *pprofF)
	}
	if *metricsF {
		defer locble.ProcessMetrics().WriteJSON(os.Stdout)
	}

	if *jsonOut != "" {
		if err := runPipelineBench(*seed, *trials, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "locble-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}

	opt := experiments.Options{Seed: *seed, Quick: *quick}
	entries := experiments.All()
	if *runID != "" {
		e, err := experiments.ByID(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		entries = []experiments.Entry{e}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	failures := 0
	for _, e := range entries {
		start := time.Now()
		out, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failures++
			continue
		}
		out.Render(os.Stdout)
		if *outdir != "" {
			f, err := os.Create(filepath.Join(*outdir, e.ID+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				failures++
			} else {
				out.Render(f)
				f.Close()
			}
		}
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// runPipelineBench runs the shared instrumented pipeline benchmark
// (internal/pipebench, also behind cmd/benchgate): LocateAll over
// repeated default-scenario simulations, reporting stage-level latency,
// the true-position error distribution, and per-trial MemStats-derived
// allocation deltas.
func runPipelineBench(seed int64, trials int, path string) error {
	rep, err := pipebench.Run(pipebench.Config{Seed: seed, Trials: trials})
	if err != nil {
		return err
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("pipeline bench: %s -> %s\n", rep.Summary(), path)
	return nil
}
