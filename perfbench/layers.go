package main

import (
	"fmt"
	"sort"

	"locble/internal/obs"
)

// endToEnd lists every metric an untraced run prints, with its unit.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"throughput_ops_s": "ops/s",
	"latency_p50_ms":   "ms",
	"cpu_ms_per_op":    "ms",
	"success_frac":     "ratio",
	"err_mean_m":       "m",
	"err_p90_m":        "m",
	"heap_retained_mb": "MB",
}

// perLayer lists every metric a traced run prints, with its unit. A
// layer a workload never enters reads 0 there (spec.json says which
// workloads each metric is meant for).
var perLayer = map[string]string{
	"core.sanitize_us":          "us",
	"core.motion_us":            "us",
	"core.filter_us":            "us",
	"core.classify_us":          "us",
	"core.regress_us":           "us",
	"core.regress_share":        "ratio",
	"core.session_fixes_per_op": "count",
	"estimate.runs_per_op":      "count",
	"estimate.nm_calls_per_run": "count",
	"estimate.nm_iters_per_run": "count",
	"estimate.fail_frac":        "ratio",
	"fleet.push_ms":             "ms",
	"fleet.shard_queue_p99":     "count",
	"fleet.created_per_op":      "count",
	"fleet.restored_per_op":     "count",
	"fleet.evicted_per_op":      "count",
	"durable.save_us":           "us",
	"durable.load_us":           "us",
	"durable.saves_per_op":      "count",
	"durable.loads_per_op":      "count",
	"netproto.exchange_ms":      "ms",
	"netproto.self_ms":          "ms",
	"netproto.bytes_per_obs":    "B",
	"netproto.frames_per_op":    "count",
	"router.push_ms":            "ms",
	"router.self_ms":            "ms",
	"router.fanout":             "count",
	"router.reconnects":         "count",
	"router.failover_groups":    "count",
	"runtime.allocs_per_op":     "count",
	"runtime.gc_cpu_frac":       "ratio",
	"gen.open_p50_ms":           "ms",
	"gen.closed_p99_ms":         "ms",
	"gen.late_p99_ms":           "ms",
	"gen.backlog_end":           "count",
	"gen.open_p99_ms":           "ms",
	"gen.steal_frac":            "ratio",
	"trace.unaccounted_frac":    "ratio",
	"trace.overhead_frac":       "ratio",
}

// completeMetrics checks a result carries exactly the metrics its mode
// prints, each with its declared unit. In a traced run, layers the
// workload never entered are filled with 0 first.
func completeMetrics(o *outcome, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
		for name, unit := range perLayer {
			if _, ok := o.res.Metrics[name]; !ok {
				o.metric(name, unit, 0)
			}
		}
	}
	var bad []string
	for name, unit := range want {
		if m, ok := o.res.Metrics[name]; !ok || m.Unit != unit {
			bad = append(bad, name)
		}
	}
	for name := range o.res.Metrics {
		if _, ok := want[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics missing, extra or with the wrong unit: %v", bad)
	}
	return nil
}

// estimateCounters are the process-wide estimator counters.
type estimateCounters struct {
	runs, failures, calls, iters *obs.Counter
}

type estimateReading struct {
	Runs, Failures, Calls, Iters int64
}

func newEstimateCounters() (estimateCounters, error) {
	var e estimateCounters
	for _, h := range []struct {
		dst  **obs.Counter
		name string
	}{
		{&e.runs, "estimate.runs"}, {&e.failures, "estimate.failures"},
		{&e.calls, "estimate.nm.calls"}, {&e.iters, "estimate.nm.iterations"},
	} {
		c, err := counterHandle(obs.Default, h.name)
		if err != nil {
			return e, err
		}
		*h.dst = c
	}
	return e, nil
}

func (e estimateCounters) read() estimateReading {
	return estimateReading{Runs: e.runs.Value(), Failures: e.failures.Value(), Calls: e.calls.Value(), Iters: e.iters.Value()}
}

func (a estimateReading) sub(b estimateReading) estimateReading {
	return estimateReading{Runs: a.Runs - b.Runs, Failures: a.Failures - b.Failures, Calls: a.Calls - b.Calls, Iters: a.Iters - b.Iters}
}

func (a estimateReading) add(b estimateReading) estimateReading {
	return estimateReading{Runs: a.Runs + b.Runs, Failures: a.Failures + b.Failures, Calls: a.Calls + b.Calls, Iters: a.Iters + b.Iters}
}

// metrics adds the estimate layer's per-layer metrics over ops ops.
func (a estimateReading) metrics(o *outcome, ops int) {
	runs := float64(a.Runs)
	o.metric("estimate.runs_per_op", "count", safeDiv(runs, float64(ops)))
	o.metric("estimate.nm_calls_per_run", "count", safeDiv(float64(a.Calls), runs))
	o.metric("estimate.nm_iters_per_run", "count", safeDiv(float64(a.Iters), runs))
	o.metric("estimate.fail_frac", "ratio", safeDiv(float64(a.Failures), runs))
}
