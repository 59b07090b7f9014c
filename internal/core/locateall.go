package core

import (
	"context"
	"sort"

	"locble/internal/fanout"
	"locble/internal/sim"
)

// BeaconResult pairs a beacon name with its measurement or error.
type BeaconResult struct {
	Name string
	M    *Measurement
	Err  error
	// Health is the degradation report for this beacon: the
	// measurement's own on success, or the report recovered from the
	// rejection error (so a caller can tell "unusable input" apart from
	// "beacon absent" without unwrapping errors).
	Health Health
}

// LocateAll locates every beacon visible in the trace concurrently (the
// Engine is safe for concurrent Locate calls; the per-beacon pipelines
// are independent). Results are returned in beacon-name order.
func (e *Engine) LocateAll(tr *sim.Trace) []BeaconResult {
	return e.LocateAllContext(context.Background(), tr)
}

// LocateAllContext is LocateAll under a context. The beacons fan out
// per call through fanout.Run on this engine's lanes: the caller claims
// beacons in name order and starts helpers only while beacons are left
// over and this engine's LocateAll goroutines leave a CPU free, each
// goroutine writes only the result slots of the beacons it claimed, and
// all are joined before the call returns. Cancellation drains fast:
// beacons not yet started report the context error immediately, and
// in-flight pipelines stop mid-regression. The observed peak
// concurrency is recorded in the engine's "core.locateall.concurrency"
// gauge (its Max is the high-water mark).
func (e *Engine) LocateAllContext(ctx context.Context, tr *sim.Trace) []BeaconResult {
	e.met.locateAlls.Inc()
	names := make([]string, 0, len(tr.Observations))
	for name := range tr.Observations {
		names = append(names, name)
	}
	sort.Strings(names)

	results := make([]BeaconResult, len(names))
	fanout.Run(&e.lanes, len(names), func(i int) { results[i] = e.locateOne(ctx, tr, names[i]) })
	return results
}

// locateOne runs one beacon's pipeline for LocateAll, reporting
// cancellation, health and the concurrency gauge.
func (e *Engine) locateOne(ctx context.Context, tr *sim.Trace, name string) BeaconResult {
	e.met.concurrency.Add(1)
	defer e.met.concurrency.Add(-1)
	var (
		m   *Measurement
		err error
	)
	if ctx.Err() != nil {
		err = canceledErr(ctx, "locate "+name)
	} else {
		m, err = e.LocateContext(ctx, tr, name)
	}
	res := BeaconResult{Name: name, M: m, Err: err}
	if err != nil {
		res.Health = HealthFromError(err)
	} else {
		res.Health = m.Health
	}
	return res
}
