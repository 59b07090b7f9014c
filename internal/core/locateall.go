package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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

// LocateAllContext is LocateAll under a context. The fan-out is per
// call: the caller claims beacons in name order from a shared counter,
// and before each one it starts a helper goroutine claiming from the
// same counter if beacons are left over and this engine's LocateAll
// goroutines leave a CPU free. A call starts at most min(GOMAXPROCS,
// beacons) − 1 helpers, each goroutine writes only the result slots of
// the beacons it claimed, and all are joined before the call returns.
// The per-beacon pipelines are CPU-bound, so helpers only fill free
// CPUs: a lone call spreads over every CPU and keeps them busy until
// its last beacon starts, while calls that already occupy every CPU
// each run alone instead of adding goroutines that only contend (the
// runtime never frees a goroutine's descriptor, so helpers started
// under full load grew the live heap by a run-dependent amount).
// Cancellation drains fast: beacons not yet started report the context
// error immediately, and in-flight pipelines stop mid-regression. The
// observed peak concurrency is recorded in the engine's
// "core.locateall.concurrency" gauge (its Max is the high-water mark).
func (e *Engine) LocateAllContext(ctx context.Context, tr *sim.Trace) []BeaconResult {
	e.met.locateAlls.Inc()
	names := make([]string, 0, len(tr.Observations))
	for name := range tr.Observations {
		names = append(names, name)
	}
	sort.Strings(names)

	results := make([]BeaconResult, len(names))
	procs := int64(runtime.GOMAXPROCS(0))
	helpers := min(int(procs), len(names)) - 1
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		claim func(recruit bool)
	)
	claim = func(recruit bool) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(names) {
				return
			}
			for recruit && helpers > 0 && int(next.Load()) < len(names) && e.takeLane(procs) {
				helpers--
				wg.Add(1)
				go func() {
					defer wg.Done()
					claim(false)
					e.lanes.Add(-1)
				}()
			}
			results[i] = e.locateOne(ctx, tr, names[i])
		}
	}
	e.lanes.Add(1)
	claim(true)
	e.lanes.Add(-1)
	wg.Wait()
	return results
}

// takeLane claims a lane for one more LocateAll goroutine, failing
// when this engine's LocateAll goroutines already number procs.
func (e *Engine) takeLane(procs int64) bool {
	if e.lanes.Add(1) <= procs {
		return true
	}
	e.lanes.Add(-1)
	return false
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
