package main

import (
	"fmt"
	"math"
	"time"
)

// phasePlan says how a workload is driven: how many gateways (callers)
// run at once and the open loop's fixed offered rate.
type phasePlan struct {
	Gateways int
	OpenRate float64 // ops per second, all gateways together
}

// A traced run gives closedShare of its seconds to the closed loop,
// tracedShare to the one-in-flight traced phase and the rest to the open
// loop. An untraced run is all closed loop.
const (
	closedShare = 0.4
	tracedShare = 0.15
)

// minOps is the fewest ops a closed loop completes, so its p99 has ten
// samples beyond it.
const minOps = 1000

// minOpenOps is the fewest ops an open-loop phase schedules, for the same
// reason.
const minOpenOps = 1010

// openGrace is how long an open-loop phase may overrun its schedule
// before the ops not yet sent count as failed.
const openGrace = 10 * time.Second

// recordHeadroom is how many times a workload's recorded closed-loop
// throughput the untraced run reserves per-op records for.
const recordHeadroom = 4

// untracedRun is what an untraced run reserves before its heap baseline:
// the closed loop's per-op records and the heap sampler's readings.
type untracedRun struct {
	recs []phaseResult
	heap *heapSampler
	base uint64 // live heap once the inputs and reservations exist
}

// reserveRun prepares an untraced run's heap accounting: it reserves
// per-op records for recordHeadroom times the workload's recorded
// throughput over the longest the closed loop may run (twice its
// seconds) and readings for heapCycles collections, then takes the heap
// baseline. Call it once the inputs are made and before set-up. A traced
// run needs none of it.
func reserveRun(rc runConfig, gateways int, opsPerS float64) *untracedRun {
	if rc.Trace {
		return nil
	}
	u := &untracedRun{
		recs: reserveClosed(gateways, int(math.Ceil(recordHeadroom*opsPerS*2*rc.Seconds))),
		heap: newHeapSampler(heapCycles),
	}
	u.base = liveHeap()
	return u
}

// heapCycles is room for the live-heap readings of an untraced run,
// about twenty times the collections churn, the busiest, makes in 24 s.
const heapCycles = 1 << 13

// measureEndToEnd runs the untraced run: a closed loop for the whole run
// (longer if needed for minOps samples), adding the end-to-end metrics
// every workload shares. heap_retained_mb is the live heap after the
// loop, above the baseline reserveRun took before set-up: what set-up
// built and the program kept, caches included, and not the harness's
// inputs or records. The readings of the collections during the loop
// also catch each op's in-flight working set; they are recorded, but
// about a hundred collections sample locate's small, uneven working set
// too unevenly for their median or peak to repeat within the bound.
// Wall-clock tails and open-loop latency move with the host's CPU steal
// far more than the bounds allow, so they are per-layer figures of the
// traced run; the tail is also recorded here.
func measureEndToEnd(rc runConfig, pp phasePlan, u *untracedRun, op opFunc, o *outcome) error {
	t0, _ := readCPUTicks("/proc/stat")
	u.heap.start(5 * time.Millisecond)
	cpu0 := cpuSeconds()
	perGw := runClosed(u.recs, secondsOf(rc.Seconds), minOps, op)
	cpu := cpuSeconds() - cpu0
	live := u.heap.Stop()
	t1, _ := readCPUTicks("/proc/stat")
	reserved := cap(perGw[0].Lat)
	closed := joinPhases(perGw)

	if closed.Wall <= 0 || len(closed.Lat) == 0 {
		return fmt.Errorf("closed loop completed no ops")
	}
	lat := sortedCopy(closed.Lat)
	p50, err := quantileOf(lat, 0.5)
	if err != nil {
		return fmt.Errorf("closed loop latency: %w", err)
	}
	p99, err := quantileOf(lat, 0.99)
	if err != nil {
		return fmt.Errorf("closed loop latency: %w", err)
	}
	o.res.Attempted, o.res.Failed = closed.Attempted, closed.Failed
	o.metric("throughput_ops_s", "ops/s", windowedRate(closed))
	o.metric("latency_p50_ms", "ms", p50.Value*1e3)
	o.metric("cpu_ms_per_op", "ms", cpu/float64(len(closed.Lat))*1e3)
	o.metric("success_frac", "ratio", 1-float64(closed.Failed)/float64(closed.Attempted))
	heap := make([]float64, len(live))
	for i, v := range live {
		heap[i] = (float64(v) - float64(u.base)) / (1 << 20)
	}
	o.metric("heap_retained_mb", "MB", heap[len(heap)-1])
	heap = sortedCopy(heap)
	o.record["closed"] = map[string]any{
		"gateways": pp.Gateways, "ops": len(closed.Lat), "failed": closed.Failed,
		"wall_s": closed.Wall, "p99_ms": p99.Value * 1e3, "p99_tail_samples": p99.Tail,
		"reserved_ops_per_gateway": reserved,
	}
	o.record["heap"] = map[string]any{
		"base_mb": float64(u.base) / (1 << 20), "collections": len(heap) - 1,
		"p50_mb": medianOf(heap), "p90_mb": heap[int(math.Ceil(0.9*float64(len(heap))))-1], "peak_mb": heap[len(heap)-1],
	}
	o.record["steal_frac"] = stealFrac(t0, t1)
	return nil
}

// measureTraced runs the traced run: the open loop at the workload's
// fixed offered rate, the closed loop for its tail, then the one-in-
// flight traced phase. It adds the per-layer metrics every workload
// shares. openHook (nil when unused) brackets the open loop.
func measureTraced(rc runConfig, pp phasePlan, op opFunc, lt layerTracer, openHook func(start bool), o *outcome) (tracedResult, error) {
	closedDur := secondsOf(rc.Seconds * closedShare)
	tracedDur := secondsOf(rc.Seconds * tracedShare)
	openDur := max(secondsOf(rc.Seconds)-closedDur-tracedDur, secondsOf(minOpenOps/pp.OpenRate))

	t0, _ := readCPUTicks("/proc/stat")
	if openHook != nil {
		openHook(true)
	}
	open := runOpen(pp.Gateways, pp.OpenRate, openDur, openGrace, op)
	if openHook != nil {
		openHook(false)
	}
	closed := joinPhases(runClosed(make([]phaseResult, pp.Gateways), closedDur, minOps, op))
	tr := runTraced(tracedDur, func(k int) error { return op(k%pp.Gateways, k/pp.Gateways) }, lt)
	t1, _ := readCPUTicks("/proc/stat")

	if err := checkOpen(open, pp); err != nil {
		return tr, err
	}
	openLat := sortedCopy(open.Lat)
	q := map[string]struct {
		xs []float64
		p  float64
	}{
		"gen.open_p50_ms":   {openLat, 0.5},
		"gen.open_p99_ms":   {openLat, 0.99},
		"gen.late_p99_ms":   {sortedCopy(open.Late), 0.99},
		"gen.closed_p99_ms": {sortedCopy(closed.Lat), 0.99},
	}
	for name, c := range q {
		v, err := quantileOf(c.xs, c.p)
		if err != nil {
			return tr, fmt.Errorf("%s: %w", name, err)
		}
		o.metric(name, "ms", v.Value*1e3)
	}
	o.res.Attempted = open.Attempted + closed.Attempted + tr.Attempted
	o.res.Failed = open.Failed + closed.Failed + tr.Failed
	o.metric("gen.backlog_end", "count", float64(open.Backlog))
	o.metric("gen.steal_frac", "ratio", stealFrac(t0, t1))
	tr.runtimeMetrics(o)
	o.record["open"] = map[string]any{
		"gateways": pp.Gateways, "rate_per_s": pp.OpenRate, "ops": len(open.Lat),
		"failed": open.Failed, "backlog_end": open.Backlog, "pending": open.Pending,
	}
	o.record["closed"] = map[string]any{"ops": len(closed.Lat), "failed": closed.Failed, "wall_s": closed.Wall}
	o.record["traced"] = map[string]any{
		"traced_ops": tr.TracedOps, "plain_ops": tr.PlainOps,
		"traced_wall_s": tr.TracedWall, "plain_wall_s": tr.PlainWall,
	}
	return tr, nil
}

// checkOpen refuses an open-loop phase whose backlog grew: when the
// system cannot sustain the offered rate, ops leave later and later, so
// the median lateness of the schedule's last quarter exceeds that of its
// first quarter by ten per-gateway intervals or more. A short stall
// delays only a few ops and does not move the median.
func checkOpen(open phaseResult, pp phasePlan) error {
	quarter := func(lo, hi float64) float64 {
		var late []float64
		for _, r := range open.Ops {
			if r.Due >= lo && r.Due < hi {
				if r.Sent < 0 {
					late = append(late, math.Inf(1))
				} else {
					late = append(late, r.Sent-r.Due)
				}
			}
		}
		return medianOf(late)
	}
	span := 0.0
	for _, r := range open.Ops {
		span = math.Max(span, r.Due)
	}
	first, last := quarter(0, span/4), quarter(span*3/4, math.Inf(1))
	if limit := 10 * float64(pp.Gateways) / pp.OpenRate; last-first >= limit {
		return fmt.Errorf("invalid run: open-loop lateness grew from %.1f ms to %.1f ms at %.0f ops/s offered (backlog %d at the end)",
			first*1e3, last*1e3, pp.OpenRate, open.Backlog)
	}
	return nil
}
