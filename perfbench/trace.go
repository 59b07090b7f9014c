package main

import "time"

// layerTracer reads the program's own timers and counters around the
// ops of a traced block. One op is in flight at a time, so the change in
// every reading between two ops belongs to the op in between.
type layerTracer interface {
	// start takes baseline readings and turns on the benchmark's own
	// spans (the checkpoint-store wrapper).
	start()
	// afterOp folds the readings' change since the previous op into the
	// per-layer totals; op is the op's wall time in seconds.
	afterOp(op float64)
	// stop turns the benchmark's own spans off again.
	stop()
}

// tracedResult is what the traced phase measured.
type tracedResult struct {
	TracedOps, PlainOps   int
	TracedWall, PlainWall float64      // seconds, including the cost of each read
	Runtime               runtimeStats // summed over the untraced blocks
	Attempted, Failed     int
}

// overheadFrac is how much longer an op cycle took with tracing on than
// with it off.
func (r tracedResult) overheadFrac() float64 {
	if r.TracedOps == 0 || r.PlainOps == 0 || r.PlainWall == 0 {
		return 0
	}
	return (r.TracedWall/float64(r.TracedOps))/(r.PlainWall/float64(r.PlainOps)) - 1
}

// tracedBlock is how many ops run before tracing toggles. Alternating
// short blocks spreads host drift evenly over both sides.
const tracedBlock = 16

// runTraced runs ops one at a time for dur, alternating untraced and
// traced blocks; op's argument counts every op of the phase. The runtime
// counters are read over the untraced blocks, so the tracer's own
// allocations and collections are not charged to the program.
func runTraced(dur time.Duration, op func(k int) error, lt layerTracer) tracedResult {
	var r tracedResult
	rr := newRuntimeReader()
	deadline := time.Now().Add(dur)
	k := 0
	for traced := false; time.Now().Before(deadline); traced = !traced {
		var rt0 runtimeStats
		if traced {
			lt.start()
		} else {
			rt0 = rr.read()
		}
		b0 := time.Now()
		for i := 0; i < tracedBlock; i, k = i+1, k+1 {
			t0 := time.Now()
			err := op(k)
			d := time.Since(t0).Seconds()
			r.Attempted++
			if err != nil {
				r.Failed++
			}
			if traced {
				lt.afterOp(d)
			}
		}
		wall := time.Since(b0).Seconds()
		if traced {
			lt.stop()
			r.TracedOps += tracedBlock
			r.TracedWall += wall
		} else {
			rt1 := rr.read()
			r.Runtime.Allocs += rt1.Allocs - rt0.Allocs
			r.Runtime.GCCPU += rt1.GCCPU - rt0.GCCPU
			r.Runtime.BusyCPU += rt1.BusyCPU - rt0.BusyCPU
			r.PlainOps += tracedBlock
			r.PlainWall += wall
		}
	}
	return r
}

// runtimeMetrics adds the runtime layer's per-layer metrics.
func (r tracedResult) runtimeMetrics(o *outcome) {
	perOp := 0.0
	if r.PlainOps > 0 {
		perOp = float64(r.Runtime.Allocs) / float64(r.PlainOps)
	}
	gc := 0.0
	if r.Runtime.BusyCPU > 0 {
		gc = r.Runtime.GCCPU / r.Runtime.BusyCPU
	}
	o.metric("runtime.allocs_per_op", "count", perOp)
	o.metric("runtime.gc_cpu_frac", "ratio", gc)
	o.metric("trace.overhead_frac", "ratio", r.overheadFrac())
}
