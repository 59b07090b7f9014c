// Package fanout runs a call's independent, CPU-bound jobs on the
// calling goroutine plus as many helper goroutines as there are free
// CPUs. It keeps no goroutine between calls: every helper a call starts
// is joined before the call returns.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn(i) once for every i in [0, n) and returns when every
// call has returned. The caller claims indexes in order from a shared
// counter, and before running each one it starts a helper claiming
// from the same counter while indexes are left over and the goroutines
// counted in lanes number fewer than GOMAXPROCS. A call therefore
// starts at most min(GOMAXPROCS, n) − 1 helpers: a lone call spreads
// over every CPU, while calls that already occupy every CPU each run
// alone instead of adding goroutines that only contend (the runtime
// never frees a goroutine's descriptor, so helpers started under full
// load grow the live heap).
//
// lanes is shared by every call that competes for the same CPUs; the
// caller counts in it while it runs, each helper until it exits, and
// it is back at its starting value when Run returns. fn may run on
// several goroutines at once and must write only state owned by its
// index.
func Run(lanes *atomic.Int64, n int, fn func(i int)) {
	procs := int64(runtime.GOMAXPROCS(0))
	helpers := min(int(procs), n) - 1
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		claim func(recruit bool)
	)
	claim = func(recruit bool) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			for recruit && helpers > 0 && int(next.Load()) < n && takeLane(lanes, procs) {
				helpers--
				wg.Add(1)
				go func() {
					defer wg.Done()
					claim(false)
					lanes.Add(-1)
				}()
			}
			fn(i)
		}
	}
	lanes.Add(1)
	claim(true)
	lanes.Add(-1)
	wg.Wait()
}

// takeLane claims a lane for one more helper, failing when the
// goroutines counted in lanes already number procs.
func takeLane(lanes *atomic.Int64, procs int64) bool {
	if lanes.Add(1) <= procs {
		return true
	}
	lanes.Add(-1)
	return false
}
