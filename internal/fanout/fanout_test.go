package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunCallsEveryIndexOnce: for no jobs, one job, one per CPU and
// three per CPU, every index runs exactly once, and lanes is back at
// its starting value when Run returns.
func TestRunCallsEveryIndexOnce(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, procs, 3 * procs} {
		var lanes atomic.Int64
		lanes.Store(1) // another call already running
		calls := make([]atomic.Int32, n)
		Run(&lanes, n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("n=%d: index %d ran %d times, want 1", n, i, c)
			}
		}
		if l := lanes.Load(); l != 1 {
			t.Errorf("n=%d: lanes = %d after Run, want its starting 1", n, l)
		}
	}
}

// TestRunStartsNoHelperWhenLanesFull: with the lanes already counting
// GOMAXPROCS goroutines, every job runs on the caller — no call sees
// more goroutines alive than there were before Run. (Fewer is fine: a
// helper of an earlier test may still be exiting when Run starts.)
func TestRunStartsNoHelperWhenLanesFull(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	var lanes atomic.Int64
	lanes.Store(int64(procs))
	before := runtime.NumGoroutine()
	n := 3 * procs
	seen := make([]int, n)
	Run(&lanes, n, func(i int) { seen[i] = runtime.NumGoroutine() })
	for i, g := range seen {
		if g > before {
			t.Fatalf("job %d ran with %d goroutines alive, want the caller's %d (no helper)", i, g, before)
		}
	}
	if l := lanes.Load(); l != int64(procs) {
		t.Errorf("lanes = %d after Run, want %d", l, procs)
	}
}
