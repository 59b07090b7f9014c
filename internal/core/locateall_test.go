package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"locble/internal/imu"
	"locble/internal/rf"
	"locble/internal/sim"
	"locble/internal/testutil"
)

// manyBeaconScenario spreads n beacons around the canonical L-shape walk
// so the fan-out has work for every goroutine.
func manyBeaconScenario(n int, seed int64) sim.Scenario {
	sc := sim.Scenario{
		ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         seed,
	}
	for i := 0; i < n; i++ {
		sc.Beacons = append(sc.Beacons, sim.BeaconSpec{
			Name: fmt.Sprintf("b%02d", i),
			X:    1 + float64(i%4)*2,
			Y:    1 + float64(i/4)*1.5,
		})
	}
	return sc
}

// TestLocateAllMatchesSequential pins the fan-out to the sequential
// path bit-for-bit: for every beacon, LocateAll and a plain
// LocateContext loop must produce the exact same fix (every run borrows
// pooled solver scratch, so any cross-run state leak would show up here
// as a drifted coordinate). It covers one beacon (the caller runs it
// alone), one per CPU, and three per CPU (goroutines claim several).
func TestLocateAllMatchesSequential(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{1, procs, 3 * procs} {
		tr, err := sim.Run(manyBeaconScenario(n, 3))
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		// Run twice so the compared fan-out re-enters warm solver arenas.
		eng.LocateAll(tr)
		fanned := eng.LocateAll(tr)
		if len(fanned) != n {
			t.Fatalf("%d beacons: LocateAll gave %d results", n, len(fanned))
		}
		for i, res := range fanned {
			if i > 0 && fanned[i-1].Name >= res.Name {
				t.Fatalf("%d beacons: result %d (%s) follows %s, want name order", n, i, res.Name, fanned[i-1].Name)
			}
			seq, seqErr := eng.Locate(tr, res.Name)
			if (seqErr == nil) != (res.Err == nil) {
				t.Fatalf("%d beacons, %s: fan-out err %v, sequential err %v", n, res.Name, res.Err, seqErr)
			}
			if seqErr != nil {
				continue
			}
			if res.M.Est.X != seq.Est.X || res.M.Est.H != seq.Est.H ||
				res.M.Est.N != seq.Est.N || res.M.Est.Gamma != seq.Est.Gamma ||
				res.M.Est.ResidualDB != seq.Est.ResidualDB {
				t.Errorf("%d beacons, %s: fan-out fix (%v,%v n=%v Γ=%v r=%v) != sequential (%v,%v n=%v Γ=%v r=%v)",
					n, res.Name,
					res.M.Est.X, res.M.Est.H, res.M.Est.N, res.M.Est.Gamma, res.M.Est.ResidualDB,
					seq.Est.X, seq.Est.H, seq.Est.N, seq.Est.Gamma, seq.Est.ResidualDB)
			}
		}
	}
}

// TestLocateAllLeavesNoGoroutines: the fan-out joins every goroutine it
// starts before it returns, so an engine that is never closed leaks
// nothing.
func TestLocateAllLeavesNoGoroutines(t *testing.T) {
	testutil.VerifyNoLeaks(t)

	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tr, err := sim.Run(manyBeaconScenario(4, 2))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	for _, res := range eng.LocateAll(tr) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
	}
}

// TestLocateAllStartsNoHelperWhenCPUsBusy: a call made while this
// engine's LocateAll goroutines already fill every CPU runs all its
// beacons on the caller, and every call gives back the lanes it took.
func TestLocateAllStartsNoHelperWhenCPUsBusy(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	procs := int64(runtime.GOMAXPROCS(0))
	tr, err := sim.Run(manyBeaconScenario(int(2*procs)+1, 2))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	eng.lanes.Store(procs)
	for _, res := range eng.LocateAll(tr) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
	}
	if max := eng.met.concurrency.Max(); max != 1 {
		t.Errorf("CPUs busy: concurrency max %d, want 1 (the caller alone)", max)
	}
	if n := eng.lanes.Load(); n != procs {
		t.Errorf("CPUs busy: %d lanes after the call, want %d", n, procs)
	}
	eng.lanes.Store(0)
	eng.LocateAll(tr)
	if n := eng.lanes.Load(); n != 0 {
		t.Errorf("CPUs free: %d lanes after the call, want 0", n)
	}
}

// TestLocateAllPoolStress runs many fan-outs at once (run under -race
// in CI): concurrent calls share estimate's solver pool and the
// engine's metrics, so this is where a scratch-arena data race or a
// result-slot race would surface.
func TestLocateAllPoolStress(t *testing.T) {
	testutil.VerifyNoLeaks(t)

	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tr, err := sim.Run(manyBeaconScenario(6, 4))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}

	want := eng.LocateAll(tr)

	const batches = 8
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.LocateAll(tr)
			if len(got) != len(want) {
				errs <- fmt.Errorf("batch: %d results, want %d", len(got), len(want))
				return
			}
			for i, res := range got {
				if res.Err != nil {
					errs <- fmt.Errorf("%s: %v", res.Name, res.Err)
					return
				}
				if res.M.Est.X != want[i].M.Est.X || res.M.Est.H != want[i].M.Est.H {
					errs <- fmt.Errorf("%s: fix (%v,%v) != (%v,%v)", res.Name,
						res.M.Est.X, res.M.Est.H, want[i].M.Est.X, want[i].M.Est.H)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLocateAllCancelUnderPool: a pre-canceled context reports a
// context error for every beacon, promptly, and the engine stays
// usable afterwards.
func TestLocateAllCancelUnderPool(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tr, err := sim.Run(manyBeaconScenario(5, 5))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, res := range eng.LocateAllContext(ctx, tr) {
		if res.Err == nil {
			t.Fatalf("%s: fix despite canceled context", res.Name)
		}
		if !isCanceled(res.Err) {
			t.Fatalf("%s: error %v is not a cancellation", res.Name, res.Err)
		}
	}
	for _, res := range eng.LocateAll(tr) {
		if res.Err != nil {
			t.Fatalf("after cancel %s: %v", res.Name, res.Err)
		}
	}
}

func BenchmarkLocateAll(b *testing.B) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	tr, err := sim.Run(manyBeaconScenario(8, 6))
	if err != nil {
		b.Fatalf("sim.Run: %v", err)
	}
	eng.LocateAll(tr) // warm the classifier and solver arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LocateAll(tr)
	}
}
