package core

import (
	"errors"
	"math"
	"sort"
	"testing"

	"locble/internal/estimate"
	"locble/internal/imu"
	"locble/internal/rf"
	"locble/internal/sim"
)

// dummyEst is a fixed estimate at (1, 0) in its measurement frame.
var dummyEst = estimate.Estimate{X: 1, H: 0}

// lshapeScenario builds the canonical measurement: observer walks an
// L-shape near the origin; target beacon sits at (bx, by) world.
func lshapeScenario(bx, by float64, envModel sim.EnvModel, seed int64) sim.Scenario {
	return sim.Scenario{
		Beacons: []sim.BeaconSpec{{Name: "target", X: bx, Y: by}},
		ObserverPlan: imu.Plan{
			Segments: imu.LShape(0, 4, 4),
		},
		EnvModel: envModel,
		Seed:     seed,
	}
}

func TestLocateStationaryLOS(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	errs := make([]float64, 0, 8)
	for seed := int64(1); seed <= 8; seed++ {
		tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), seed))
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		m, err := eng.Locate(tr, "target")
		if err != nil {
			t.Fatalf("Locate (seed %d): %v", seed, err)
		}
		e := m.Error(6, 3)
		errs = append(errs, e)
		t.Logf("seed %d: est=(%.2f, %.2f) err=%.2f m n=%.2f conf=%.2f",
			seed, m.Est.X, m.Est.H, e, m.Est.N, m.Est.Confidence)
	}
	mean := 0.0
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	if mean > 2.5 {
		t.Errorf("mean LOS error = %.2f m, want ≤ 2.5 (paper: ~0.8–1.8 indoor)", mean)
	}
}

func TestLocateUnknownBeacon(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 1))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if _, err := eng.Locate(tr, "nope"); err == nil {
		t.Error("want error for unknown beacon")
	}
}

func TestLocateNLOSWorseThanLOS(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	meanErr := func(envModel sim.EnvModel, seedBase int64) float64 {
		sum, n := 0.0, 0
		for seed := seedBase; seed < seedBase+6; seed++ {
			tr, err := sim.Run(lshapeScenario(7, 3, envModel, seed))
			if err != nil {
				t.Fatalf("sim.Run: %v", err)
			}
			m, err := eng.Locate(tr, "target")
			if err != nil {
				continue
			}
			sum += m.Error(7, 3)
			n++
		}
		if n == 0 {
			t.Fatal("no successful estimates")
		}
		return sum / float64(n)
	}
	los := meanErr(sim.StaticEnv(rf.LOS), 100)
	nlos := meanErr(sim.StaticEnv(rf.NLOS), 200)
	t.Logf("LOS mean err %.2f m, NLOS %.2f m", los, nlos)
	if nlos < los*0.7 {
		t.Errorf("NLOS (%.2f) should not be clearly better than LOS (%.2f)", nlos, los)
	}
}

func TestAblationFlagsRun(t *testing.T) {
	// Disabling ANF/EnvAware must still produce estimates (the ablation
	// benches rely on this).
	for _, cfg := range []Config{
		func() Config { c := DefaultConfig(); c.DisableANF = true; return c }(),
		func() Config { c := DefaultConfig(); c.DisableEnvAware = true; return c }(),
	} {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		tr, err := sim.Run(lshapeScenario(5, 2, sim.StaticEnv(rf.LOS), 3))
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		if _, err := eng.Locate(tr, "target"); err != nil {
			t.Errorf("Locate with ablation cfg: %v", err)
		}
	}
}

func TestLocateWithClusterImproves(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Target plus three co-located neighbours (0.3 m apart, as in the
	// paper's Fig. 9 setup) and one far beacon; heavy blockage.
	walls := &sim.WallEnv{Walls: []sim.Wall{{X1: 3, Y1: -2, X2: 3, Y2: 8, Class: rf.NLOS}}}
	var single, clustered float64
	runs := 0
	for seed := int64(10); seed < 16; seed++ {
		sc := sim.Scenario{
			Beacons: []sim.BeaconSpec{
				{Name: "target", X: 7, Y: 3},
				{Name: "n1", X: 7.3, Y: 3},
				{Name: "n2", X: 7, Y: 3.3},
				{Name: "n3", X: 7.3, Y: 3.3},
				{Name: "far", X: 1, Y: 7},
			},
			ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
			EnvModel:     walls,
			Seed:         seed,
		}
		tr, err := sim.Run(sc)
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		base, err := eng.Locate(tr, "target")
		if err != nil {
			continue
		}
		cal, cres, err := eng.LocateWithCluster(tr, "target")
		if err != nil {
			continue
		}
		if cres.ClusterSize < 2 {
			t.Logf("seed %d: cluster size %d", seed, cres.ClusterSize)
		}
		// The far beacon must not have joined the cluster.
		for _, mem := range cres.Members {
			if mem.Name == "far" && mem.Matched {
				t.Errorf("seed %d: far beacon wrongly clustered", seed)
			}
		}
		single += base.Error(7, 3)
		clustered += cal.Error(7, 3)
		runs++
	}
	if runs == 0 {
		t.Fatal("no successful runs")
	}
	single /= float64(runs)
	clustered /= float64(runs)
	t.Logf("single %.2f m vs clustered %.2f m over %d runs", single, clustered, runs)
	if clustered > single*1.35 {
		t.Errorf("clustering made things clearly worse: %.2f vs %.2f", clustered, single)
	}
}

// TestLocateWithClusterLocatesEachBeaconOnce: the calibrated call
// takes the target's fix from its one LocateAll, so an n-beacon trace
// costs exactly n pipeline runs, and an absent target is still
// ErrUnknownBeacon.
func TestLocateWithClusterLocatesEachBeaconOnce(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tr, err := sim.Run(multiBeaconScenario(1))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	before := eng.Metrics().Counters["core.locate.calls"]
	if _, _, err := eng.LocateWithCluster(tr, "b0"); err != nil {
		t.Fatalf("LocateWithCluster: %v", err)
	}
	if got, want := eng.Metrics().Counters["core.locate.calls"]-before, int64(len(tr.Observations)); got != want {
		t.Errorf("core.locate.calls rose by %d, want %d (one per beacon)", got, want)
	}
	if _, _, err := eng.LocateWithCluster(tr, "nope"); !errors.Is(err, ErrUnknownBeacon) {
		t.Errorf("absent target: err %v, want ErrUnknownBeacon", err)
	}
}

func TestMovingTargetLocate(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tgtPlan := imu.Plan{
		Segments:     []imu.Segment{{Heading: math.Pi / 2, Distance: 3}},
		StartX:       8,
		StartY:       2,
		StartHeading: math.Pi / 2,
	}
	// Moving-target estimation is the paper's hardest case (its own CDF
	// shows a heavy tail), so assert on the median across seeds, the same
	// summary the paper reports (<2.5 m for >50 % of runs).
	var errs []float64
	for seed := int64(1); seed <= 9; seed++ {
		sc := sim.Scenario{
			Beacons:      []sim.BeaconSpec{{Name: "phone", X: 8, Y: 2}},
			ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
			TargetPlan:   &tgtPlan,
			EnvModel:     sim.StaticEnv(rf.LOS),
			Seed:         seed,
		}
		tr, err := sim.Run(sc)
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		m, err := eng.Locate(tr, "phone")
		if err != nil {
			t.Logf("seed %d: Locate: %v", seed, err)
			continue
		}
		// The estimate is of the target's *initial* location (paper
		// Sec. 7.2: "we measured the target location estimation error at
		// its initial location").
		e := m.Error(8, 2)
		errs = append(errs, e)
		t.Logf("seed %d: est=(%.2f, %.2f), err=%.2f m", seed, m.Est.X, m.Est.H, e)
	}
	if len(errs) < 5 {
		t.Fatalf("only %d successful runs", len(errs))
	}
	sort.Float64s(errs)
	med := errs[len(errs)/2]
	if med > 4.5 {
		t.Errorf("moving-target median error = %.2f m, want ≤ 4.5 (paper: <2.5 for >50%%)", med)
	}
}

func TestNavigatorGeometry(t *testing.T) {
	nav := &Navigator{ArriveRadius: 0.5}
	nav.Target.X, nav.Target.H = 3, 4
	adv := nav.Advise()
	if math.Abs(adv.Distance-5) > 1e-9 {
		t.Errorf("distance = %.3f, want 5", adv.Distance)
	}
	wantBearing := math.Atan2(4, 3)
	if math.Abs(adv.Bearing-wantBearing) > 1e-9 {
		t.Errorf("bearing = %.3f, want %.3f", adv.Bearing, wantBearing)
	}
	if adv.Arrived {
		t.Error("should not have arrived at 5 m")
	}
	// Walk straight to the target in 1 m steps.
	for i := 0; i < 5; i++ {
		nav.Update(1, adv.Bearing)
	}
	adv = nav.Advise()
	if !adv.Arrived {
		t.Errorf("should have arrived; distance = %.3f", adv.Distance)
	}
}

func TestNavigatorRetarget(t *testing.T) {
	nav := &Navigator{ArriveRadius: 0.5}
	est := &dummyEst
	nav.Retarget(est, 3, 4, math.Pi/2)
	if math.Abs(nav.Target.X-3) > 1e-9 || math.Abs(nav.Target.H-5) > 1e-9 {
		t.Errorf("retarget = (%.2f, %.2f), want (3, 5)", nav.Target.X, nav.Target.H)
	}
}

func TestNewEngineWithClassifier(t *testing.T) {
	clf, err := sharedClassifier()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngineWithClassifier(DefaultConfig(), clf)
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Locate(tr, "target"); err != nil {
		t.Errorf("Locate with injected classifier: %v", err)
	}
}

func TestNewNavigatorAndPosition(t *testing.T) {
	nav := NewNavigator(&estimate.Estimate{X: 3, H: 4})
	if nav.ArriveRadius <= 0 {
		t.Error("NewNavigator should set a default arrive radius")
	}
	if x, y := nav.Position(); x != 0 || y != 0 {
		t.Errorf("initial position (%g, %g)", x, y)
	}
	nav.Update(1, 0)
	if x, _ := nav.Position(); math.Abs(x-1) > 1e-12 {
		t.Errorf("position after one step x = %g", x)
	}
}

func TestLocateShortSecondLegDisambiguates(t *testing.T) {
	// A stunted second leg leaves the movement near-collinear; the
	// pipeline must fall back to the per-leg L-shape intersection
	// (firstTurnEnd → RunLShape) and still resolve the mirror side more
	// often than not.
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resolved, correctSide := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		sc := sim.Scenario{
			Beacons:      []sim.BeaconSpec{{Name: "target", X: 5, Y: 2.5}},
			ObserverPlan: imu.Plan{Segments: imu.LShape(0, 6, 1.4)},
			EnvModel:     sim.StaticEnv(rf.LOS),
			Seed:         seed,
		}
		tr, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.Locate(tr, "target")
		if err != nil {
			continue
		}
		if !m.Est.Ambiguous {
			resolved++
			if m.Est.H > 0 {
				correctSide++
			}
		}
	}
	if resolved == 0 {
		t.Skip("all runs stayed ambiguous for this geometry")
	}
	if correctSide*2 < resolved {
		t.Errorf("mirror resolution picked the wrong side in %d/%d resolved runs",
			resolved-correctSide, resolved)
	}
}
