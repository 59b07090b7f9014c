package core

import (
	"errors"
	"math"
	"testing"

	"locble/internal/estimate"
	"locble/internal/imu"
	"locble/internal/rf"
	"locble/internal/sim"
)

func TestTrackBeaconStationary(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A longer walk so several windows fit.
	sc := sim.Scenario{
		Beacons: []sim.BeaconSpec{{Name: "b", X: 6, Y: 3}},
		ObserverPlan: imu.Plan{Segments: []imu.Segment{
			{Heading: 0, Distance: 4},
			{Heading: math.Pi / 2, Distance: 4},
			{Heading: math.Pi, Distance: 4},
		}},
		EnvModel: sim.StaticEnv(rf.LOS),
		Seed:     3,
	}
	tr, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := eng.TrackBeacon(tr, "b", 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("only %d fixes over a %.1f s trace", len(pts), tr.Duration)
	}
	// Fix times strictly increase; full-fusion windows carry samples,
	// and any ladder re-emission is honestly labelled.
	for i, p := range pts {
		switch p.Mode {
		case ModeFull:
			if p.Samples < 8 {
				t.Errorf("fix %d has %d samples", i, p.Samples)
			}
		case ModeLastKnown:
			if !p.Health.Has(ReasonStaleFix) || p.Health.Status != HealthDegraded {
				t.Errorf("stale fix %d health = %v, want degraded stale-fix", i, p.Health)
			}
		default:
			t.Errorf("fix %d has unexpected mode %v", i, p.Mode)
		}
		if i > 0 && p.T <= pts[i-1].T {
			t.Fatal("fix times not increasing")
		}
	}
	// Most fixes should land near the stationary truth; at least the
	// median fix error should be small.
	var errs []float64
	for _, p := range pts {
		errs = append(errs, math.Hypot(p.Est.X-6, p.Est.H-3))
	}
	med := median(errs)
	if med > 3.0 {
		t.Errorf("median tracking error %.2f m", med)
	}
}

func TestTrackBeaconErrors(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TrackBeacon(tr, "nope", 6, 2); err == nil {
		t.Error("want error for unknown beacon")
	}
	// The replay session owns the window/step defaults: zero selects
	// them, a negative value is a configuration error.
	for _, ws := range [][2]float64{{-6, 2}, {6, -2}} {
		if _, err := eng.TrackBeacon(tr, "target", ws[0], ws[1]); !errors.Is(err, ErrSessionConfig) {
			t.Errorf("TrackBeacon(window=%g, step=%g) = %v, want ErrSessionConfig", ws[0], ws[1], err)
		}
	}
}

// TestTrackBeaconShortTrace: a trace shorter than one window still
// yields its fix — closing the replay emits the first due window,
// fitted on every fused observation.
func TestTrackBeaconShortTrace(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 1))
	if err != nil {
		t.Fatal(err)
	}
	window := tr.Duration + 10
	pts, err := eng.TrackBeacon(tr, "target", window, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.prepare(tr, "target")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Mode != ModeFull {
		t.Fatalf("got %d fixes (first mode %v), want exactly one full fix", len(pts), pts[0].Mode)
	}
	if got, want := pts[0].Samples, len(p.fused); got != want {
		t.Errorf("fix fitted %d samples, want all %d fused observations", got, want)
	}
	if got, want := pts[0].T, p.times[0]+window; got != want {
		t.Errorf("fix T = %v, want the first due time %v", got, want)
	}
}

func TestProximityRefinement(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Walk passes within ~0.7 m of the beacon: proximity must engage and
	// keep (or improve) accuracy.
	sc := sim.Scenario{
		Beacons:      []sim.BeaconSpec{{Name: "b", X: 2, Y: 0.7}},
		ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         4,
	}
	tr, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.Locate(tr, "b")
	if err != nil {
		t.Fatal(err)
	}
	refined := eng.RefineWithProximity(m, DefaultProximityFusionConfig())
	base := math.Hypot(m.Est.X-2, m.Est.H-0.7)
	ref := math.Hypot(refined.X-2, refined.H-0.7)
	t.Logf("base %.2f m → proximity-refined %.2f m", base, ref)
	if ref > base+0.75 {
		t.Errorf("proximity refinement made it clearly worse: %.2f vs %.2f", ref, base)
	}
}

func TestProximityDoesNotEngageFar(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(lshapeScenario(8, 5, sim.StaticEnv(rf.LOS), 5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.Locate(tr, "target")
	if err != nil {
		t.Fatal(err)
	}
	refined := eng.RefineWithProximity(m, DefaultProximityFusionConfig())
	if refined.X != m.Est.X || refined.H != m.Est.H {
		t.Error("proximity engaged although the walk never came near the beacon")
	}
}

func TestNavigatorResolveMirror(t *testing.T) {
	nav := &Navigator{ArriveRadius: 0.5}
	nav.Target.X, nav.Target.H = 4, 3 // wrong side
	nav.SetMirror(estimate.Candidate{X: 4, H: -3})
	// Observer walked to (2, 0); re-measured range says the target is
	// ~3.6 m away — both are 3.6 away from (2,0)... move to a position
	// that discriminates: (2, 2).
	nav.SetPose(2, 2, 0)
	// True beacon at (4, −3): range from (2,2) = √(4+25) = 5.39.
	if !nav.ResolveMirror(5.39) {
		t.Fatal("mirror should have been selected")
	}
	if nav.Target.H != -3 {
		t.Errorf("target after swap = (%g, %g)", nav.Target.X, nav.Target.H)
	}
	// Resolving again with a range matching the (now) target keeps it.
	if nav.ResolveMirror(5.39) {
		t.Error("should not swap back when the range matches the target")
	}
	// Without a mirror installed, ResolveMirror is a no-op.
	nav2 := &Navigator{}
	if nav2.ResolveMirror(3) {
		t.Error("no-mirror navigator must not swap")
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	return s[len(s)/2]
}

func TestLocateAllConcurrent(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Scenario{
		Beacons: []sim.BeaconSpec{
			{Name: "a", X: 5, Y: 2},
			{Name: "b", X: 6, Y: 3},
			{Name: "c", X: 2, Y: 5},
		},
		ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         7,
	}
	tr, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	results := eng.LocateAll(tr)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	// Name order and agreement with sequential Locate.
	for i, want := range []string{"a", "b", "c"} {
		if results[i].Name != want {
			t.Fatalf("result %d is %q", i, results[i].Name)
		}
		if results[i].Err != nil {
			continue
		}
		seq, err := eng.Locate(tr, want)
		if err != nil {
			t.Fatalf("sequential %s: %v", want, err)
		}
		if seq.Est.X != results[i].M.Est.X || seq.Est.H != results[i].M.Est.H {
			t.Errorf("%s: concurrent and sequential results differ", want)
		}
	}
}
