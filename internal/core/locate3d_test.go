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

// lshape3DPlan is the paper's proposed 3-D gesture: L-shaped walk plus an
// app-guided phone raise on the second leg and a final lift in place.
func lshape3DPlan() imu.Plan {
	return imu.Plan{Segments: []imu.Segment{
		{Heading: 0, Distance: 4},
		{Heading: math.Pi / 2, Distance: 4, Lift: 0.6},
		{Heading: math.Pi / 2, Lift: -1.2},
	}}
}

func TestLocate3DRecoversHeight(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var zErrs, xyErrs []float64
	for seed := int64(1); seed <= 8; seed++ {
		sc := sim.Scenario{
			Beacons:      []sim.BeaconSpec{{Name: "shelf", X: 5, Y: 2.5, Z: 1.5}},
			ObserverPlan: lshape3DPlan(),
			EnvModel:     sim.StaticEnv(rf.LOS),
			Seed:         seed,
		}
		tr, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		est, err := eng.Locate3D(tr, "shelf")
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			continue
		}
		zErrs = append(zErrs, math.Abs(est.Z-1.5))
		xyErrs = append(xyErrs, math.Hypot(est.X-5, est.H-2.5))
		t.Logf("seed %d: est (%.2f, %.2f, %.2f)", seed, est.X, est.H, est.Z)
	}
	if len(zErrs) < 5 {
		t.Fatalf("only %d successful 3-D estimates", len(zErrs))
	}
	if m := median(xyErrs); m > 2.5 {
		t.Errorf("median 2-D error %.2f m in 3-D mode", m)
	}
	// The vertical baseline is short (~1 m of lift), so height is the
	// weakest axis; the paper leaves 3-D as future work. Require the
	// median height error to beat the no-information baseline (always
	// guessing plane height, error 1.5 m).
	if m := median(zErrs); m > 1.5 {
		t.Errorf("median height error %.2f m — no better than guessing the carry plane", m)
	}
}

func TestLocate3DUnknownBeacon(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(sim.Scenario{
		Beacons:      []sim.BeaconSpec{{Name: "b", X: 5, Y: 2}},
		ObserverPlan: lshape3DPlan(),
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Locate3D(tr, "nope"); err == nil {
		t.Error("want error for unknown beacon")
	}
}

// lshape3DTrace simulates the 3-D gesture past one shelf beacon.
func lshape3DTrace(t *testing.T, seed int64) *sim.Trace {
	t.Helper()
	tr, err := sim.Run(sim.Scenario{
		Beacons:      []sim.BeaconSpec{{Name: "shelf", X: 5, Y: 2.5, Z: 1.5}},
		ObserverPlan: lshape3DPlan(),
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestLocate3DNilIMURejected: a trace without an inertial stream is
// rejected with imu-dropout, like Locate's front half, not a panic.
func TestLocate3DNilIMURejected(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := lshape3DTrace(t, 1)
	tr.IMU = nil
	_, err = eng.Locate3D(tr, "shelf")
	var re *RejectedError
	if !errors.As(err, &re) || !re.Health.Has(ReasonIMUDropout) {
		t.Fatalf("Locate3D with nil IMU = %v, want a *RejectedError carrying %s", err, ReasonIMUDropout)
	}
}

// TestLocate3DSanitizesNaN: the sanitizer drops NaN readings before the
// zero-phase filter can smear them over the series, so a poisoned trace
// fits exactly like one where those readings never arrived, and four
// readings fewer out of ~100 barely move the fix.
func TestLocate3DSanitizesNaN(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := lshape3DTrace(t, 1)
	clean, err := eng.Locate3D(tr, "shelf")
	if err != nil {
		t.Fatalf("clean trace: %v", err)
	}
	all := tr.Observations["shelf"]
	poisonedObs := append([]sim.BeaconObservation(nil), all...)
	var absentObs []sim.BeaconObservation
	for i, o := range all {
		if k := i - len(all)/2; k >= 0 && k < 8 && k%2 == 0 {
			poisonedObs[i].RSSI = math.NaN()
			continue
		}
		absentObs = append(absentObs, o)
	}
	locate := func(obs []sim.BeaconObservation) *estimate.Estimate3D {
		t.Helper()
		tr2 := *tr
		tr2.Observations = map[string][]sim.BeaconObservation{"shelf": obs}
		est, err := eng.Locate3D(&tr2, "shelf")
		if err != nil {
			t.Fatalf("Locate3D on %d readings: %v", len(obs), err)
		}
		return est
	}
	got, absent := locate(poisonedObs), locate(absentObs)
	if got.X != absent.X || got.H != absent.H || got.Z != absent.Z {
		t.Errorf("NaN readings fit (%v, %v, %v), absent readings (%v, %v, %v)",
			got.X, got.H, got.Z, absent.X, absent.H, absent.Z)
	}
	if d := math.Sqrt(math.Pow(got.X-clean.X, 2) + math.Pow(got.H-clean.H, 2) + math.Pow(got.Z-clean.Z, 2)); d > 0.1 {
		t.Errorf("NaN readings moved the fix by %.3f m: (%.3f, %.3f, %.3f) vs clean (%.3f, %.3f, %.3f)",
			d, got.X, got.H, got.Z, clean.X, clean.H, clean.Z)
	}
}
