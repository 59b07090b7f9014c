package core

import (
	"testing"

	"locble/internal/imu"
	"locble/internal/rf"
	"locble/internal/sim"
)

// Failure injection: malformed or degenerate traces must produce errors,
// never panics or silent garbage.

func TestLocateEmptyIMUFallsBackToRSSOnly(t *testing.T) {
	// The degradation ladder turns the historical hard rejection of a
	// trace without IMU samples into an honest RSS-only proximity fix.
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 1))
	if err != nil {
		t.Fatal(err)
	}
	broken := *tr
	broken.IMU = &imu.Trace{}
	m, err := eng.Locate(&broken, "target")
	if err != nil {
		t.Fatalf("want RSS-only fallback fix, got error: %v", err)
	}
	if m.Mode != ModeRSSOnly {
		t.Errorf("Mode = %v, want ModeRSSOnly", m.Mode)
	}
	if m.Health.Status != HealthDegraded {
		t.Errorf("Health = %v, want degraded", m.Health)
	}
	if !m.Health.Has(ReasonRSSOnlyFallback) || !m.Health.Has(ReasonIMUDropout) {
		t.Errorf("Health reasons = %v, want rss-only-fallback + imu-dropout", m.Health.Reasons)
	}
	if !m.Est.Ambiguous {
		t.Errorf("RSS-only fix must flag its unknown bearing as Ambiguous")
	}
	if r := m.Est.Range(); r <= 0 || r > eng.cfg.Estimator.MaxRange {
		t.Errorf("RSS-only range = %v, want within (0, %v]", r, eng.cfg.Estimator.MaxRange)
	}
}

func TestLocateRejectsTooFewObservations(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 1))
	if err != nil {
		t.Fatal(err)
	}
	truncated := *tr
	truncated.Observations = map[string][]sim.BeaconObservation{
		"target": tr.Observations["target"][:3],
	}
	if _, err := eng.Locate(&truncated, "target"); err == nil {
		t.Error("want error for 3 observations")
	}
}

func TestLocateHandlesConstantRSS(t *testing.T) {
	// All-identical RSSI (a stuck radio): the estimator must fail
	// gracefully, not hang or panic.
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 1))
	if err != nil {
		t.Fatal(err)
	}
	stuck := *tr
	obs := append([]sim.BeaconObservation(nil), tr.Observations["target"]...)
	for i := range obs {
		obs[i].RSSI = -70
	}
	stuck.Observations = map[string][]sim.BeaconObservation{"target": obs}
	// Either an error or some estimate is acceptable; what matters is no
	// panic and no NaN in the output.
	if m, err := eng.Locate(&stuck, "target"); err == nil {
		if m.Est.X != m.Est.X || m.Est.H != m.Est.H { // NaN check
			t.Error("constant RSS produced NaN estimate")
		}
	}
}

func TestLocateHandlesZeroSampleRatePhone(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(lshapeScenario(6, 3, sim.StaticEnv(rf.LOS), 2))
	if err != nil {
		t.Fatal(err)
	}
	weird := *tr
	weird.Phone.SampleRateHz = 0 // the ANF design must fall back, not div/0
	if _, err := eng.Locate(&weird, "target"); err != nil {
		t.Errorf("zero sample rate should fall back to a default: %v", err)
	}
}
