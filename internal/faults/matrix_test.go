package faults_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"locble/internal/core"
	"locble/internal/faults"
	"locble/internal/imu"
	"locble/internal/netproto"
	"locble/internal/rf"
	"locble/internal/sim"
)

// The fault matrix: every injector runs against the full Locate and
// TrackBeacon pipelines. The contract under test is graceful
// degradation — no panic, no non-finite estimate, and a health
// classification that matches the injected impairment:
//
//   - clean input        → exactly HealthOK
//   - recoverable damage → HealthDegraded with the matching reason
//   - unusable input     → *RejectedError (never a silently bogus fix)

type matrixCase struct {
	name  string
	fault faults.Fault
	// allowed is the set of acceptable health statuses.
	allowed map[core.HealthStatus]bool
	// reason, when set, must appear in the health report whenever the
	// outcome is degraded or rejected.
	reason core.HealthReason
}

func matrixScenario(seed int64) sim.Scenario {
	return sim.Scenario{
		Beacons:      []sim.BeaconSpec{{Name: "target", X: 6, Y: 3}},
		ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         seed,
	}
}

func only(ss ...core.HealthStatus) map[core.HealthStatus]bool {
	m := make(map[core.HealthStatus]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

func matrixCases() []matrixCase {
	ok := only(core.HealthOK)
	okOrDeg := only(core.HealthOK, core.HealthDegraded)
	deg := only(core.HealthDegraded)
	degOrRej := only(core.HealthDegraded, core.HealthRejected)
	rej := only(core.HealthRejected)
	return []matrixCase{
		{name: "clean", fault: nil, allowed: ok},
		{name: "dropout-burst", fault: faults.DropoutBurst{Start: 3, Duration: 2},
			allowed: deg, reason: core.ReasonRSSGaps},
		{name: "scanner-stall", fault: faults.ScannerStall{Start: 2, Duration: 1.5},
			allowed: deg, reason: core.ReasonRSSGaps},
		{name: "random-drop", fault: faults.RandomDrop{Prob: 0.3}, allowed: okOrDeg},
		{name: "non-finite-rssi", fault: faults.NonFiniteRSSI{Prob: 0.3},
			allowed: deg, reason: core.ReasonNonFiniteRSS},
		{name: "clip-rssi", fault: faults.ClipRSSI{Floor: -72, Ceil: -58}, allowed: degOrRej},
		{name: "duplicates", fault: faults.DuplicateReports{Prob: 0.4}, allowed: okOrDeg},
		{name: "reorder", fault: faults.ReorderReports{Window: 6}, allowed: okOrDeg},
		{name: "clock-skew", fault: faults.ClockSkew{Offset: 4},
			allowed: deg, reason: core.ReasonClockSkew},
		{name: "time-jitter", fault: faults.JitterTimestamps{Sigma: 0.05}, allowed: okOrDeg},
		{name: "truncate", fault: faults.TruncateWindow{Keep: 2.5},
			allowed: rej, reason: core.ReasonShortWindow},
		{name: "impulse-burst", fault: faults.ImpulseBurst{Start: 2, Duration: 4, Prob: 0.2, DeltaDB: 20},
			allowed: okOrDeg},
		{name: "beacon-clone", fault: faults.BeaconClone{OffsetDB: -25},
			allowed: deg, reason: core.ReasonBeaconAnomaly},
		{name: "txpower-decay", fault: faults.TxPowerDecay{Start: 1, RatePerS: 1.5}, allowed: okOrDeg},
		{name: "outlier-run", fault: faults.OutlierRun{Start: 3, Duration: 1.5, DeltaDB: 18},
			allowed: okOrDeg},
		{name: "imu-dropout", fault: faults.IMUDropout{Start: 4, Duration: 2},
			allowed: degOrRej, reason: core.ReasonIMUDropout},
		{name: "imu-saturate", fault: faults.IMUSaturate{MaxAccel: 9}, allowed: degOrRej},
		{name: "corrupt-pdu", fault: faults.CorruptPDU{BitProb: 0.01}, allowed: okOrDeg},
		{name: "stall+nan", fault: faults.Chain(
			faults.DropoutBurst{Start: 3, Duration: 1.5},
			faults.NonFiniteRSSI{Prob: 0.15},
		), allowed: deg, reason: core.ReasonNonFiniteRSS},
		{name: "drop+jitter+dupes", fault: faults.Chain(
			faults.RandomDrop{Prob: 0.2},
			faults.JitterTimestamps{Sigma: 0.02},
			faults.DuplicateReports{Prob: 0.2},
		), allowed: okOrDeg},
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkOutcome validates one pipeline run against the case's contract.
func checkOutcome(t *testing.T, tc matrixCase, h core.Health, err error) {
	t.Helper()
	if err != nil {
		var re *core.RejectedError
		if !errors.As(err, &re) {
			t.Fatalf("non-rejection error escaped the pipeline: %v", err)
		}
		h = re.Health
		if h.Status != core.HealthRejected {
			t.Fatalf("RejectedError carries status %s", h)
		}
	}
	if !tc.allowed[h.Status] {
		t.Errorf("health = %s, allowed %v", h, tc.allowed)
	}
	if tc.reason != "" && h.Status != core.HealthOK && !h.Has(tc.reason) {
		t.Errorf("health %s is missing reason %s", h, tc.reason)
	}
}

func TestFaultMatrixLocate(t *testing.T) {
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range matrixCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				tr, err := sim.Run(matrixScenario(seed))
				if err != nil {
					t.Fatal(err)
				}
				if tc.fault != nil {
					faults.Apply(tr, 100+seed, tc.fault)
				}
				m, err := eng.Locate(tr, "target")
				if err != nil {
					checkOutcome(t, tc, core.Health{}, err)
					continue
				}
				checkOutcome(t, tc, m.Health, nil)
				if !finite(m.Est.X, m.Est.H, m.Est.N, m.Est.Gamma, m.Est.Confidence) {
					t.Errorf("seed %d: non-finite estimate escaped: %+v", seed, m.Est)
				}
			}
		})
	}
}

func TestFaultMatrixTrack(t *testing.T) {
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range matrixCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				tr, err := sim.Run(matrixScenario(seed))
				if err != nil {
					t.Fatal(err)
				}
				if tc.fault != nil {
					faults.Apply(tr, 200+seed, tc.fault)
				}
				pts, err := eng.TrackBeacon(tr, "target", 6, 2)
				if err != nil {
					checkOutcome(t, tc, core.Health{}, err)
					continue
				}
				if len(pts) == 0 {
					t.Fatalf("seed %d: no error but no fixes either", seed)
				}
				checkOutcome(t, tc, pts[0].Health, nil)
				for _, p := range pts {
					if !finite(p.Est.X, p.Est.H) {
						t.Errorf("seed %d: non-finite fix at t=%.1f", seed, p.T)
					}
				}
			}
		})
	}
}

// TestFaultMatrixStream pushes a poisoned observation stream through the
// netproto live stream: whatever the injectors did, a subscriber must
// only ever see finite values.
func TestFaultMatrixStream(t *testing.T) {
	tr, err := sim.Run(matrixScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	obs := faults.ApplyRSS(tr.Observations["target"], 7,
		faults.NonFiniteRSSI{Prob: 0.3},
		faults.DuplicateReports{Prob: 0.2},
		faults.JitterTimestamps{Sigma: 0.1},
		faults.ImpulseBurst{Prob: 0.15, DeltaDB: 25},
	)
	if len(obs) == 0 {
		t.Fatal("injectors consumed the whole stream")
	}

	srv, err := netproto.NewServer("tgt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Publish in batches, as a live scanner would.
	const batch = 16
	for lo := 0; lo < len(obs); lo += batch {
		hi := lo + batch
		if hi > len(obs) {
			hi = len(obs)
		}
		rss := make([]netproto.TimedRSS, 0, hi-lo)
		for _, o := range obs[lo:hi] {
			rss = append(rss, netproto.TimedRSS{T: o.T, RSS: o.RSSI, Chan: o.Channel})
		}
		if err := srv.Publish(rss, nil, hi == len(obs)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, err := netproto.Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	for b := range ch {
		for _, r := range b.RSS {
			received++
			if !finite(r.T, r.RSS) {
				t.Fatalf("non-finite reading crossed the wire: %+v", r)
			}
		}
	}
	if received == 0 {
		t.Fatal("sanitization dropped every reading")
	}
	if received >= len(obs) {
		t.Errorf("stream delivered %d of %d readings — poisoned ones should have been dropped", received, len(obs))
	}
}
