package main

import (
	"os"
	"path/filepath"
	"testing"

	"locble"
)

func TestRunEndToEnd(t *testing.T) {
	if err := run(6, 3, "los", "iphone6s", "estimote", 1, "squared", "", false, false, false, false, false); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithNavigation(t *testing.T) {
	if err := run(5, 2, "plos", "nexus6p", "radbeacon", 2, "squared", "", true, false, false, false, true); err != nil {
		t.Fatalf("run -navigate: %v", err)
	}
}

func TestRunTrackMode(t *testing.T) {
	if err := run(6, 3, "los", "iphone6s", "estimote", 3, "squared", "", false, true, false, false, false); err != nil {
		t.Fatalf("run -track: %v", err)
	}
}

func TestRunClusterMode(t *testing.T) {
	if err := run(6, 3, "los", "iphone6s", "estimote", 4, "squared", "", false, false, true, false, true); err != nil {
		t.Fatalf("run -cluster: %v", err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if err := run(6, 3, "vacuum", "iphone6s", "estimote", 1, "squared", "", false, false, false, false, false); err == nil {
		t.Error("want error for unknown environment")
	}
	if err := run(6, 3, "los", "rotaryphone", "estimote", 1, "squared", "", false, false, false, false, false); err == nil {
		t.Error("want error for unknown phone")
	}
	if err := run(6, 3, "los", "iphone6s", "smoke-signal", 1, "squared", "", false, false, false, false, false); err == nil {
		t.Error("want error for unknown beacon")
	}
	if err := run(6, 3, "los", "iphone6s", "estimote", 1, "hinge", "", false, false, false, false, false); err == nil {
		t.Error("want error for unknown loss")
	}
	if err := run(6, 3, "los", "iphone6s", "estimote", 1, "squared", "gremlins", false, false, false, false, false); err == nil {
		t.Error("want error for unknown fault injector")
	}
}

func TestRunWithFaults(t *testing.T) {
	// Degraded but recoverable input must still produce an estimate.
	if err := run(6, 3, "los", "iphone6s", "estimote", 1, "squared", "nan,dropout", false, false, false, false, false); err != nil {
		t.Fatalf("run -faults nan,dropout: %v", err)
	}
	// An unusable input is reported as rejected, not a CLI failure.
	if err := run(6, 3, "los", "iphone6s", "estimote", 1, "squared", "truncate", false, false, false, false, false); err != nil {
		t.Fatalf("run -faults truncate: %v", err)
	}
}

func TestRunRobustLossUnderHostileFaults(t *testing.T) {
	// The headline robustness demo: impulsive interference plus a
	// coordinated outlier run, survived by Huber IRLS.
	if err := run(6, 3, "los", "iphone6s", "estimote", 1, "huber", "impulse,outliers", false, false, false, false, true); err != nil {
		t.Fatalf("run -loss huber -faults impulse,outliers: %v", err)
	}
	// A cloned beacon identity must be reported, not crash the CLI.
	if err := run(6, 3, "los", "iphone6s", "estimote", 2, "tukey", "clone", false, false, false, false, false); err != nil {
		t.Fatalf("run -loss tukey -faults clone: %v", err)
	}
	if err := run(6, 3, "los", "iphone6s", "estimote", 3, "huber", "decay", false, false, false, false, false); err != nil {
		t.Fatalf("run -loss huber -faults decay: %v", err)
	}
}

func TestReplayRoundTrip(t *testing.T) {
	tr, err := locble.Simulate(locble.Scenario{
		Beacons:      []locble.BeaconSpec{{Name: "target", X: 6, Y: 3}},
		ObserverPlan: locble.LShapeWalk(0, 4, 4),
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := locble.SaveTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := runReplay(path, true, true); err != nil {
		t.Fatalf("runReplay: %v", err)
	}
	if err := runReplay(filepath.Join(t.TempDir(), "missing.trace"), false, false); err == nil {
		t.Error("want error for missing file")
	}
}

// TestRunFleetDurableStore runs the fleet demo twice over the same
// -store directory: the second run must recover the first run's
// checkpoints from disk.
func TestRunFleetDurableStore(t *testing.T) {
	dir := t.TempDir()
	if err := runFleet(2, dir, false, false); err != nil {
		t.Fatalf("runFleet (first run): %v", err)
	}
	st, err := locble.NewFileStore(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if st.Len() == 0 {
		t.Fatal("first run left no checkpoints on disk")
	}
	if rec := st.RecoveryStats(); rec.TornTails != 0 || rec.Quarantined != 0 {
		t.Fatalf("clean run left damage: %+v", rec)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}
	if err := runFleet(2, dir, false, false); err != nil {
		t.Fatalf("runFleet (recovered run): %v", err)
	}
}

// TestRunRouterLoopback runs the multi-node demo end to end: a 3-node
// loopback cluster over a shared durable store, with the mid-run drain
// and handoff.
func TestRunRouterLoopback(t *testing.T) {
	if err := runRouter("3", 6, t.TempDir(), "", true, false); err != nil {
		t.Fatalf("runRouter: %v", err)
	}
}

// TestRunRouterBadSpec: degenerate cluster specs are reported, not run.
func TestRunRouterBadSpec(t *testing.T) {
	if err := runRouter("1", 4, "", "", false, false); err == nil {
		t.Error("want error for a 1-node cluster")
	}
	if err := runRouter("a:1,a:1", 4, "", "", false, false); err == nil {
		t.Error("want error for duplicate addresses")
	}
}
