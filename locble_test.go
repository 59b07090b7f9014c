package locble_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"locble"
	"locble/internal/faults"
	"locble/internal/fleet"
	"locble/internal/imu"
	"locble/internal/netproto"
)

func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons:      []locble.BeaconSpec{{Name: "keys", X: 6, Y: 3}},
		ObserverPlan: locble.LShapeWalk(0, 4, 4),
		EnvModel:     locble.StaticEnv(locble.LOS),
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := sys.Locate(tr, "keys")
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Hypot(pos.X-6, pos.Y-3); e > 3 {
		t.Errorf("quickstart error %.2f m", e)
	}
	if pos.Range <= 0 || pos.Confidence < 0 || pos.Confidence > 1 {
		t.Errorf("implausible position fields: %+v", pos)
	}
}

func TestPublicAPIStraightWalkAmbiguity(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons:      []locble.BeaconSpec{{Name: "b", X: 4, Y: 3}},
		ObserverPlan: locble.StraightWalk(0, 7),
		EnvModel:     locble.StaticEnv(locble.LOS),
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := sys.Locate(tr, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !pos.Ambiguous {
		t.Skip("this seed resolved the ambiguity (no turn detected expected); skipping mirror check")
	}
	if pos.Mirror == nil {
		t.Fatal("ambiguous position without a mirror candidate")
	}
	// Mirror is reflected across the walking line (y ≈ −y).
	if math.Abs(pos.Mirror.Y+pos.Y) > 1.0 {
		t.Errorf("mirror (%.2f, %.2f) is not the reflection of (%.2f, %.2f)",
			pos.Mirror.X, pos.Mirror.Y, pos.X, pos.Y)
	}
}

func TestPublicAPICluster(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons: []locble.BeaconSpec{
			{Name: "b", X: 6, Y: 3},
			{Name: "n1", X: 6.3, Y: 3},
			{Name: "n2", X: 6, Y: 3.3},
		},
		ObserverPlan: locble.LShapeWalk(0, 4, 4),
		EnvModel:     locble.StaticEnv(locble.PLOS),
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, cres, err := sys.LocateCalibrated(tr, "b")
	if err != nil {
		t.Fatal(err)
	}
	if cres.ClusterSize < 1 {
		t.Error("cluster should at least contain the target")
	}
	if e := math.Hypot(pos.X-6, pos.Y-3); e > 4 {
		t.Errorf("calibrated error %.2f m", e)
	}
}

func TestPublicAPIOptions(t *testing.T) {
	for _, opt := range []locble.Option{
		locble.WithoutANF(),
		locble.WithoutEnvAware(),
		locble.WithStreamingANF(),
		locble.WithButterworthOrder(4),
		locble.WithLoss(locble.LossHuber),
		locble.WithoutDegradationLadder(),
	} {
		if _, err := locble.New(opt); err != nil {
			t.Errorf("New with option: %v", err)
		}
	}
}

// TestPublicAPIHostileData exercises the README's hostile-data story
// through the facade alone: a Huber-loss System flags a cloned beacon
// identity (ReasonBeaconAnomaly) while still producing a usable fix,
// an unusable IMU degrades to the RSS-only rung with Position.Mode
// saying so, and WithoutDegradationLadder restores the hard rejection.
func TestPublicAPIHostileData(t *testing.T) {
	simulate := func(seed int64) *locble.Trace {
		tr, err := locble.Simulate(locble.Scenario{
			Beacons:      []locble.BeaconSpec{{Name: "keys", X: 6, Y: 3}},
			ObserverPlan: locble.LShapeWalk(0, 4, 4),
			EnvModel:     locble.StaticEnv(locble.LOS),
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	sys, err := locble.New(locble.WithLoss(locble.LossHuber))
	if err != nil {
		t.Fatal(err)
	}

	tr := simulate(2)
	faults.Apply(tr, 2, faults.BeaconClone{OffsetDB: -25})
	pos, err := sys.Locate(tr, "keys")
	if err != nil {
		t.Fatalf("cloned beacon should degrade, not reject: %v", err)
	}
	if !pos.Health.Has(locble.ReasonBeaconAnomaly) {
		t.Errorf("cloned beacon not flagged: health %s", pos.Health)
	}
	if pos.Mode != locble.ModeFull {
		t.Errorf("clone case Mode = %s, want %s", pos.Mode, locble.ModeFull)
	}
	if e := math.Hypot(pos.X-6, pos.Y-3); e > 4 {
		t.Errorf("flagged clone fix error %.2f m — not survived", e)
	}

	tr = simulate(3)
	tr.IMU = &imu.Trace{} // inertial stream gone entirely
	pos, err = sys.Locate(tr, "keys")
	if err != nil {
		t.Fatalf("IMU loss should fall to the RSS-only rung: %v", err)
	}
	if pos.Mode != locble.ModeRSSOnly || !pos.Health.Has(locble.ReasonRSSOnlyFallback) {
		t.Errorf("RSS-only rung not reported: mode %s, health %s", pos.Mode, pos.Health)
	}

	strict, err := locble.New(locble.WithoutDegradationLadder())
	if err != nil {
		t.Fatal(err)
	}
	tr = simulate(3)
	tr.IMU = &imu.Trace{}
	if _, err := strict.Locate(tr, "keys"); err == nil {
		t.Error("ladder disabled: IMU loss must reject")
	} else if locble.HealthFromError(err).Status != locble.HealthRejected {
		t.Errorf("ladder disabled: want a rejection diagnosis, got %v", err)
	}
}

func TestPublicAPINavigator(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	nav := sys.Navigator(&locble.Position{X: 3, Y: 4})
	adv := nav.Advise()
	if math.Abs(adv.Distance-5) > 1e-9 {
		t.Errorf("navigator distance %.2f, want 5", adv.Distance)
	}
}

func TestPresetsExposed(t *testing.T) {
	if len(locble.Presets()) != 9 {
		t.Error("Presets() should expose the nine Table 1 environments")
	}
}

func TestPublicAPITrack(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons: []locble.BeaconSpec{{Name: "b", X: 6, Y: 2}},
		ObserverPlan: locble.WalkPlan{Segments: []locble.WalkSegment{
			{Heading: 0, Distance: 6},
			{Heading: math.Pi / 2, Distance: 4},
			{Heading: math.Pi, Distance: 6},
		}},
		EnvModel: locble.StaticEnv(locble.LOS),
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixes, err := sys.Track(tr, "b", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixes) < 3 {
		t.Fatalf("only %d fixes", len(fixes))
	}
	for i := 1; i < len(fixes); i++ {
		if fixes[i].T <= fixes[i-1].T {
			t.Fatal("fix times not increasing")
		}
	}
}

func TestPublicAPILocate3D(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons: []locble.BeaconSpec{{Name: "shelf", X: 5, Y: 2.5, Z: 1.5}},
		ObserverPlan: locble.WalkPlan{Segments: []locble.WalkSegment{
			{Heading: 0, Distance: 4},
			{Heading: math.Pi / 2, Distance: 4, Lift: 0.6},
			{Heading: math.Pi / 2, Lift: -1.2},
		}},
		EnvModel: locble.StaticEnv(locble.LOS),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := sys.Locate3D(tr, "shelf")
	if err != nil {
		t.Fatal(err)
	}
	if math.Hypot(pos.X-5, pos.Y-2.5) > 4 {
		t.Errorf("3-D planar estimate far off: (%.2f, %.2f, %.2f)", pos.X, pos.Y, pos.Z)
	}
}

func TestPublicAPITracePersistence(t *testing.T) {
	tr, err := locble.Simulate(locble.Scenario{
		Beacons:      []locble.BeaconSpec{{Name: "b", X: 6, Y: 3}},
		ObserverPlan: locble.LShapeWalk(0, 4, 4),
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := locble.SaveTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := locble.LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sys.Locate(tr, "b")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys.Locate(got, "b")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.X-p2.X) > 1e-9 || math.Abs(p1.Y-p2.Y) > 1e-9 {
		t.Error("replayed trace gives a different estimate")
	}
}

func TestPublicAPILocateNear(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons:      []locble.BeaconSpec{{Name: "b", X: 2, Y: 0.6}},
		ObserverPlan: locble.LShapeWalk(0, 4, 4),
		Seed:         10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, err := sys.LocateNear(tr, "b")
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Hypot(pos.X-2, pos.Y-0.6); e > 2.5 {
		t.Errorf("LocateNear error %.2f m", e)
	}
}

func TestPublicAPITrackSmoothed(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons: []locble.BeaconSpec{{Name: "b", X: 6, Y: 2}},
		ObserverPlan: locble.WalkPlan{Segments: []locble.WalkSegment{
			{Heading: 0, Distance: 6},
			{Heading: math.Pi / 2, Distance: 4},
			{Heading: math.Pi, Distance: 6},
		}},
		EnvModel: locble.StaticEnv(locble.LOS),
		Seed:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sys.Track(tr, "b", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := sys.TrackSmoothed(tr, "b", 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(smooth) != len(raw) {
		t.Fatalf("smoothed %d fixes vs raw %d", len(smooth), len(raw))
	}
	// Smoothed fixes jitter less: compare step-to-step movement.
	jitter := func(fs []locble.Fix) float64 {
		var s float64
		for i := 1; i < len(fs); i++ {
			s += math.Hypot(fs[i].Position.X-fs[i-1].Position.X, fs[i].Position.Y-fs[i-1].Position.Y)
		}
		return s
	}
	if jitter(smooth) >= jitter(raw) {
		t.Errorf("smoothed jitter %.2f should be below raw %.2f", jitter(smooth), jitter(raw))
	}
}

func TestPublicAPILocateAll(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := locble.Simulate(locble.Scenario{
		Beacons: []locble.BeaconSpec{
			{Name: "a", X: 5, Y: 2},
			{Name: "b", X: 2, Y: 5},
		},
		ObserverPlan: locble.LShapeWalk(0, 4, 4),
		Seed:         14,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := sys.LocateAll(tr)
	if len(all) == 0 {
		t.Fatal("LocateAll found nothing")
	}
	for name, pos := range all {
		if pos.Range <= 0 {
			t.Errorf("%s: bad range %g", name, pos.Range)
		}
	}
}

func TestPublicAPIFleet(t *testing.T) {
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}
	store := locble.NewMemStore()
	fl, err := sys.NewFleet(locble.FleetConfig{
		Session: locble.TrackSessionConfig{SampleRateHz: 8},
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n, slice = 240, 24
	streams := map[string][]locble.FleetObs{}
	for i, name := range []string{"cart-1", "cart-2", "cart-3"} {
		for _, o := range fleet.SynthStream(name, n, float64(i)) {
			streams[name] = append(streams[name], locble.FleetObs{
				Beacon: o.Beacon, T: o.T, RSS: o.RSS, P: o.P, Q: o.Q,
			})
		}
	}
	fixes := 0
	for lo := 0; lo < n; lo += slice {
		var batch []locble.FleetObs
		for _, s := range streams {
			batch = append(batch, s[lo:lo+slice]...)
		}
		res, err := fl.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Beacon, r.Err)
			}
			fixes += len(r.Points)
		}
	}
	if fixes == 0 {
		t.Fatal("fleet ingest produced no fixes")
	}
	if got := fl.Sessions(); got != 3 {
		t.Fatalf("Sessions() = %d, want 3", got)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 3 {
		t.Fatalf("store holds %d checkpoints after Close, want 3", store.Len())
	}

	// A successor fleet on the same store resumes every session.
	fl2, err := sys.NewFleet(locble.FleetConfig{
		Session: locble.TrackSessionConfig{SampleRateHz: 8},
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	var batch []locble.FleetObs
	for _, s := range streams {
		batch = append(batch, s[n-slice:]...)
	}
	res, err := fl2.PushBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Restored {
			t.Errorf("%s: successor fleet cold-started instead of restoring", r.Beacon)
		}
	}
}

// TestPublicAPIFileStore drives the durable checkpoint store through
// the facade: a fleet checkpoints to disk, the process "restarts"
// (store reopened from the same directory), and a successor fleet
// restores every session; recovery after a clean shutdown reports no
// damage.
func TestPublicAPIFileStore(t *testing.T) {
	dir := t.TempDir()
	sys, err := locble.New()
	if err != nil {
		t.Fatal(err)
	}

	st, err := locble.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable() {
		t.Fatal("default FileStore is not sync-durable")
	}
	fl, err := sys.NewFleet(locble.FleetConfig{
		Session: locble.TrackSessionConfig{SampleRateHz: 8},
		Store:   st,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n, half = 240, 120
	streams := map[string][]locble.FleetObs{}
	for i, name := range []string{"disk-1", "disk-2"} {
		for _, o := range fleet.SynthStream(name, n, 0.4*float64(i)) {
			streams[name] = append(streams[name], locble.FleetObs{
				Beacon: o.Beacon, T: o.T, RSS: o.RSS, P: o.P, Q: o.Q,
			})
		}
	}
	var batch []locble.FleetObs
	for _, s := range streams {
		batch = append(batch, s[:half]...)
	}
	if _, err := fl.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d checkpoints after Close, want 2", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen from the same directory.
	st2, err := locble.OpenFileStore(dir, &locble.FileStoreOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var rec locble.StoreRecoveryStats = st2.RecoveryStats()
	if rec.TornTails != 0 || rec.Quarantined != 0 {
		t.Fatalf("clean shutdown left damage: %+v", rec)
	}
	if st2.Len() != 2 {
		t.Fatalf("recovered %d checkpoints, want 2", st2.Len())
	}
	fl2, err := sys.NewFleet(locble.FleetConfig{
		Session: locble.TrackSessionConfig{SampleRateHz: 8},
		Store:   st2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	batch = batch[:0]
	for _, s := range streams {
		batch = append(batch, s[half:]...)
	}
	res, err := fl2.PushBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Beacon, r.Err)
		}
		if !r.Restored {
			t.Errorf("%s: cold start instead of durable restore", r.Beacon)
		}
		if r.Quarantined {
			t.Errorf("%s: wrongly quarantined", r.Beacon)
		}
	}
}

// TestPublicAPIRouter drives the multi-node facade: two loopback fleet
// servers behind locble.NewRouter, a routed batch, a drain, and the
// membership view.
func TestPublicAPIRouter(t *testing.T) {
	store := locble.NewMemStore()
	addrs := make([]string, 2)
	for i := range addrs {
		sys, err := locble.New()
		if err != nil {
			t.Fatal(err)
		}
		fl, err := sys.NewFleet(locble.FleetConfig{
			Session: locble.TrackSessionConfig{SampleRateHz: 8},
			Store:   store,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		srv, err := netproto.NewServer("api-node", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetFleet(fl)
		addrs[i] = srv.Addr()
	}
	rt, err := locble.NewRouter(addrs, locble.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx := context.Background()
	var batch []locble.FleetObs
	for _, name := range []string{"api-1", "api-2", "api-3"} {
		for _, o := range fleet.SynthStream(name, 24, 0.5) {
			batch = append(batch, locble.FleetObs{Beacon: o.Beacon, T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
		}
	}
	var results []locble.RouterResult
	results, err = rt.PushBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Beacon, r.Err)
		}
		if r.Degraded {
			t.Fatalf("%s degraded on a healthy cluster", r.Beacon)
		}
	}
	if _, err := rt.Drain(ctx, addrs[0]); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var sts []locble.RouterNodeStatus = rt.Nodes()
	if len(sts) != 2 || sts[0].State != "drained" || sts[1].State != "up" {
		t.Fatalf("node states = %+v, want [drained up]", sts)
	}
}
