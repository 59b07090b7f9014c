package pipebench

import (
	"encoding/json"
	"strings"
	"testing"

	"locble"
)

// solverWork is the process counters the gate reads, as seed 1 with 25
// trials leaves them.
func solverWork() locble.Metrics {
	return locble.Metrics{Counters: map[string]int64{
		"estimate.runs":          4026,
		"estimate.nm.calls":      99_529,
		"estimate.nm.iterations": 980_170,
	}}
}

func baseReport() *Report {
	return &Report{
		Located:     75,
		WallSeconds: 0.30,
		AllocsPerOp: 100_000,
		Error:       ErrStats{N: 75, MeanM: 2.0, P50M: 1.5, P90M: 4.3, WorstM: 9.2},
		IRLS: &IRLSStats{
			Loss:        "huber",
			WallSeconds: 0.35,
			AllocsPerOp: 110_000,
			Error:       ErrStats{N: 75, MeanM: 2.1, P50M: 1.6, P90M: 4.5, WorstM: 9.4},
		},
		Fleet: &FleetStats{
			Beacons:      24,
			Shards:       8,
			ObsPushed:    9600,
			Fixes:        600,
			WallSeconds:  0.12,
			AllocsPerObs: 8.5,
		},
		Durability: &DurabilityStats{
			Sessions:            1024,
			SyncSavesPerSecond:  4000,
			GroupSavesPerSecond: 22000,
			RecoveryWallSeconds: 0.05,
			Recovered:           1024,
			Replayed:            1120,
		},
		Router: &RouterStats{
			Nodes:             3,
			Beacons:           24,
			ObsRouted:         7680,
			Fixes:             580,
			SingleWallSeconds: 0.40,
			RoutedWallSeconds: 0.30,
			DrainWallSeconds:  0.02,
			DrainedSessions:   7,
		},
		Wire: &WireStats{
			ObsPerFrame: 384,
			Beacons:     24,
			JSON:        WireCodecStats{Codec: "json", FramesPerSecond: 9_000, BytesPerObs: 110, AllocsPerFrame: 400},
			Binary:      WireCodecStats{Codec: "locb1", FramesPerSecond: 45_000, BytesPerObs: 34, EncodeAllocsPerFrame: 0, AllocsPerFrame: 3},
			SpeedupX:    5.0,
			AllocRatioX: 130,
		},
		Process: solverWork(),
	}
}

func baseBaseline() *Report {
	return &Report{
		Located:     75,
		WallSeconds: 0.354,
		AllocsPerOp: 100_000,
		Error:       ErrStats{N: 75, MeanM: 2.0, P50M: 1.5, P90M: 4.3, WorstM: 9.2},
		IRLS: &IRLSStats{
			Loss:        "huber",
			WallSeconds: 0.40,
			AllocsPerOp: 110_000,
			Error:       ErrStats{N: 75, MeanM: 2.1, P50M: 1.6, P90M: 4.5, WorstM: 9.4},
		},
		Fleet: &FleetStats{
			Beacons:      24,
			Shards:       8,
			ObsPushed:    9600,
			Fixes:        600,
			WallSeconds:  0.13,
			AllocsPerObs: 9.0,
		},
		Durability: &DurabilityStats{
			Sessions:            1024,
			SyncSavesPerSecond:  3800,
			GroupSavesPerSecond: 21000,
			RecoveryWallSeconds: 0.06,
			Recovered:           1024,
			Replayed:            1120,
		},
		Router: &RouterStats{
			Nodes:             3,
			Beacons:           24,
			ObsRouted:         7680,
			Fixes:             580,
			SingleWallSeconds: 0.42,
			RoutedWallSeconds: 0.32,
			DrainWallSeconds:  0.025,
			DrainedSessions:   9,
		},
		Wire: &WireStats{
			ObsPerFrame: 384,
			Beacons:     24,
			JSON:        WireCodecStats{Codec: "json", FramesPerSecond: 8_800, BytesPerObs: 110, AllocsPerFrame: 400},
			Binary:      WireCodecStats{Codec: "locb1", FramesPerSecond: 44_000, BytesPerObs: 34, EncodeAllocsPerFrame: 0, AllocsPerFrame: 3},
			SpeedupX:    5.0,
			AllocRatioX: 130,
		},
		Process: solverWork(),
	}
}

// doc is v as the gate reads it: marshaled to JSON and decoded by path.
// It also deep-copies a Doc.
func doc(t *testing.T, v any) Doc {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// set writes v at path in d; a nil v deletes the key.
func set(d Doc, path []string, v any) {
	m := map[string]any(d)
	for _, k := range path[:len(path)-1] {
		m = m[k].(map[string]any)
	}
	if v == nil {
		delete(m, path[len(path)-1])
		return
	}
	m[path[len(path)-1]] = v
}

func gate(t *testing.T, got, base any) []string {
	t.Helper()
	return Gate(doc(t, got), doc(t, base), DefaultTolerances())
}

// names reports whether v is exactly one violation, of the check on
// path.
func names(v []string, path string) bool {
	return len(v) == 1 && strings.HasPrefix(v[0], path+" ")
}

func TestGatePassesAtBaseline(t *testing.T) {
	if v := gate(t, baseReport(), baseBaseline()); len(v) != 0 {
		t.Fatalf("violations for a matching run: %v", v)
	}
}

func TestGateCatchesEachAxis(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		path   string
	}{
		{"wall", func(r *Report) { r.WallSeconds = 0.5 }, "wall_seconds"},
		{"allocs", func(r *Report) { r.AllocsPerOp = 200_000 }, "allocs_per_op"},
		{"mean", func(r *Report) { r.Error.MeanM = 2.5 }, "estimate_error_m.mean_m"},
		{"p90", func(r *Report) { r.Error.P90M = 5.5 }, "estimate_error_m.p90_m"},
		{"lost fixes", func(r *Report) { r.Located = 70 }, "located"},
		{"irls warm allocs", func(r *Report) { r.IRLS.WarmFitAllocsPerOp = 3 }, "irls.warm_fit_allocs_per_op"},
		{"irls wall", func(r *Report) { r.IRLS.WallSeconds = 0.6 }, "irls.wall_seconds"},
		{"irls allocs", func(r *Report) { r.IRLS.AllocsPerOp = 200_000 }, "irls.allocs_per_op"},
		{"irls mean", func(r *Report) { r.IRLS.Error.MeanM = 2.6 }, "irls.estimate_error_m.mean_m"},
		{"irls dropped", func(r *Report) { r.IRLS = nil }, "irls"},
		{"fleet wall", func(r *Report) { r.Fleet.WallSeconds = 0.2 }, "fleet.wall_seconds"},
		{"fleet allocs", func(r *Report) { r.Fleet.AllocsPerObs = 20 }, "fleet.allocs_per_obs"},
		{"fleet lost fixes", func(r *Report) { r.Fleet.Fixes = 500 }, "fleet.fixes"},
		{"fleet dropped", func(r *Report) { r.Fleet = nil }, "fleet"},
		{"dur sync throughput", func(r *Report) { r.Durability.SyncSavesPerSecond = 1000 }, "durability.sync_saves_per_second"},
		{"dur group throughput", func(r *Report) { r.Durability.GroupSavesPerSecond = 5000 }, "durability.group_saves_per_second"},
		{"dur recovery wall", func(r *Report) { r.Durability.RecoveryWallSeconds = 0.5 }, "durability.recovery_wall_seconds"},
		{"dur lost sessions", func(r *Report) { r.Durability.Recovered = 900 }, "durability.recovered"},
		{"dur torn", func(r *Report) { r.Durability.TornTails = 1 }, "durability.torn_tails"},
		{"dur quarantined", func(r *Report) { r.Durability.Quarantined = 2 }, "durability.quarantined"},
		{"dur dropped", func(r *Report) { r.Durability = nil }, "durability"},
		{"router fixes lost", func(r *Report) { r.Router.FixesLost = 3 }, "router.fixes_lost"},
		{"router degraded", func(r *Report) { r.Router.Degraded = 2 }, "router.degraded"},
		{"router empty drain", func(r *Report) { r.Router.DrainedSessions = 0 }, "router.drained_sessions"},
		{"router routed wall", func(r *Report) { r.Router.RoutedWallSeconds = 0.5 }, "router.routed_wall_seconds"},
		{"router single wall", func(r *Report) { r.Router.SingleWallSeconds = 0.7 }, "router.single_wall_seconds"},
		{"router drain wall", func(r *Report) { r.Router.DrainWallSeconds = 0.2 }, "router.drain_wall_seconds"},
		{"router fewer fixes", func(r *Report) { r.Router.Fixes = 500 }, "router.fixes"},
		{"router dropped", func(r *Report) { r.Router = nil }, "router"},
		{"wire speedup floor", func(r *Report) { r.Wire.SpeedupX = 1.5 }, "wire.speedup_x"},
		{"wire alloc ratio floor", func(r *Report) { r.Wire.AllocRatioX = 3 }, "wire.alloc_ratio_x"},
		{"wire encode allocs", func(r *Report) { r.Wire.Binary.EncodeAllocsPerFrame = 2 }, "wire.binary.encode_allocs_per_frame"},
		{"wire throughput", func(r *Report) { r.Wire.Binary.FramesPerSecond = 20_000 }, "wire.binary.frames_per_second"},
		{"wire frame size", func(r *Report) { r.Wire.Binary.BytesPerObs = 50 }, "wire.binary.bytes_per_obs"},
		{"wire dropped", func(r *Report) { r.Wire = nil }, "wire"},
		{"solver iterations +6%", func(r *Report) { r.Process.Counters["estimate.nm.iterations"] = 1_038_981 }, "process_metrics.counters.estimate.nm.iterations"},
		{"solver counter dropped", func(r *Report) { delete(r.Process.Counters, "estimate.nm.calls") }, "process_metrics.counters.estimate.nm.calls"},
		{"process metrics dropped", func(r *Report) { r.Process = locble.Metrics{} }, "process_metrics.counters"},
	}
	for _, tc := range cases {
		r := baseReport()
		tc.mutate(r)
		if v := gate(t, r, baseBaseline()); !names(v, tc.path) {
			t.Errorf("%s: violations = %v, want one naming %q", tc.name, v, tc.path)
		}
	}
}

// TestGateRowsAreArmed keeps a renamed JSON tag or a stale baseline
// from switching a row off: every row's path must resolve in the
// committed BENCH_pr4.json and in a fully populated Report, and a value
// just past a row's bound must fail that row alone, while the bound
// itself passes.
func TestGateRowsAreArmed(t *testing.T) {
	committed, err := Load("../../BENCH_pr4.json")
	if err != nil {
		t.Fatal(err)
	}
	full := doc(t, baseReport())
	tol := DefaultTolerances()
	if v := Gate(committed, committed, tol); len(v) != 0 {
		t.Fatalf("BENCH_pr4.json against itself: %v", v)
	}
	for _, r := range rows(tol) {
		name := strings.Join(r.path, ".")
		if _, _, ok := full.find(r.path); !ok {
			t.Errorf("%s: not in a fully populated Report", name)
		}
		b, _, ok := committed.find(r.path)
		if !ok {
			t.Errorf("%s: not in BENCH_pr4.json", name)
			continue
		}
		var pass, fail float64
		switch r.op {
		case "":
			pass = r.limit(b)
			fail = pass + float64(r.worse)*1e-9*max(1, pass)
		case "==":
			pass, fail = r.bound, r.bound+1e-9
		case ">=":
			pass, fail = r.bound, r.bound-1e-9
		case "<":
			pass, fail = r.bound-1e-9, r.bound
		}
		got := doc(t, committed)
		set(got, r.path, pass)
		if v := Gate(got, committed, tol); len(v) != 0 {
			t.Errorf("%s = %g (at its bound): violations %v", name, pass, v)
		}
		set(got, r.path, fail)
		if v := Gate(got, committed, tol); !names(v, name) {
			t.Errorf("%s = %g (past its bound): violations %v, want one naming it", name, fail, v)
		}
	}
}

type edit struct {
	path []string
	v    float64
}

// disarmed pins the first generic rule for one baseline edit: with the
// baseline lacking path (or reading 0 there when zero is set), the
// relative rows that the ignored edits break stay disarmed, while each
// enforced edit still fails its fixed row alone.
func disarmed(t *testing.T, path []string, zero bool, ignored, enforced []edit) {
	t.Helper()
	base := doc(t, baseBaseline())
	if zero {
		set(base, path, 0.0)
	} else {
		set(base, path, nil)
	}
	got := doc(t, baseReport())
	for _, e := range ignored {
		set(got, e.path, e.v)
	}
	if v := Gate(got, base, DefaultTolerances()); len(v) != 0 {
		t.Errorf("violations %v, want the relative rows disarmed", v)
	}
	for _, e := range enforced {
		bad := doc(t, got)
		set(bad, e.path, e.v)
		name := strings.Join(e.path, ".")
		if v := Gate(bad, base, DefaultTolerances()); !names(v, name) {
			t.Errorf("%s = %g gave %v, want one violation naming it", name, e.v, v)
		}
	}
}

// BENCH_pr2.json predates allocs_per_op: a zero baseline number
// disarms its row instead of failing every run.
func TestGateSkipsAbsentBaselineFields(t *testing.T) {
	disarmed(t, keys("allocs_per_op"), true, []edit{{keys("allocs_per_op"), 1e7}}, nil)
}

// A baseline older than a section disarms that section's relative
// rows; its fixed rows still hold the report.
func TestGateIRLSAgainstLegacyBaseline(t *testing.T) {
	disarmed(t, keys("irls"), false,
		[]edit{{keys("irls", "wall_seconds"), 99}},
		[]edit{{keys("irls", "warm_fit_allocs_per_op"), 1}})
}

func TestGateFleetAgainstLegacyBaseline(t *testing.T) {
	disarmed(t, keys("fleet"), false,
		[]edit{{keys("fleet", "wall_seconds"), 99}, {keys("fleet", "allocs_per_obs"), 9999}, {keys("fleet", "fixes"), 0}},
		nil)
}

func TestGateDurabilityAgainstLegacyBaseline(t *testing.T) {
	disarmed(t, keys("durability"), false,
		[]edit{{keys("durability", "sync_saves_per_second"), 1}, {keys("durability", "recovery_wall_seconds"), 99}},
		[]edit{{keys("durability", "quarantined"), 1}})
}

func TestGateRouterAgainstLegacyBaseline(t *testing.T) {
	disarmed(t, keys("router"), false,
		[]edit{{keys("router", "routed_wall_seconds"), 99}, {keys("router", "single_wall_seconds"), 99}, {keys("router", "drain_wall_seconds"), 99}},
		[]edit{{keys("router", "fixes_lost"), 1}, {keys("router", "degraded"), 1}})
}

func TestGateWireAgainstLegacyBaseline(t *testing.T) {
	disarmed(t, keys("wire"), false,
		[]edit{{keys("wire", "binary", "frames_per_second"), 1}, {keys("wire", "binary", "bytes_per_obs"), 9999}},
		[]edit{{keys("wire", "speedup_x"), 1.2}, {keys("wire", "alloc_ratio_x"), 2}, {keys("wire", "binary", "encode_allocs_per_frame"), 1}})
}

// A baseline recorded before a counter existed disarms that counter's
// row alone.
func TestGateCountersAgainstLegacyBaseline(t *testing.T) {
	iters := keys("process_metrics", "counters", "estimate.nm.iterations")
	disarmed(t, iters, false, []edit{{iters, 1e9}}, nil)
}
