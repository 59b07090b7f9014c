package pipebench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Baseline is the subset of a committed benchmark report a regression
// gate compares against. Absent fields decode to zero and disable
// their check — BENCH_pr2.json predates allocs_per_op, so the alloc
// gate only arms once a baseline carrying it is committed.
type Baseline struct {
	Bench       string   `json:"bench"`
	WallSeconds float64  `json:"wall_seconds"`
	AllocsPerOp uint64   `json:"allocs_per_op"`
	Error       ErrStats `json:"estimate_error_m"`
	// IRLS is the robust-path baseline. Reports committed before the
	// IRLS measurement existed decode it as nil, which disarms the
	// relative IRLS checks (the absolute warm-fit-allocs contract is
	// checked against the fresh report regardless).
	IRLS *IRLSStats `json:"irls"`
	// Fleet is the fleet-serving baseline. Reports committed before the
	// fleet bench existed decode it as nil, disarming the fleet checks.
	Fleet *FleetStats `json:"fleet"`
	// Durability is the durable-store baseline. Reports committed before
	// the durability bench existed decode it as nil, disarming the
	// relative durability checks (the absolute zero-damage contract is
	// checked against the fresh report regardless).
	Durability *DurabilityStats `json:"durability"`
	// Router is the multi-node routing baseline. Reports committed
	// before the router bench existed decode it as nil, disarming the
	// relative router checks (the absolute fixes-lost==0 and no-
	// degradation contracts are checked against the fresh report
	// regardless).
	Router *RouterStats `json:"router"`
	// Wire is the wire-codec baseline. Reports committed before the
	// binary codec existed decode it as nil, disarming the relative
	// wire checks (the absolute speedup/alloc-ratio contracts are
	// checked against the fresh report regardless).
	Wire *WireStats `json:"wire"`
}

// Tolerances are the allowed fractional regressions per axis.
type Tolerances struct {
	// Wall bounds wall-clock growth (machine-dependent, so loose).
	Wall float64
	// Alloc bounds allocations-per-op growth.
	Alloc float64
	// Err bounds mean/p90 error growth. The error statistics are
	// deterministic for a fixed seed, so this can be tight; it is
	// nonzero only to absorb legitimate algorithm changes reflected in
	// a refreshed baseline late.
	Err float64
	// Dur bounds durable-store regressions — fsync throughput shortfall
	// and recovery wall growth. fsync cost varies wildly across
	// filesystems and container hosts, so this is the loosest axis.
	Dur float64
}

// DefaultTolerances returns the CI gate settings: 10 % wall, 10 %
// allocs, 5 % accuracy, 35 % durability (fsync-bound, machine-noisy).
func DefaultTolerances() Tolerances {
	return Tolerances{Wall: 0.10, Alloc: 0.10, Err: 0.05, Dur: 0.35}
}

// Gate compares a fresh report against a committed baseline and
// returns the violations (empty means the gate passes). Checks whose
// baseline field is zero/absent are skipped.
func Gate(got *Report, base *Baseline, tol Tolerances) []string {
	var v []string
	exceed := func(name string, g, b, t float64, unit string) {
		if b > 0 && g > b*(1+t) {
			v = append(v, fmt.Sprintf("%s regressed: %.4g %s vs baseline %.4g %s (tolerance %.0f%%)",
				name, g, unit, b, unit, t*100))
		}
	}
	exceed("wall_seconds", got.WallSeconds, base.WallSeconds, tol.Wall, "s")
	exceed("allocs_per_op", float64(got.AllocsPerOp), float64(base.AllocsPerOp), tol.Alloc, "allocs")
	exceed("estimate_error_m.mean_m", got.Error.MeanM, base.Error.MeanM, tol.Err, "m")
	exceed("estimate_error_m.p90_m", got.Error.P90M, base.Error.P90M, tol.Err, "m")
	if base.Error.N > 0 && got.Located < base.Error.N {
		v = append(v, fmt.Sprintf("located %d beacons vs baseline %d — fixes were lost",
			got.Located, base.Error.N))
	}
	if got.IRLS != nil {
		// Absolute contract, not a relative one: the warmed robust
		// inner fit allocates nothing, full stop.
		if got.IRLS.WarmFitAllocsPerOp != 0 {
			v = append(v, fmt.Sprintf("irls.warm_fit_allocs_per_op = %g, want 0 — the robust path lost its pooled arenas",
				got.IRLS.WarmFitAllocsPerOp))
		}
		if base.IRLS != nil {
			exceed("irls.wall_seconds", got.IRLS.WallSeconds, base.IRLS.WallSeconds, tol.Wall, "s")
			exceed("irls.allocs_per_op", float64(got.IRLS.AllocsPerOp), float64(base.IRLS.AllocsPerOp), tol.Alloc, "allocs")
			exceed("irls.estimate_error_m.mean_m", got.IRLS.Error.MeanM, base.IRLS.Error.MeanM, tol.Err, "m")
			exceed("irls.estimate_error_m.p90_m", got.IRLS.Error.P90M, base.IRLS.Error.P90M, tol.Err, "m")
		}
	} else if base.IRLS != nil {
		v = append(v, "baseline carries an irls measurement but the report has none — the robust bench was dropped")
	}
	if got.Fleet != nil {
		if base.Fleet != nil {
			// The fleet bench is concurrent (each push spreads its shards
			// over free CPUs), so even its min-of-N wall is scheduler-
			// noisier than the single-goroutine sections — gate it at
			// double the wall tolerance.
			exceed("fleet.wall_seconds", got.Fleet.WallSeconds, base.Fleet.WallSeconds, 2*tol.Wall, "s")
			exceed("fleet.allocs_per_obs", got.Fleet.AllocsPerObs, base.Fleet.AllocsPerObs, tol.Alloc, "allocs")
			if got.Fleet.Fixes < base.Fleet.Fixes {
				v = append(v, fmt.Sprintf("fleet emitted %d fixes vs baseline %d — fleet fixes were lost",
					got.Fleet.Fixes, base.Fleet.Fixes))
			}
		}
	} else if base.Fleet != nil {
		v = append(v, "baseline carries a fleet measurement but the report has none — the fleet bench was dropped")
	}
	// Throughput axes regress downward; shortfall is exceed's mirror.
	shortfall := func(name string, g, b, t float64, unit string) {
		if b > 0 && g < b*(1-t) {
			v = append(v, fmt.Sprintf("%s regressed: %.4g %s vs baseline %.4g %s (tolerance %.0f%%)",
				name, g, unit, b, unit, t*100))
		}
	}
	if got.Durability != nil {
		// Absolute contract: the durability bench shuts the store down
		// cleanly, so recovery reporting any torn or quarantined records
		// is a store bug, baseline or not.
		if got.Durability.TornTails != 0 || got.Durability.Quarantined != 0 {
			v = append(v, fmt.Sprintf("durability recovery reported damage on a clean shutdown: %d torn tails, %d quarantined — the store corrupted its own log",
				got.Durability.TornTails, got.Durability.Quarantined))
		}
		if base.Durability != nil {
			shortfall("durability.sync_saves_per_second", got.Durability.SyncSavesPerSecond, base.Durability.SyncSavesPerSecond, tol.Dur, "saves/s")
			shortfall("durability.group_saves_per_second", got.Durability.GroupSavesPerSecond, base.Durability.GroupSavesPerSecond, tol.Dur, "saves/s")
			exceed("durability.recovery_wall_seconds", got.Durability.RecoveryWallSeconds, base.Durability.RecoveryWallSeconds, tol.Dur, "s")
			if got.Durability.Recovered < base.Durability.Recovered {
				v = append(v, fmt.Sprintf("durability recovered %d sessions vs baseline %d — checkpoints were lost",
					got.Durability.Recovered, base.Durability.Recovered))
			}
		}
	} else if base.Durability != nil {
		v = append(v, "baseline carries a durability measurement but the report has none — the durability bench was dropped")
	}
	if got.Router != nil {
		// Absolute contracts, baseline or not: routing is pure transport
		// over a planned drain, so any fix shortfall against the single-
		// fleet reference is an acknowledged fix lost in the handoff, and
		// any degraded result means the router failed over inside a
		// healthy cluster.
		if got.Router.FixesLost != 0 {
			v = append(v, fmt.Sprintf("router.fixes_lost = %d, want 0 — the drain/handoff dropped acknowledged fixes",
				got.Router.FixesLost))
		}
		if got.Router.Degraded != 0 {
			v = append(v, fmt.Sprintf("router.degraded = %d, want 0 — results degraded in a cluster where nothing died",
				got.Router.Degraded))
		}
		if got.Router.DrainedSessions == 0 {
			v = append(v, "router.drained_sessions = 0 — the drained node was serving beacons, so the drain checkpointed nothing it should have")
		}
		if base.Router != nil {
			// The cluster multiplies the fleet bench's concurrency by its
			// node count, so both walls get the doubled wall tolerance;
			// the drain wall is fsync-bound on the shared durable store
			// and rides the durability tolerance.
			exceed("router.routed_wall_seconds", got.Router.RoutedWallSeconds, base.Router.RoutedWallSeconds, 2*tol.Wall, "s")
			exceed("router.single_wall_seconds", got.Router.SingleWallSeconds, base.Router.SingleWallSeconds, 2*tol.Wall, "s")
			// A healthy drain finishes in single-digit milliseconds, where
			// a percentage tolerance measures scheduler noise, not the
			// store. Gate it with an absolute slack floor on top of the
			// durability tolerance: flag only when the drain is both
			// relatively AND absolutely (>50 ms) slower than the baseline.
			if d, b := got.Router.DrainWallSeconds, base.Router.DrainWallSeconds; d > b*(1+tol.Dur) && d > b+0.05 {
				v = append(v, fmt.Sprintf("router.drain_wall_seconds regressed: %.3f s vs baseline %.3f s (tolerance %.0f%% + 50 ms slack)",
					d, b, tol.Dur*100))
			}
			if got.Router.Fixes < base.Router.Fixes {
				v = append(v, fmt.Sprintf("router emitted %d fixes vs baseline %d — routed fixes were lost",
					got.Router.Fixes, base.Router.Fixes))
			}
		}
	} else if base.Router != nil {
		v = append(v, "baseline carries a router measurement but the report has none — the router bench was dropped")
	}
	if got.Wire != nil {
		// Absolute contracts, baseline or not: the binary codec exists to
		// beat JSON by a wide margin, so the headline ratios are floors,
		// not relative comparisons — a binary path that only matches JSON
		// has lost its reason to exist even if it never "regressed".
		if got.Wire.SpeedupX < 2 {
			v = append(v, fmt.Sprintf("wire.speedup_x = %.2f, want >= 2 — locb1 no longer beats JSON 2x on round-trip throughput",
				got.Wire.SpeedupX))
		}
		if got.Wire.AllocRatioX < 5 {
			v = append(v, fmt.Sprintf("wire.alloc_ratio_x = %.2f, want >= 5 — locb1 lost its allocs/frame advantage over JSON",
				got.Wire.AllocRatioX))
		}
		if got.Wire.Binary.EncodeAllocsPerFrame >= 1 {
			v = append(v, fmt.Sprintf("wire.binary.encode_allocs_per_frame = %.2f, want < 1 — the binary encoder stopped reusing its buffer",
				got.Wire.Binary.EncodeAllocsPerFrame))
		}
		if base.Wire != nil {
			// The binary frame layout is deterministic, so its size gates
			// at the tight accuracy tolerance; throughput is wall-clock
			// and concurrencyless, but MemStats probes make it noisier
			// than a plain loop — double the wall tolerance, like fleet.
			shortfall("wire.binary.frames_per_second", got.Wire.Binary.FramesPerSecond, base.Wire.Binary.FramesPerSecond, 2*tol.Wall, "frames/s")
			exceed("wire.binary.bytes_per_obs", got.Wire.Binary.BytesPerObs, base.Wire.Binary.BytesPerObs, tol.Err, "B/obs")
		}
	} else if base.Wire != nil {
		v = append(v, "baseline carries a wire measurement but the report has none — the wire bench was dropped")
	}
	return v
}

// LoadBaseline reads a committed benchmark JSON as a gate baseline.
func LoadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if b.WallSeconds <= 0 {
		return nil, fmt.Errorf("baseline %s: missing wall_seconds", path)
	}
	return &b, nil
}

// LoadReport reads a full benchmark report (for gate-only comparisons
// of an already-written run).
func LoadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parse report %s: %w", path, err)
	}
	return &r, nil
}
