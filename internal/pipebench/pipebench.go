// Package pipebench runs the instrumented end-to-end pipeline benchmark
// shared by cmd/locble-bench (-json) and cmd/benchgate, and gates its
// report. The report is machine-readable JSON: repeated LocateAll
// batches over the default three-beacon scenario on one System (wall
// time, per-stage latency, the localization-error distribution and
// MemStats-derived allocation deltas per call), the irls, fleet,
// durability, router and wire sections, and the process counters,
// among them the solver's runs, searches and iterations.
//
// The error statistics and the solver's counters are deterministic for
// a given seed, so the gate compares them tightly across machines; wall
// time, throughput and allocations are the hardware-dependent part.
// Gate reads a fresh report and a committed baseline the same way, as
// JSON, and checks one table of rows: a JSON path, which way is worse,
// and a bound.
package pipebench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"locble"
	"locble/internal/core"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/netproto"
)

// Config parameterizes a benchmark run.
type Config struct {
	// Seed is the base simulation seed (trial t uses Seed + t*101).
	Seed int64
	// Trials is how many simulate+LocateAll rounds to run.
	Trials int
}

// StageStats summarizes one pipeline stage's latency histogram.
type StageStats struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	MinUS  float64 `json:"min_us"`
	MaxUS  float64 `json:"max_us"`
}

// ErrStats summarizes the localization error distribution.
type ErrStats struct {
	N      int     `json:"n"`
	MeanM  float64 `json:"mean_m"`
	P50M   float64 `json:"p50_m"`
	P90M   float64 `json:"p90_m"`
	WorstM float64 `json:"worst_m"`
}

// TrialStats is one trial's cost: the wall time and heap activity of
// its LocateAll call (simulation excluded), from MemStats deltas.
type TrialStats struct {
	Trial       int     `json:"trial"`
	Seed        int64   `json:"seed"`
	Located     int     `json:"located"`
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

// IRLSStats is the robust-path measurement: the same trials rerun
// through a Huber-loss System, plus a direct allocation probe of the
// warmed IRLS inner fit. WarmFitAllocsPerOp is the robust-estimation
// contract — the pooled Solver arenas keep it at exactly 0 — and the
// gate fails any run where it drifts upward.
type IRLSStats struct {
	Loss        string  `json:"loss"`
	Trials      int     `json:"trials"`
	Located     int     `json:"located"`
	WallSeconds float64 `json:"wall_seconds"`
	// AllocsPerOp / BytesPerOp average the LocateAll MemStats deltas
	// over the warm trials (trial 0 fills the pools and is excluded).
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// WarmFitAllocsPerOp is the measured allocation count of one warmed
	// robust inner-fit minimization (Solver.FitProbe). Must be 0.
	WarmFitAllocsPerOp float64 `json:"warm_fit_allocs_per_op"`
	// Downweighted totals the observations the robust loss suppressed
	// across all trials (the estimate.irls.downweighted counter delta).
	Downweighted int64    `json:"downweighted"`
	Error        ErrStats `json:"estimate_error_m"`
}

// FleetStats is the fleet-serving measurement: a deterministic batched
// multi-beacon ingest run on one Fleet (fixed shard count, fixed synth
// streams, a beacon cohort going silent mid-run so eviction and restore
// are on the clock). Counts (obs, batches, fixes, evicted, restored)
// are deterministic for a given build; wall time and the MemStats-
// derived allocation rates are the hardware-dependent part.
type FleetStats struct {
	Beacons        int     `json:"beacons"`
	Shards         int     `json:"shards"`
	ObsPushed      int64   `json:"obs_pushed"`
	Batches        int64   `json:"batches"`
	Fixes          int     `json:"fixes"`
	Evicted        int64   `json:"evicted"`
	Restored       int64   `json:"restored"`
	WallSeconds    float64 `json:"wall_seconds"`
	ObsPerSecond   float64 `json:"obs_per_second"`
	FixesPerSecond float64 `json:"fixes_per_second"`
	// AllocsPerObs / BytesPerObs average the MemStats deltas of the
	// whole ingest loop over every pushed observation.
	AllocsPerObs float64 `json:"allocs_per_obs"`
	BytesPerObs  float64 `json:"bytes_per_obs"`
}

// DurabilityStats is the durable checkpoint store measurement: save
// throughput with every Save individually fsync-acknowledged (one
// writer, no batching possible) and under group commit (concurrent
// writers sharing fsync cohorts), then the recovery wall time of
// reopening the resulting ~1k-session store from disk. Sessions and
// Recovered are deterministic; the rates and walls are the hardware-
// and filesystem-dependent part (fsync cost dominates). TornTails and
// Quarantined must be zero — this is a clean shutdown, so any reported
// damage is a store bug, and the gate fails it absolutely.
type DurabilityStats struct {
	Sessions            int     `json:"sessions"`
	SyncSaves           int     `json:"sync_saves"`
	SyncSavesPerSecond  float64 `json:"sync_saves_per_second"`
	GroupWriters        int     `json:"group_writers"`
	GroupSaves          int     `json:"group_saves"`
	GroupSavesPerSecond float64 `json:"group_saves_per_second"`
	RecoveryWallSeconds float64 `json:"recovery_wall_seconds"`
	Recovered           int     `json:"recovered"`
	Replayed            int64   `json:"replayed"`
	TornTails           int64   `json:"torn_tails"`
	Quarantined         int64   `json:"quarantined"`
}

// Report is the benchmark's machine-readable output. AllocsPerOp and
// BytesPerOp average the MemStats (Mallocs, TotalAlloc) deltas over the
// LocateAll calls only — the number a scratch-arena regression moves.
type Report struct {
	Bench       string                `json:"bench"`
	Seed        int64                 `json:"seed"`
	Trials      int                   `json:"trials"`
	Beacons     int                   `json:"beacons"`
	Located     int                   `json:"located"`
	WallSeconds float64               `json:"wall_seconds"`
	AllocsPerOp uint64                `json:"allocs_per_op"`
	BytesPerOp  uint64                `json:"bytes_per_op"`
	Error       ErrStats              `json:"estimate_error_m"`
	IRLS        *IRLSStats            `json:"irls,omitempty"`
	Fleet       *FleetStats           `json:"fleet,omitempty"`
	Durability  *DurabilityStats      `json:"durability,omitempty"`
	Router      *RouterStats          `json:"router,omitempty"`
	Wire        *WireStats            `json:"wire,omitempty"`
	Stages      map[string]StageStats `json:"stage_latency"`
	PerTrial    []TrialStats          `json:"per_trial,omitempty"`
	Engine      locble.Metrics        `json:"engine_metrics"`
	Process     locble.Metrics        `json:"process_metrics"`
}

// Run executes the benchmark: Trials rounds of simulate + LocateAll on
// one System. WallSeconds spans the whole loop (simulation included),
// matching the historical BENCH_pr2.json measurement, so the series
// stays comparable across PRs.
func Run(cfg Config) (*Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 25
	}
	sys, err := locble.New()
	if err != nil {
		return nil, err
	}
	beacons := []locble.BeaconSpec{
		{Name: "b0", X: 6, Y: 3},
		{Name: "b1", X: 2, Y: 5},
		{Name: "b2", X: 7, Y: 1},
	}
	truth := make(map[string][2]float64, len(beacons))
	for _, b := range beacons {
		truth[b.Name] = [2]float64{b.X, b.Y}
	}

	var (
		errsM     []float64
		perTrial  []TrialStats
		sumAllocs uint64
		sumBytes  uint64
		ms0, ms1  runtime.MemStats
	)
	start := time.Now()
	for t := 0; t < cfg.Trials; t++ {
		seed := cfg.Seed + int64(t)*101
		trace, err := locble.Simulate(locble.Scenario{
			Beacons:      beacons,
			ObserverPlan: locble.LShapeWalk(0, 4, 4),
			Seed:         seed,
		})
		if err != nil {
			return nil, err
		}
		opStart := time.Now()
		runtime.ReadMemStats(&ms0)
		fixes := sys.LocateAll(trace)
		runtime.ReadMemStats(&ms1)
		allocs := ms1.Mallocs - ms0.Mallocs
		bytes := ms1.TotalAlloc - ms0.TotalAlloc
		sumAllocs += allocs
		sumBytes += bytes
		for name, p := range fixes {
			g := truth[name]
			errsM = append(errsM, math.Hypot(p.X-g[0], p.Y-g[1]))
		}
		perTrial = append(perTrial, TrialStats{
			Trial:       t,
			Seed:        seed,
			Located:     len(fixes),
			WallSeconds: time.Since(opStart).Seconds(),
			Allocs:      allocs,
			AllocBytes:  bytes,
		})
	}
	wall := time.Since(start)
	sort.Float64s(errsM)

	irls, err := runIRLS(cfg, beacons, truth)
	if err != nil {
		return nil, err
	}
	fleetStats, err := runFleetBench()
	if err != nil {
		return nil, err
	}
	durStats, err := runDurabilityBench()
	if err != nil {
		return nil, err
	}
	routerStats, err := runRouterBench()
	if err != nil {
		return nil, err
	}
	wireStats, err := runWireBench()
	if err != nil {
		return nil, err
	}

	snap := sys.Metrics()
	stages := make(map[string]StageStats)
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, "core.stage.") || !strings.HasSuffix(name, ".seconds") || h.Count == 0 {
			continue
		}
		st := strings.TrimSuffix(strings.TrimPrefix(name, "core.stage."), ".seconds")
		stages[st] = StageStats{
			Count:  h.Count,
			MeanUS: h.Mean() * 1e6,
			MinUS:  h.Min * 1e6,
			MaxUS:  h.Max * 1e6,
		}
	}
	return &Report{
		Bench:       "locateall-default",
		Seed:        cfg.Seed,
		Trials:      cfg.Trials,
		Beacons:     len(beacons),
		Located:     len(errsM),
		WallSeconds: wall.Seconds(),
		AllocsPerOp: sumAllocs / uint64(cfg.Trials),
		BytesPerOp:  sumBytes / uint64(cfg.Trials),
		Error:       summarizeErrors(errsM),
		IRLS:        irls,
		Fleet:       fleetStats,
		Durability:  durStats,
		Router:      routerStats,
		Wire:        wireStats,
		Stages:      stages,
		PerTrial:    perTrial,
		Engine:      snap,
		Process:     locble.ProcessMetrics(),
	}, nil
}

// runIRLS reruns the benchmark scenarios through a Huber-loss System
// and probes the warmed robust inner fit for allocations. Trial 0
// warms the solver pools and is excluded from the per-op averages.
func runIRLS(cfg Config, beacons []locble.BeaconSpec, truth map[string][2]float64) (*IRLSStats, error) {
	sys, err := locble.New(locble.WithLoss(locble.LossHuber))
	if err != nil {
		return nil, err
	}

	downBefore := locble.ProcessMetrics().Counters["estimate.irls.downweighted"]
	var (
		errsM     []float64
		located   int
		sumAllocs uint64
		sumBytes  uint64
		warmOps   uint64
		ms0, ms1  runtime.MemStats
	)
	start := time.Now()
	for t := 0; t < cfg.Trials; t++ {
		seed := cfg.Seed + int64(t)*101
		trace, err := locble.Simulate(locble.Scenario{
			Beacons:      beacons,
			ObserverPlan: locble.LShapeWalk(0, 4, 4),
			Seed:         seed,
		})
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		fixes := sys.LocateAll(trace)
		runtime.ReadMemStats(&ms1)
		if t > 0 { // trial 0 is the pool-warming op
			sumAllocs += ms1.Mallocs - ms0.Mallocs
			sumBytes += ms1.TotalAlloc - ms0.TotalAlloc
			warmOps++
		}
		located += len(fixes)
		for name, p := range fixes {
			g := truth[name]
			errsM = append(errsM, math.Hypot(p.X-g[0], p.Y-g[1]))
		}
	}
	wall := time.Since(start)
	sort.Float64s(errsM)

	st := &IRLSStats{
		Loss:               locble.LossHuber.String(),
		Trials:             cfg.Trials,
		Located:            located,
		WallSeconds:        wall.Seconds(),
		WarmFitAllocsPerOp: warmFitAllocs(),
		Downweighted:       locble.ProcessMetrics().Counters["estimate.irls.downweighted"] - downBefore,
		Error:              summarizeErrors(errsM),
	}
	if warmOps > 0 {
		st.AllocsPerOp = sumAllocs / warmOps
		st.BytesPerOp = sumBytes / warmOps
	}
	return st, nil
}

// runFleetBench measures the fleet serving path: batched ingest for a
// fixed population of synthetic beacons through one Fleet, with one
// cohort going silent mid-run so checkpoint-on-evict and restore-on-
// reappearance are part of the measured loop. Everything that shapes
// the work is pinned — shard count, stream contents, batch slicing —
// so the counts are machine-independent and the gate can compare them
// tightly. The fleet is concurrent (each push spreads its shards over
// free CPUs), which makes a single wall measurement scheduler-noisy;
// the whole scenario is repeated and the best rep reported, the same
// min-of-N convention benchmarks use to estimate the noise floor. Rep 0
// is not reported: it fills process-wide caches (encoding/json's, for
// the checkpoints), 0.13 allocations per observation no later rep makes.
func runFleetBench() (*FleetStats, error) {
	const reps = 3
	var best *FleetStats
	for r := 0; r <= reps; r++ {
		st, err := fleetBenchOnce()
		if err != nil {
			return nil, err
		}
		if r > 0 && (best == nil || st.WallSeconds < best.WallSeconds) {
			best = st
		}
	}
	return best, nil
}

func fleetBenchOnce() (*FleetStats, error) {
	// 24 beacons over 8 shards puts every silent beacon in a shard with
	// at least one active neighbor, so the idle sweep (driven by
	// observation time on the shard's other sessions) actually fires
	// during the gap — the scenario exercises evict AND restore, not
	// just steady-state ingest.
	const (
		nBeacons = 24
		shards   = 8
		n        = 320 // 40 s per beacon at 8 Hz
		slice    = 16  // 2 s batches
		gapLo    = 96  // every 4th beacon silent for t in [12, 28) s
		gapHi    = 224
	)
	sys, err := locble.New()
	if err != nil {
		return nil, err
	}
	fl, err := sys.NewFleet(locble.FleetConfig{
		Shards:     shards,
		Session:    locble.TrackSessionConfig{SampleRateHz: 8},
		IdleMaxAge: 5,
	})
	if err != nil {
		return nil, err
	}
	defer fl.Close()

	streams := make([][]locble.FleetObs, nBeacons)
	for i := range streams {
		streams[i] = fleet.SynthStream(fmt.Sprintf("fb-%02d", i), n, 0.37*float64(i))
	}

	fixes := 0
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	runtime.ReadMemStats(&ms0)
	for lo := 0; lo < n; lo += slice {
		var batch []locble.FleetObs
		for i, s := range streams {
			if i%4 == 0 && lo >= gapLo && lo < gapHi {
				continue
			}
			batch = append(batch, s[lo:lo+slice]...)
		}
		res, err := fl.PushBatch(batch)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("fleet bench: %s: %w", r.Beacon, r.Err)
			}
			fixes += len(r.Points)
		}
	}
	runtime.ReadMemStats(&ms1)
	wall := time.Since(start)

	snap := fl.Metrics()
	obsPushed := snap.Counters["fleet.obs.pushed"]
	st := &FleetStats{
		Beacons:     nBeacons,
		Shards:      shards,
		ObsPushed:   obsPushed,
		Batches:     snap.Counters["fleet.batches"],
		Fixes:       fixes,
		Evicted:     snap.Counters["fleet.sessions.evicted"],
		Restored:    snap.Counters["fleet.sessions.restored"],
		WallSeconds: wall.Seconds(),
	}
	if s := wall.Seconds(); s > 0 {
		st.ObsPerSecond = float64(obsPushed) / s
		st.FixesPerSecond = float64(fixes) / s
	}
	if obsPushed > 0 {
		st.AllocsPerObs = float64(ms1.Mallocs-ms0.Mallocs) / float64(obsPushed)
		st.BytesPerObs = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(obsPushed)
	}
	return st, nil
}

// runDurabilityBench measures the durable checkpoint store on a real
// (temp) directory. Three phases on one store: sequential saves where
// every Save pays its own fsync (the no-group-commit floor), a
// concurrent phase where 8 writers share group-commit fsync cohorts,
// and a reopen of the resulting 1k-session store timing recovery
// replay. The checkpoints carry a realistic window (16-deep gamma
// history, 24 buffered observations), so record sizes match what fleet
// eviction actually writes.
func runDurabilityBench() (*DurabilityStats, error) {
	const (
		syncSaves = 96
		writers   = 8
		perWriter = 128
		sessions  = writers * perWriter // 1024 recovered sessions
	)
	dir, err := os.MkdirTemp("", "locble-durbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	mkcp := func(beacon string, seq int) *core.SessionCheckpoint {
		hist := make([]float64, 16)
		for i := range hist {
			hist[i] = -60 - float64((seq+i)%7)
		}
		win := make([]estimate.Obs, 24)
		for i := range win {
			win[i] = estimate.Obs{
				T: float64(seq) + float64(i)*0.125, RSS: -62 + float64(i%5),
				P: 0.1 * float64(i), Q: 0.05 * float64(i),
			}
		}
		return &core.SessionCheckpoint{
			Version: core.SessionCheckpointVersion,
			Beacon:  beacon, Window: 6, Step: 2, SampleRateHz: 8,
			WindowObs: win, Pushed: int64(seq),
			GammaHist: hist, GammaShift: 0.01 * float64(seq),
		}
	}
	name := func(i int) string { return fmt.Sprintf("dur-%04d", i) }

	st, err := locble.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	// Phase 1: one writer, every Save acknowledged by its own fsync.
	start := time.Now()
	for i := 0; i < syncSaves; i++ {
		if err := st.Save(name(i), mkcp(name(i), i)); err != nil {
			st.Close()
			return nil, err
		}
	}
	syncWall := time.Since(start).Seconds()

	// Phase 2: concurrent writers; the store batches their fsyncs into
	// group-commit cohorts. Covers all 1024 names (phase 1's are
	// overwritten — recovery replays both and keeps the newest).
	start = time.Now()
	var wg sync.WaitGroup
	werrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				if err := st.Save(name(id), mkcp(name(id), sessions+id)); err != nil {
					werrs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	groupWall := time.Since(start).Seconds()
	for _, err := range werrs {
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Phase 3: recovery — reopen the store and replay it all back.
	start = time.Now()
	st2, err := locble.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	recoveryWall := time.Since(start).Seconds()
	rec := st2.RecoveryStats()
	recovered := st2.Len()
	if err := st2.Close(); err != nil {
		return nil, err
	}
	if recovered != sessions {
		return nil, fmt.Errorf("durability bench: recovered %d sessions, want %d", recovered, sessions)
	}

	ds := &DurabilityStats{
		Sessions:            sessions,
		SyncSaves:           syncSaves,
		GroupWriters:        writers,
		GroupSaves:          sessions,
		RecoveryWallSeconds: recoveryWall,
		Recovered:           recovered,
		Replayed:            rec.Replayed,
		TornTails:           rec.TornTails,
		Quarantined:         rec.Quarantined,
	}
	if syncWall > 0 {
		ds.SyncSavesPerSecond = float64(syncSaves) / syncWall
	}
	if groupWall > 0 {
		ds.GroupSavesPerSecond = float64(sessions) / groupWall
	}
	return ds, nil
}

// warmFitAllocs measures heap allocations per warmed robust inner-fit
// minimization (estimate.Solver.FitProbe under Huber loss) — the
// pooled-arena contract says exactly 0. Measured with MemStats deltas
// on a single P, in the quietest of three batches: a GC wakes runtime
// goroutines that allocate (the unique package's map cleanup), while
// an allocating fit shows in every batch.
func warmFitAllocs() float64 {
	obs := synthIRLSObs()
	ecfg := estimate.DefaultConfig()
	ecfg.Loss = estimate.LossHuber
	s := estimate.NewSolver()
	s.FitProbe(obs, ecfg, 3, 1) // size every arena

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	const rounds = 100
	var ms0, ms1 runtime.MemStats
	best := math.Inf(1)
	for b := 0; b < 3; b++ {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < rounds; i++ {
			s.FitProbe(obs, ecfg, 3, 1)
		}
		runtime.ReadMemStats(&ms1)
		best = math.Min(best, float64(ms1.Mallocs-ms0.Mallocs)/rounds)
	}
	return best
}

// synthIRLSObs builds a deterministic L-walk observation set for the
// allocation probe: a beacon at (5.5, 2) seen from a 4 m + 4 m walk
// with ideal log-distance RSS plus a handful of gross outliers so the
// Huber reweighting loop actually exercises its down-weight branch.
func synthIRLSObs() []estimate.Obs {
	const (
		bx, by   = 5.5, 2.0
		gamma, n = -60.0, 2.2
		stepM    = 0.15
		legSteps = 27 // ≈ 4 m per leg
	)
	obs := make([]estimate.Obs, 0, 2*legSteps)
	add := func(i int, px, py float64) {
		d := math.Hypot(px-bx, py-by)
		rss := gamma - 10*n*math.Log10(math.Max(d, 0.1))
		if i%9 == 4 { // periodic gross outlier, +18 dB
			rss += 18
		}
		obs = append(obs, estimate.Obs{T: float64(i) * 0.1, RSS: rss, P: px, Q: py})
	}
	for i := 0; i < legSteps; i++ {
		add(i, float64(i)*stepM, 0)
	}
	for i := 0; i < legSteps; i++ {
		add(legSteps+i, float64(legSteps-1)*stepM, float64(i+1)*stepM)
	}
	return obs
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Summary is the one-line human summary printed after a run.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%d trials, %d/%d located, mean error %.2f m, wall %.2f s, %d allocs/op (%.1f MB/op)",
		r.Trials, r.Located, r.Trials*r.Beacons, r.Error.MeanM, r.WallSeconds,
		r.AllocsPerOp, float64(r.BytesPerOp)/1e6)
	if r.IRLS != nil {
		s += fmt.Sprintf("; %s IRLS: mean error %.2f m, %d downweighted, warm fit %.0f allocs/op",
			r.IRLS.Loss, r.IRLS.Error.MeanM, r.IRLS.Downweighted, r.IRLS.WarmFitAllocsPerOp)
	}
	if r.Fleet != nil {
		s += fmt.Sprintf("; fleet: %d beacons/%d shards, %.0f obs/s, %d fixes, %d evicted/%d restored, %.1f allocs/obs",
			r.Fleet.Beacons, r.Fleet.Shards, r.Fleet.ObsPerSecond, r.Fleet.Fixes,
			r.Fleet.Evicted, r.Fleet.Restored, r.Fleet.AllocsPerObs)
	}
	if r.Durability != nil {
		s += fmt.Sprintf("; durability: %.0f saves/s sync, %.0f saves/s group-commit, %d sessions recovered in %.3f s",
			r.Durability.SyncSavesPerSecond, r.Durability.GroupSavesPerSecond,
			r.Durability.Recovered, r.Durability.RecoveryWallSeconds)
	}
	if r.Router != nil {
		s += fmt.Sprintf("; router: %d nodes, %.2fx scale efficiency, drain %.0f ms (%d sessions), %d fixes lost",
			r.Router.Nodes, r.Router.ScaleEfficiency,
			r.Router.DrainWallSeconds*1e3, r.Router.DrainedSessions, r.Router.FixesLost)
	}
	if r.Wire != nil {
		s += fmt.Sprintf("; wire: %s %.2fx JSON throughput, allocs/frame %.1f vs %.1f (%.1fx), %.0f vs %.0f B/obs",
			netproto.CodecBinary, r.Wire.SpeedupX, r.Wire.Binary.AllocsPerFrame, r.Wire.JSON.AllocsPerFrame,
			r.Wire.AllocRatioX, r.Wire.Binary.BytesPerObs, r.Wire.JSON.BytesPerObs)
	}
	return s
}

func summarizeErrors(sorted []float64) ErrStats {
	if len(sorted) == 0 {
		return ErrStats{}
	}
	sum := 0.0
	for _, e := range sorted {
		sum += e
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return ErrStats{
		N:      len(sorted),
		MeanM:  sum / float64(len(sorted)),
		P50M:   q(0.5),
		P90M:   q(0.9),
		WorstM: sorted[len(sorted)-1],
	}
}
