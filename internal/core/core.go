// Package core wires LocBLE's three layers together (paper Fig. 3,
// Algorithm 1): the data-collection layer (scan reports + IMU, produced by
// the sim package or a real device), the location-estimation layer
// (EnvAware environment recognition, adaptive noise filtering, motion
// tracking, and the elliptical-regression data fusion), and the
// calibration layer (multi-beacon DTW clustering).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"locble/internal/cluster"
	"locble/internal/env"
	"locble/internal/estimate"
	"locble/internal/motion"
	"locble/internal/rf"
	"locble/internal/sim"
)

// Errors.
var (
	ErrUnknownBeacon = errors.New("core: beacon not present in trace")
	ErrNoEstimate    = errors.New("core: no segment produced a usable estimate")
)

// cancelFromCtx converts a context into the estimator's poll-style
// cancellation hook. A context that can never be canceled maps to nil so
// the regression hot path skips the poll entirely.
func cancelFromCtx(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// canceledErr wraps a cancellation so callers can match it with
// errors.Is against both the context error (Canceled/DeadlineExceeded)
// and estimate.ErrCanceled.
func canceledErr(ctx context.Context, what string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s canceled: %w", what, err)
	}
	return fmt.Errorf("core: %s canceled: %w", what, estimate.ErrCanceled)
}

// isCanceled reports whether err is a cancellation rather than a
// pipeline failure (the two are tallied separately in the metrics).
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, estimate.ErrCanceled)
}

// Config tunes the pipeline. The Disable* switches exist for the paper's
// ablation study (Fig. 5).
type Config struct {
	// Estimator configures the elliptical regression.
	Estimator estimate.Config
	// ButterworthOrder is the ANF low-pass order (paper: 6).
	ButterworthOrder int
	// CutoffHz is the ANF low-pass cutoff.
	CutoffHz float64
	// EnvWindow is the EnvAware window in samples (≈2 s of reports).
	EnvWindow int
	// EnvHysteresis is how many consecutive windows must disagree before
	// a regression restart.
	EnvHysteresis int
	// DisableANF bypasses the BF+AKF filter (ablation).
	DisableANF bool
	// StreamingANF uses the paper's online BF+AKF cascade instead of the
	// zero-phase forward-backward Butterworth. The streaming filter is
	// what a live UI runs; batch estimation defaults to zero-phase
	// filtering because group delay would shift the RSS trend against the
	// motion track and bias the regression.
	StreamingANF bool
	// DisableEnvAware bypasses environment change detection (ablation).
	DisableEnvAware bool
	// Tracker configures motion processing.
	Tracker motion.TrackerConfig
	// AKFMaxAlpha overrides the streaming AKF's maximum raw-stream blend
	// weight (0 keeps the sigproc default; ablation knob).
	AKFMaxAlpha float64
}

// DefaultConfig returns the paper's pipeline settings.
func DefaultConfig() Config {
	tc := motion.DefaultTrackerConfig()
	tc.SnapRightAngles = true // the app instructs the user to turn 90°
	return Config{
		Estimator:        estimate.DefaultConfig(),
		ButterworthOrder: 6,
		CutoffHz:         0.9,
		EnvWindow:        20,
		EnvHysteresis:    1,
		Tracker:          tc,
	}
}

// minSegmentSamples is the minimum regression-segment size: the newest
// environment's segment is fitted alone only with twice as many.
const minSegmentSamples = 10

// Engine is a ready-to-use LocBLE pipeline. The EnvAware classifier is
// trained once (on the synthetic labelled dataset) and reused; an Engine
// is safe for concurrent Locate calls. It owns no goroutine: LocateAll
// fans out per call and joins before it returns, and every pipeline
// run borrows its solver scratch from estimate's pool.
type Engine struct {
	cfg Config
	clf *env.Classifier
	met *engineMetrics
	// lanes counts the goroutines claiming beacons in this engine's
	// LocateAll calls, callers and helpers alike; a call starts a
	// helper only while it is below GOMAXPROCS.
	lanes atomic.Int64
}

var (
	sharedClfOnce sync.Once
	sharedClf     *env.Classifier
	sharedClfErr  error
)

// sharedClassifier trains the default EnvAware model once per process.
func sharedClassifier() (*env.Classifier, error) {
	sharedClfOnce.Do(func() {
		d, _, _, err := env.BuildDataset(env.DefaultDatasetConfig())
		if err != nil {
			sharedClfErr = err
			return
		}
		sharedClf, sharedClfErr = env.Train(d)
	})
	return sharedClf, sharedClfErr
}

// NewEngine builds an engine, training the EnvAware classifier if needed.
func NewEngine(cfg Config) (*Engine, error) {
	clf, err := sharedClassifier()
	if err != nil {
		return nil, fmt.Errorf("core: training EnvAware: %w", err)
	}
	return &Engine{cfg: cfg, clf: clf, met: newEngineMetrics()}, nil
}

// NewEngineWithClassifier builds an engine around a caller-provided
// EnvAware classifier.
func NewEngineWithClassifier(cfg Config, clf *env.Classifier) *Engine {
	return &Engine{cfg: cfg, clf: clf, met: newEngineMetrics()}
}

// Close does nothing and returns nil: an Engine owns no goroutine or
// other resource to release. It is kept so existing callers still
// compile.
func (e *Engine) Close() error { return nil }

// Measurement is the result of locating one beacon from one trace.
type Measurement struct {
	// Est is the combined location estimate in the observer's starting
	// coordinate frame (x along initial heading).
	Est *estimate.Estimate
	// Track is the observer's dead-reckoned movement.
	Track *motion.Track
	// FinalEnv is EnvAware's last classification.
	FinalEnv rf.Environment
	// Segments is the number of regression segments (1 + restarts).
	Segments int
	// Raw and Filtered are the RSS series before/after ANF (diagnostics).
	Raw, Filtered []float64
	// Times are the observation timestamps for Raw/Filtered.
	Times []float64
	// Health grades how much this fix should be trusted: OK for clean
	// input, Degraded (with machine-readable reasons) when the input was
	// impaired but recoverable. Rejected inputs never produce a
	// Measurement — Locate returns a *RejectedError instead.
	Health Health
	// Mode identifies which degradation-ladder rung produced the fix
	// (ModeFull for the normal fusion pipeline).
	Mode FixMode
}

// Error returns the distance between the estimate and the true target
// position (tx, ty) expressed in the observer's frame — callers must
// convert world coordinates first (see sim traces, whose observer starts
// at the plan's start pose).
func (m *Measurement) Error(tx, ty float64) float64 {
	return math.Hypot(m.Est.X-tx, m.Est.H-ty)
}

// Locate runs the full pipeline for one beacon of a simulated trace.
// In moving-target mode (trace has a TargetIMU and the beacon is the
// target), the target's dead-reckoned movement is fused in, as if its
// trace bundle had been transferred to the observer.
//
// Every call is recorded in the engine's metrics: whole-call and
// per-stage latency, the resulting health class and its reasons (also
// for rejections), and estimation quality.
func (e *Engine) Locate(tr *sim.Trace, beaconName string) (*Measurement, error) {
	return e.LocateContext(context.Background(), tr, beaconName)
}

// LocateContext is Locate under a context: a deadline or cancellation
// (a disconnected client, a draining server) stops the pipeline between
// stages and interrupts the regression's position search. A canceled call
// returns an error matching the context error under errors.Is and is
// counted in "core.canceled" rather than as a health rejection.
func (e *Engine) LocateContext(ctx context.Context, tr *sim.Trace, beaconName string) (*Measurement, error) {
	sp := e.met.locateSpan.Start()
	m, err := e.locate(ctx, tr, beaconName)
	sp.End()
	e.met.locates.Inc()
	if err != nil {
		if isCanceled(err) {
			e.met.canceled.Inc()
		} else {
			e.met.recordHealth(HealthFromError(err))
		}
		return nil, err
	}
	e.met.recordHealth(m.Health)
	e.met.recordEstimate(m.Segments, m.Est.ResidualDB)
	return m, nil
}

// locate is the uninstrumented pipeline body behind Locate.
func (e *Engine) locate(ctx context.Context, tr *sim.Trace, beaconName string) (*Measurement, error) {
	p, err := e.prepare(tr, beaconName)
	if err != nil {
		// Degradation ladder, rung 2: an unusable inertial stream drops
		// the pipeline to RSS-only path-loss proximity instead of failing.
		if m, ok := e.tryRSSOnly(tr, beaconName, err); ok {
			return m, nil
		}
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, canceledErr(ctx, "locate")
	}

	m := &Measurement{
		Track:    p.track,
		Raw:      p.raw,
		Times:    p.times,
		Filtered: p.filtered,
		Health:   p.health,
	}
	estCfg := p.estCfg
	estCfg.Cancel = cancelFromCtx(ctx)

	// EnvAware segmentation: indexes where a new regression must start.
	spClassify := e.met.stClassify.Start()
	segStarts := []int{0}
	if !e.cfg.DisableEnvAware {
		mon := env.NewMonitor(e.clf, e.cfg.EnvWindow, e.cfg.EnvHysteresis)
		for i, v := range p.raw {
			_, _, changed, err := mon.Push(v)
			if err != nil {
				spClassify.End()
				return nil, fmt.Errorf("core: EnvAware: %w", err)
			}
			if changed {
				// The change was detected at the end of a classification
				// window but happened somewhere inside it; roll the
				// boundary back a window so the new segment starts clean
				// and the old one does not absorb mixed-environment data.
				start := i - e.cfg.EnvWindow*(e.cfg.EnvHysteresis)
				if last := segStarts[len(segStarts)-1]; start <= last {
					start = last + 1
				}
				if start < len(p.raw) {
					segStarts = append(segStarts, start)
				}
			}
		}
		if cur, ok := mon.Current(); ok {
			m.FinalEnv = cur
		}
	}
	spClassify.End()

	// --- Estimation layer (Sec. 5, Algorithm 1) -----------------------
	spRegress := e.met.stRegress.Start()
	defer spRegress.End()
	// One joint regression: the target position is shared by all
	// observations, while each EnvAware segment gets its own (Γ, n)
	// channel parameters — the regression "restarts" its model on an
	// environment change without throwing the geometry away.
	allObs := p.fused
	m.Segments = len(segStarts)

	// Algorithm 1: when the environment changed, the paper "starts a new
	// regression with the data" — the estimate should come from the
	// *current* environment's regression when that segment alone carries
	// enough data and geometry. Otherwise fall back to the joint fit
	// (single position, per-segment channel parameters), which uses all
	// the data without mixing channel models.
	var est *estimate.Estimate
	if last := segStarts[len(segStarts)-1]; last > 0 {
		lastObs := allObs[last:]
		if len(lastObs) >= 2*minSegmentSamples {
			lastEst, lastErr := estimate.Run(lastObs, estCfg)
			if errors.Is(lastErr, estimate.ErrCanceled) {
				return nil, canceledErr(ctx, "locate")
			}
			if lastErr == nil && !lastEst.Ambiguous {
				est = lastEst
			}
		}
	}
	if est == nil {
		joint, jointErr := estimate.RunSegmented(allObs, segStarts[1:], estCfg)
		if jointErr != nil {
			if errors.Is(jointErr, estimate.ErrCanceled) {
				return nil, canceledErr(ctx, "locate")
			}
			return nil, rejectedErr(m.Health, ReasonNoEstimate, fmt.Errorf("%w: %v", ErrNoEstimate, jointErr))
		}
		est = joint
	}
	// Residual mirror ambiguity (straight-line walk): resolve with the
	// L-shape intersection when a turn exists (Sec. 5.1).
	if est.Ambiguous {
		if split := firstTurnEnd(p.track, p.times); !math.IsNaN(split) {
			e.met.lshapeAttempts.Inc()
			res, lErr := estimate.RunLShape(allObs, split, estCfg)
			if errors.Is(lErr, estimate.ErrCanceled) {
				return nil, canceledErr(ctx, "locate")
			}
			if lErr == nil {
				est = res.Final
				if !est.Ambiguous {
					e.met.lshapeResolved.Inc()
				}
			}
		}
	}
	// A NaN must never escape as a fix, whatever the input did to the
	// regression.
	if !finiteEstimate(est) {
		return nil, rejectedErr(m.Health, ReasonNonFiniteEstimate, ErrNoEstimate)
	}
	m.Est = est
	return m, nil
}

// firstTurnEnd returns the end time of the first detected turn inside the
// observation span, or NaN.
func firstTurnEnd(track *motion.Track, times []float64) float64 {
	if len(times) == 0 {
		return math.NaN()
	}
	t0, t1 := times[0], times[len(times)-1]
	for _, turn := range track.Turns {
		if turn.End > t0 && turn.End < t1 {
			return turn.End
		}
	}
	return math.NaN()
}

// LocateWithCluster locates the target beacon and refines the result with
// the multi-beacon clustering calibration (paper Sec. 6): every other
// beacon in the trace is located independently; sequences that DTW-match
// the target's contribute their estimates to the weighted average.
func (e *Engine) LocateWithCluster(tr *sim.Trace, targetName string) (*Measurement, *cluster.Result, error) {
	return e.LocateWithClusterConfig(tr, targetName, cluster.DefaultConfig())
}

// LocateWithClusterConfig is LocateWithCluster with an explicit
// calibration configuration (ablation studies sweep the matcher).
func (e *Engine) LocateWithClusterConfig(tr *sim.Trace, targetName string, ccfg cluster.Config) (*Measurement, *cluster.Result, error) {
	if len(tr.Observations[targetName]) == 0 {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownBeacon, targetName)
	}
	// One fan-out locates the target and its neighbours together: their
	// pipelines are independent.
	var (
		target *Measurement
		cands  []cluster.Sequence
	)
	for _, res := range e.LocateAll(tr) {
		if res.Name == targetName {
			if res.Err != nil {
				return nil, nil, res.Err
			}
			target = res.M
			continue
		}
		ct, crss := tr.RSSSeries(res.Name)
		seq := cluster.Sequence{Name: res.Name, T: ct, RSS: crss}
		if res.Err == nil {
			seq.Estimate = res.M.Est
		}
		cands = append(cands, seq)
	}
	tt, trss := tr.RSSSeries(targetName)
	targetSeq := cluster.Sequence{Name: targetName, T: tt, RSS: trss, Estimate: target.Est}
	cres, err := cluster.Calibrate(targetSeq, cands, ccfg)
	if err != nil {
		return target, nil, err
	}
	cal := *target.Est
	cal.X, cal.H = cres.X, cres.H
	cal.Confidence = cres.Confidence
	calibrated := *target
	calibrated.Est = &cal
	return &calibrated, cres, nil
}
