package core

import (
	"context"
	"errors"

	"locble/internal/estimate"
	"locble/internal/sim"
)

// TrackPoint is one sliding-window fix produced by a TrackSession (and
// so by TrackBeacon, which replays a trace through one).
type TrackPoint struct {
	// T is the fix's due time on the schedule (seconds into the trace);
	// its window ends at the observation that reached T.
	T float64
	// Est is the estimate fitted on the window. For a stationary beacon
	// successive fixes should agree; for a moving target each fix
	// estimates the target's position at the *start* of its window
	// (paper Sec. 5: the regression recovers the initial location).
	Est *estimate.Estimate
	// WindowStart is the first observation time used.
	WindowStart float64
	// Samples used in the window.
	Samples int
	// Health is the fix's own degradation report: TrackBeacon's fixes
	// carry the trace health plus the session's reasons (dropped
	// readings, txpower-drift, stale-beacon, and stale-fix on a
	// re-emitted fix).
	Health Health
	// Mode identifies which degradation-ladder rung produced this fix:
	// ModeFull for a window that fitted, ModeLastKnown for a re-emitted
	// previous fix within the staleness bound.
	Mode FixMode
}

// TrackBeacon runs sliding-window estimation over a trace: a fix every
// step seconds, each fitted on the most recent window seconds of fused
// RSS + motion data (zero selects 6 s / 2 s, as for a TrackSession).
// This is the "tracking" in the paper's title — a stream of location
// fixes rather than one measurement — and also what the navigation UI
// consumes while the user keeps moving.
func (e *Engine) TrackBeacon(tr *sim.Trace, beaconName string, window, step float64) ([]TrackPoint, error) {
	return e.TrackBeaconContext(context.Background(), tr, beaconName, window, step)
}

// TrackBeaconContext is TrackBeacon under a context: a deadline or
// cancellation stops the replay between observations and interrupts the
// per-window regression mid-search. A canceled run returns an error
// matching the context error under errors.Is (no partial fixes).
func (e *Engine) TrackBeaconContext(ctx context.Context, tr *sim.Trace, beaconName string, window, step float64) ([]TrackPoint, error) {
	sp := e.met.trackSpan.Start()
	pts, err := e.trackBeacon(ctx, tr, beaconName, window, step)
	sp.End()
	e.met.trackRuns.Inc()
	if err != nil {
		if isCanceled(err) {
			e.met.canceled.Inc()
		} else {
			e.met.recordHealth(HealthFromError(err))
		}
		return nil, err
	}
	e.met.recordHealth(pts[0].Health)
	return pts, nil
}

// trackBeacon is the uninstrumented body behind TrackBeacon: Locate's
// front half (sanitize, motion, zero-phase ANF, fusion), then a replay
// of the fused observations through a TrackSession, so batch and live
// tracking share one window schedule, mirror resolution, Γ-drift
// detector and last-known rung. The replay needs neither of the
// session's causal filters — the RSS is already zero-phase filtered,
// and batch tracking does not restart windows on an EnvAware change.
func (e *Engine) trackBeacon(ctx context.Context, tr *sim.Trace, beaconName string, window, step float64) ([]TrackPoint, error) {
	p, err := e.prepare(tr, beaconName)
	if err != nil {
		return nil, err
	}
	s, err := e.NewTrackSession(TrackSessionConfig{
		Beacon:    beaconName,
		Window:    window,
		Step:      step,
		Estimator: &p.estCfg,
	})
	if err != nil {
		return nil, err
	}
	s.akf, s.mon = nil, nil
	s.estCfg.Cancel = cancelFromCtx(ctx)

	var points []TrackPoint
	emit := func(pt *TrackPoint, err error) error {
		if errors.Is(err, estimate.ErrCanceled) || ctx.Err() != nil {
			return canceledErr(ctx, "track")
		}
		if err != nil {
			return err
		}
		if pt != nil {
			fix := *pt
			fix.Health = p.health.merge(pt.Health)
			points = append(points, fix)
		}
		return nil
	}
	for _, o := range p.fused {
		if err := emit(s.Push(o)); err != nil {
			return nil, err
		}
	}
	if err := emit(s.finish()); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, rejectedErr(p.health, ReasonNoEstimate, ErrNoEstimate)
	}
	return points, nil
}
