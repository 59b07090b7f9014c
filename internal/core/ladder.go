package core

import (
	"errors"
	"fmt"
	"math"

	"locble/internal/estimate"
	"locble/internal/rf"
	"locble/internal/robust"
	"locble/internal/sim"
)

// FixMode identifies which rung of the degradation ladder produced a
// fix. The pipeline's historical contract was full-fusion-or-error; the
// ladder replaces the error half with progressively weaker — but
// honestly labelled — fallbacks, so a navigation UI can keep showing
// something truthful while the sensors misbehave.
type FixMode int

const (
	// ModeFull: the full radio-inertial fusion pipeline (the paper's
	// elliptical regression over fused RSS + dead reckoning).
	ModeFull FixMode = iota
	// ModeRSSOnly: the inertial stream was unusable, so the fix is a
	// range-only path-loss proximity estimate from the RSS series alone.
	// The bearing is unknown (the estimate is marked Ambiguous).
	ModeRSSOnly
	// ModeLastKnown: no usable observation window; the previous fix is
	// re-emitted within the staleness bound.
	ModeLastKnown
)

func (m FixMode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeRSSOnly:
		return "rss-only"
	case ModeLastKnown:
		return "last-known"
	}
	return fmt.Sprintf("FixMode(%d)", int(m))
}

// DefaultStaleMaxAge is the ladder's staleness bound, in seconds of
// observation time: how long last-known fixes are re-emitted before a
// beacon's tracking state is given up on. The fleet manager reuses it
// as the default idle age before a silent session is evicted — "too
// stale to show" and "too idle to keep resident" are the same horizon.
const DefaultStaleMaxAge = 10

// rssOnlyExponent is the path-loss exponent the RSS-only proximity rung
// assumes (no geometry to fit one from): the middle of the indoor band.
const rssOnlyExponent = 2.5

// tryRSSOnly is the ladder's second rung: when prepare rejected the
// trace because the inertial stream was unusable, fall back to a
// range-only path-loss proximity estimate from the sanitized RSS series
// alone. The fix carries Mode == ModeRSSOnly, a Degraded health naming
// both the cause (imu-dropout) and the rung (rss-only-fallback), and an
// Ambiguous estimate (range is known, bearing is not).
func (e *Engine) tryRSSOnly(tr *sim.Trace, beaconName string, cause error) (*Measurement, bool) {
	var re *RejectedError
	if !errors.As(cause, &re) || !re.Health.Has(ReasonIMUDropout) {
		return nil, false
	}
	obs, ok := tr.Observations[beaconName]
	if !ok || len(obs) == 0 {
		return nil, false
	}

	// Re-sanitize without the IMU timeline: the RSS series must stand on
	// its own for this rung.
	scfg := DefaultSanitizeConfig()
	var h Health
	clean := sanitizeObservations(obs, scfg, 0, &h)
	if len(clean) < scfg.MinSamples {
		return nil, false
	}
	if span := clean[len(clean)-1].T - clean[0].T; span < scfg.MinSpan {
		return nil, false
	}
	h.degrade(ReasonIMUDropout)
	h.degrade(ReasonRSSOnlyFallback)

	raw := make([]float64, len(clean))
	times := make([]float64, len(clean))
	for i, o := range clean {
		raw[i] = o.RSSI
		times[i] = o.T
	}

	// Proximity reading: the robust maximum of the series (an impulse or
	// spoofed spike must not fake a close approach).
	_, vMax, _ := robust.RobustMax(raw, DefaultProximityFusionConfig().TopQuantile, 3, nil)
	if math.IsNaN(vMax) {
		return nil, false
	}

	// Γ anchor: the advertised calibrated power when the payload carries
	// one (the paper's Γ(e) = P + X(e) with X ≈ 0 as the LOS prior),
	// otherwise the middle of the estimator's plausibility band.
	gamma := (e.cfg.Estimator.GammaSoftMin + e.cfg.Estimator.GammaSoftMax) / 2
	if gamma == 0 {
		gamma = -65
	}
	for _, spec := range tr.Beacons {
		if spec.Name == beaconName && spec.Tx.TxPowerDBm != 0 {
			gamma = spec.Tx.TxPowerDBm
			break
		}
	}
	n := rssOnlyExponent
	d := rf.PathLossDistance(vMax, gamma, n)
	maxRange := e.cfg.Estimator.MaxRange
	if maxRange <= 0 {
		maxRange = 25
	}
	d = math.Min(math.Max(d, 0.1), maxRange)

	// Range-only fix: report the range along the +x axis and flag the
	// bearing ambiguity; confidence is pinned low — this rung is a
	// proximity hint, not a position.
	est := &estimate.Estimate{
		X:          d,
		H:          0,
		Candidates: []estimate.Candidate{{X: d, H: 0}},
		N:          n,
		Gamma:      gamma,
		ResidualDB: 0,
		Confidence: 0.1,
		Ambiguous:  true,
		Samples:    len(clean),
	}
	m := &Measurement{
		Est:      est,
		Raw:      raw,
		Filtered: raw,
		Times:    times,
		Segments: 1,
		Health:   h,
		Mode:     ModeRSSOnly,
	}
	e.met.modeRSSOnly.Inc()
	return m, true
}
