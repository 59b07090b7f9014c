package core

import (
	"fmt"
	"math"

	"locble/internal/estimate"
	"locble/internal/imu"
	"locble/internal/motion"
	"locble/internal/sigproc"
	"locble/internal/sim"
)

// prepared is the output of the shared preprocessing front half of the
// pipeline: sanitized observations, dead-reckoned motion, filtered RSS
// and the fused observation set the estimator consumes, plus the health
// report accumulated along the way. Locate and TrackBeacon both build on
// it, so input hardening lives in exactly one place.
type prepared struct {
	track       *motion.Track
	targetTrack *motion.Track
	estCfg      estimate.Config
	times       []float64
	raw         []float64
	filtered    []float64
	fused       []estimate.Obs
	health      Health
}

// prepare runs sanitization, motion processing and adaptive noise
// filtering for one beacon of a trace. Unusable input returns a
// *RejectedError carrying the health report.
func (e *Engine) prepare(tr *sim.Trace, beaconName string) (*prepared, error) {
	obs, ok := tr.Observations[beaconName]
	if !ok || len(obs) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBeacon, beaconName)
	}

	scfg := DefaultSanitizeConfig()
	p := &prepared{}
	h := &p.health

	// --- Input sanitization -------------------------------------------
	spSanitize := e.met.stSanitize.Start()
	imuDur := 0.0
	if tr.IMU != nil && len(tr.IMU.Samples) > 0 {
		imuDur = tr.IMU.Samples[len(tr.IMU.Samples)-1].T
	}
	clean := sanitizeObservations(obs, scfg, imuDur, h)
	if len(clean) < scfg.MinSamples {
		spSanitize.End()
		return nil, rejectedErr(*h, ReasonFewSamples, fmt.Errorf("%d valid observations", len(clean)))
	}
	if span := clean[len(clean)-1].T - clean[0].T; span < scfg.MinSpan {
		spSanitize.End()
		return nil, rejectedErr(*h, ReasonShortWindow, fmt.Errorf("%.1fs observation span", span))
	}
	checkIMUHealth(tr.IMU, scfg, h)
	spSanitize.End()

	// --- Motion layer -------------------------------------------------
	spMotion := e.met.stMotion.Start()
	var rawIMU []imu.Sample
	if tr.IMU != nil {
		rawIMU = tr.IMU.Samples
	}
	_, alignedSamples, err := motion.Align(rawIMU)
	if err != nil {
		spMotion.End()
		return nil, rejectedErr(*h, ReasonIMUDropout, fmt.Errorf("core: align: %w", err))
	}
	p.track, err = motion.BuildTrack(alignedSamples, e.cfg.Tracker)
	if err != nil {
		spMotion.End()
		return nil, rejectedErr(*h, ReasonIMUDropout, fmt.Errorf("core: track: %w", err))
	}

	// Optional target movement (moving-target mode).
	if tr.TargetIMU != nil && len(tr.Beacons) > 0 && beaconName == tr.Beacons[0].Name {
		_, tgtAligned, err := motion.Align(tr.TargetIMU.Samples)
		if err != nil {
			spMotion.End()
			return nil, rejectedErr(*h, ReasonIMUDropout, fmt.Errorf("core: align target: %w", err))
		}
		p.targetTrack, err = motion.BuildTrack(tgtAligned, e.cfg.Tracker)
		if err != nil {
			spMotion.End()
			return nil, rejectedErr(*h, ReasonIMUDropout, fmt.Errorf("core: target track: %w", err))
		}
	}
	spMotion.End()

	// Anchor the estimator's Γ plausibility band to the beacon's
	// advertised calibrated power (the paper's Γ(e) = P + X(e): P is the
	// known hardware power from the payload, X(e) the environment loss).
	// The band spans NLOS penetration + body loss below and device RSSI
	// offsets above.
	p.estCfg = e.cfg.Estimator
	for _, spec := range tr.Beacons {
		if spec.Name == beaconName && spec.Tx.TxPowerDBm != 0 {
			p.estCfg.GammaSoftMin = spec.Tx.TxPowerDBm - 18
			p.estCfg.GammaSoftMax = spec.Tx.TxPowerDBm + 8
			break
		}
	}

	// --- Preprocessing layer (Sec. 4) ---------------------------------
	p.raw = make([]float64, len(clean))
	p.times = make([]float64, len(clean))
	for i, o := range clean {
		p.raw[i] = o.RSSI
		p.times[i] = o.T
	}

	p.filtered = p.raw
	if !e.cfg.DisableANF {
		spFilter := e.met.stFilter.Start()
		fs := tr.Phone.SampleRateHz
		if fs <= 0 {
			fs = 9
		}
		bf, err := sigproc.NewButterworth(e.cfg.ButterworthOrder, math.Min(e.cfg.CutoffHz, fs/2*0.8), fs)
		if err != nil {
			spFilter.End()
			return nil, fmt.Errorf("core: ANF design: %w", err)
		}
		// Bridge recoverable dropout gaps with interpolated samples so
		// the filter does not ring across them, then keep only the
		// filtered values at the original sample positions.
		_, brss, keepMask := bridgeGaps(p.times, p.raw, scfg)
		var bFiltered []float64
		if e.cfg.StreamingANF {
			akf := sigproc.NewAKF(bf)
			if e.cfg.AKFMaxAlpha > 0 {
				akf.MaxAlpha = e.cfg.AKFMaxAlpha
			}
			bFiltered = akf.Filter(brss)
			e.met.recordAKF(akf.Stats())
		} else {
			bFiltered = sigproc.FiltFilt(bf, brss)
		}
		if keepMask == nil {
			p.filtered = bFiltered
		} else {
			p.filtered = make([]float64, 0, len(p.raw))
			for i, keep := range keepMask {
				if keep {
					p.filtered = append(p.filtered, bFiltered[i])
				}
			}
		}
		spFilter.End()
	}

	// --- Fusion with the motion track ---------------------------------
	p.fused = make([]estimate.Obs, len(clean))
	for i := range clean {
		ox, oy := p.track.At(p.times[i])
		px, qy := -ox, -oy
		if p.targetTrack != nil {
			bx, by := p.targetTrack.At(p.times[i])
			px += bx
			qy += by
		}
		p.fused[i] = estimate.Obs{T: p.times[i], RSS: p.filtered[i], P: px, Q: qy}
	}
	return p, nil
}

// finiteEstimate reports whether every numeric field of the estimate is
// finite — the pipeline's last line of defence against a NaN escaping to
// a caller.
func finiteEstimate(est *estimate.Estimate) bool {
	for _, v := range []float64{est.X, est.H, est.N, est.Gamma, est.ResidualDB, est.Confidence} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
