package core

import (
	"locble/internal/estimate"
	"locble/internal/sim"
)

// Locate3D runs the paper's 3-D extension (Sec. 9.3): the observer's walk
// must include a vertical phone gesture (an `imu.Segment.Lift`) so the
// movement spans three dimensions; the regression then recovers the
// beacon's height relative to the phone's carry plane as well as its 2-D
// position. The vertical displacement is app-guided (the UI asks the
// user to raise the phone by a known amount), so — like the 90° turn
// instruction of Sec. 5.2 — the commanded profile from the ground-truth
// pose track stands in for inertial double-integration. The planar front
// half (sanitize, motion, zero-phase ANF, fusion) is Locate's, so
// unusable input returns the same *RejectedError.
func (e *Engine) Locate3D(tr *sim.Trace, beaconName string) (*estimate.Estimate3D, error) {
	p, err := e.prepare(tr, beaconName)
	if err != nil {
		return nil, err
	}
	fused := make([]estimate.Obs3D, len(p.fused))
	for i, o := range p.fused {
		fused[i] = estimate.Obs3D{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q, R: -tr.IMU.HeightAt(o.T)}
	}
	return estimate.Run3D(fused, p.estCfg)
}
