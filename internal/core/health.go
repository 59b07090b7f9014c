package core

import (
	"errors"
	"fmt"
	"strings"
)

// HealthStatus grades how much a location result should be trusted.
// The pipeline's historical contract was error-or-estimate; Health turns
// that binary into a graded signal so callers can distinguish "trust this
// fix" from "got a fix out of impaired data" from "the input was
// unusable".
type HealthStatus int

const (
	// HealthOK: the input passed sanitization untouched (or nearly so)
	// and the estimate can be trusted at its stated confidence.
	HealthOK HealthStatus = iota
	// HealthDegraded: the input was impaired but recoverable — the
	// estimate is real, its Reasons list what was wrong with the data.
	HealthDegraded
	// HealthRejected: the input was unusable; no estimate is returned
	// (Locate reports a *RejectedError carrying this health).
	HealthRejected
)

func (s HealthStatus) String() string {
	switch s {
	case HealthOK:
		return "OK"
	case HealthDegraded:
		return "degraded"
	case HealthRejected:
		return "rejected"
	}
	return fmt.Sprintf("HealthStatus(%d)", int(s))
}

// HealthReason is a machine-readable cause for a Degraded or Rejected
// classification.
type HealthReason string

const (
	// ReasonShortWindow: the observation span is shorter than the
	// minimum measurement window.
	ReasonShortWindow HealthReason = "short-window"
	// ReasonFewSamples: too few valid observations survived sanitization.
	ReasonFewSamples HealthReason = "few-samples"
	// ReasonRSSGaps: the RSS series has gaps longer than the nominal
	// report interval allows (dropout bursts, scanner stalls).
	ReasonRSSGaps HealthReason = "rss-gaps"
	// ReasonNonFiniteRSS: NaN/Inf RSSI values were dropped.
	ReasonNonFiniteRSS HealthReason = "non-finite-rss"
	// ReasonExcessiveLoss: sanitization discarded more than the tolerated
	// fraction of the input, whatever the individual causes.
	ReasonExcessiveLoss HealthReason = "excessive-loss"
	// ReasonClippedRSS: a large run of samples sits exactly on a rail
	// value (receiver saturation or a reporting floor).
	ReasonClippedRSS HealthReason = "clipped-rss"
	// ReasonTimestampAnomaly: observations arrived out of order or
	// duplicated and were repaired.
	ReasonTimestampAnomaly HealthReason = "timestamp-anomaly"
	// ReasonClockSkew: observation timestamps extend beyond the IMU
	// timeline (skewed BLE clock); the overhang was dropped.
	ReasonClockSkew HealthReason = "clock-skew"
	// ReasonIMUDropout: the inertial stream has a delivery gap.
	ReasonIMUDropout HealthReason = "imu-dropout"
	// ReasonIMUSaturation: the accelerometer rails at a fixed limit.
	ReasonIMUSaturation HealthReason = "imu-saturation"
	// ReasonNoEstimate: sanitized data reached the estimator but no
	// segment produced a usable fit.
	ReasonNoEstimate HealthReason = "no-estimate"
	// ReasonRSSOnlyFallback: the inertial stream was unusable, so the fix
	// came from the degradation ladder's RSS-only path-loss proximity
	// rung (range only, bearing unknown).
	ReasonRSSOnlyFallback HealthReason = "rss-only-fallback"
	// ReasonStaleFix: no usable observation window, so the previous fix
	// was re-emitted within the staleness bound (ladder's bottom rung).
	ReasonStaleFix HealthReason = "stale-fix"
	// ReasonBeaconAnomaly: the beacon identity shows physically
	// impossible interleaved RSSI deltas — the signature of a cloned or
	// spoofed beacon transmitting alongside the real one.
	ReasonBeaconAnomaly HealthReason = "beacon-anomaly"
	// ReasonTxPowerDrift: the running residual median showed the
	// beacon's transmit power drifting off its advertised calibration
	// (a dying battery); Γ(e) was re-anchored.
	ReasonTxPowerDrift HealthReason = "txpower-drift"
	// ReasonBeaconEvicted: the tracked beacon's last-known state
	// exceeded the staleness bound and was evicted.
	ReasonBeaconEvicted HealthReason = "stale-beacon"
	// ReasonNonFiniteEstimate: the estimator returned NaN/Inf (never
	// exposed to callers; the measurement is rejected instead).
	ReasonNonFiniteEstimate HealthReason = "non-finite-estimate"
)

// Health is the machine-readable degradation report attached to every
// measurement (and carried by *RejectedError when no measurement could be
// produced).
type Health struct {
	Status  HealthStatus
	Reasons []HealthReason
	// Dropped counts observations discarded by sanitization.
	Dropped int
	// Repaired counts observations re-ordered or de-duplicated.
	Repaired int
}

// Has reports whether the health carries the given reason.
func (h Health) Has(r HealthReason) bool {
	for _, have := range h.Reasons {
		if have == r {
			return true
		}
	}
	return false
}

func (h Health) String() string {
	if len(h.Reasons) == 0 {
		return h.Status.String()
	}
	rs := make([]string, len(h.Reasons))
	for i, r := range h.Reasons {
		rs[i] = string(r)
	}
	return h.Status.String() + " (" + strings.Join(rs, ", ") + ")"
}

// clone returns a deep copy whose Reasons slice is independent —
// required before degrading a health that another fix still references.
func (h Health) clone() Health {
	out := h
	out.Reasons = append([]HealthReason(nil), h.Reasons...)
	return out
}

// merge returns a copy of h that also carries o's reasons and dropped
// count — a tracked fix's trace health plus its session's.
func (h Health) merge(o Health) Health {
	out := h.clone()
	for _, r := range o.Reasons {
		out.degrade(r)
	}
	out.Dropped += o.Dropped
	return out
}

// add records a reason once.
func (h *Health) add(r HealthReason) {
	if !h.Has(r) {
		h.Reasons = append(h.Reasons, r)
	}
}

// degrade marks the health Degraded (unless already Rejected) for reason r.
func (h *Health) degrade(r HealthReason) {
	h.add(r)
	if h.Status < HealthDegraded {
		h.Status = HealthDegraded
	}
}

// reject marks the health Rejected for reason r.
func (h *Health) reject(r HealthReason) {
	h.add(r)
	h.Status = HealthRejected
}

// RejectedError reports that sanitization or estimation classified the
// input as unusable. It wraps the underlying cause (when any) and carries
// the full health report so callers keep the machine-readable reasons.
type RejectedError struct {
	Health Health
	Err    error
}

func (e *RejectedError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("core: measurement rejected: %s: %v", e.Health, e.Err)
	}
	return fmt.Sprintf("core: measurement rejected: %s", e.Health)
}

func (e *RejectedError) Unwrap() error { return e.Err }

// rejectedErr builds a *RejectedError from a health report, forcing the
// status to Rejected.
func rejectedErr(h Health, r HealthReason, cause error) error {
	h.reject(r)
	return &RejectedError{Health: h, Err: cause}
}

// HealthFromError recovers the health report from a Locate/Track error:
// a *RejectedError yields its embedded report; any other error maps to a
// plain Rejected status.
func HealthFromError(err error) Health {
	var re *RejectedError
	if errors.As(err, &re) {
		return re.Health
	}
	return Health{Status: HealthRejected}
}
