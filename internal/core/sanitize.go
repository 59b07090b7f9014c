package core

import (
	"math"
	"sort"

	"locble/internal/imu"
	"locble/internal/sim"
)

// SanitizeConfig holds the thresholds of the defensive input pass that
// runs before the pipeline proper. Every engine uses
// DefaultSanitizeConfig, calibrated so a clean simulated trace
// classifies as HealthOK (clean max inter-report gap is ~0.5 s at the
// paper's 10 Hz advertising) while the impairments the faults package
// injects are detected and reported.
type SanitizeConfig struct {
	// MaxGap is the RSS inter-report gap (seconds) above which the
	// measurement is flagged ReasonRSSGaps.
	MaxGap float64
	// BridgeGap is the longest gap (seconds) the preprocessor bridges
	// with interpolated samples before low-pass filtering, so a dropout
	// burst does not smear filter ringing into its neighbours.
	BridgeGap float64
	// MinSpan is the minimum observation span (seconds); shorter
	// measurements are rejected (ReasonShortWindow).
	MinSpan float64
	// MinSamples is the minimum number of valid observations; fewer are
	// rejected (ReasonFewSamples).
	MinSamples int
	// MaxDropFrac is the fraction of discarded observations above which
	// the measurement degrades.
	MaxDropFrac float64
	// RailFrac is the fraction of samples sitting exactly on the series
	// extreme above which clipping is flagged (ReasonClippedRSS).
	RailFrac float64
	// SkewTolerance is how far (seconds) observation timestamps may
	// extend past the IMU timeline before the overhang is dropped and
	// ReasonClockSkew raised.
	SkewTolerance float64
	// IMUMaxGap is the inertial-stream delivery gap (seconds) that flags
	// ReasonIMUDropout.
	IMUMaxGap float64
	// IMURailFrac is the fraction of accelerometer samples pinned at the
	// absolute maximum that flags ReasonIMUSaturation.
	IMURailFrac float64
	// Beacon-identity anomaly detection (clone/spoof): two transmitters
	// sharing one identity at different ranges produce interleaved
	// readings whose adjacent deltas alternate sign with a magnitude no
	// honest channel produces at report rate. A run of CloneMinFlips
	// consecutive sign-alternating jumps of at least CloneDeltaDB dB,
	// each within CloneWindowS seconds, flags ReasonBeaconAnomaly.
	CloneDeltaDB  float64
	CloneWindowS  float64
	CloneMinFlips int
}

// DefaultSanitizeConfig returns the calibrated thresholds.
func DefaultSanitizeConfig() SanitizeConfig {
	return SanitizeConfig{
		MaxGap:        1.0,
		BridgeGap:     2.5,
		MinSpan:       3.0,
		MinSamples:    8,
		MaxDropFrac:   0.05,
		RailFrac:      0.20,
		SkewTolerance: 0.75,
		IMUMaxGap:     0.30,
		IMURailFrac:   0.02,
		CloneDeltaDB:  15,
		CloneWindowS:  0.4,
		CloneMinFlips: 6,
	}
}

// sanitizeObservations returns a cleaned copy of obs: non-finite and
// physically impossible RSSI dropped, timestamps sorted and exact
// duplicates removed, clock-skew overhang beyond the IMU timeline
// (imuDur, 0 to skip) trimmed. Findings accumulate into h; the caller
// decides rejection from the returned slice's size/span.
func sanitizeObservations(obs []sim.BeaconObservation, cfg SanitizeConfig, imuDur float64, h *Health) []sim.BeaconObservation {
	clean := make([]sim.BeaconObservation, 0, len(obs))
	nonFinite := false
	for _, o := range obs {
		switch {
		case math.IsNaN(o.RSSI) || math.IsInf(o.RSSI, 0) || math.IsNaN(o.T) || math.IsInf(o.T, 0):
			nonFinite = true
			h.Dropped++
		case o.RSSI > 20 || o.RSSI < -130 || o.T < -cfg.SkewTolerance:
			// A positive-dBm or sub-thermal reading is a transport bug,
			// not a measurement.
			h.Dropped++
		default:
			clean = append(clean, o)
		}
	}
	if nonFinite {
		h.degrade(ReasonNonFiniteRSS)
	}

	// Order repair: count inversions before sorting so reordering is
	// observable, then stable-sort by time.
	inversions := 0
	for i := 1; i < len(clean); i++ {
		if clean[i].T < clean[i-1].T {
			inversions++
		}
	}
	if inversions > 0 {
		sort.SliceStable(clean, func(i, j int) bool { return clean[i].T < clean[j].T })
		h.Repaired += inversions
	}

	// De-duplicate exact repeats (same instant, same reading).
	dedup := clean[:0]
	for i, o := range clean {
		if i > 0 {
			prev := dedup[len(dedup)-1]
			if math.Abs(o.T-prev.T) < 1e-9 && o.RSSI == prev.RSSI {
				h.Repaired++
				continue
			}
		}
		dedup = append(dedup, o)
	}
	clean = dedup
	if h.Repaired > 2 && float64(h.Repaired) > 0.02*float64(len(obs)) {
		h.degrade(ReasonTimestampAnomaly)
	}

	// Clock skew: the BLE timeline must not outrun the inertial one.
	if imuDur > 0 {
		trimmed := clean[:0]
		skewed := 0
		for _, o := range clean {
			if o.T > imuDur+cfg.SkewTolerance {
				skewed++
				continue
			}
			trimmed = append(trimmed, o)
		}
		clean = trimmed
		if skewed > 0 {
			h.Dropped += skewed
			h.degrade(ReasonClockSkew)
		}
	}

	if len(obs) > 0 && float64(h.Dropped) > cfg.MaxDropFrac*float64(len(obs)) {
		h.degrade(ReasonExcessiveLoss)
	}

	detectRSSRails(clean, cfg, h)
	detectRSSGaps(clean, cfg, h)
	detectCloneAnomaly(clean, cfg, h)
	return clean
}

// detectCloneAnomaly flags a beacon identity whose readings interleave
// two physically separate transmitters: adjacent samples alternating by
// ≥ CloneDeltaDB in opposite directions, each jump inside CloneWindowS.
// Honest channels jitter a few dB between reports and an honest step
// change (environment transition, TX decay) moves in one direction —
// only two sources at different ranges produce a sustained alternating
// run. The detector degrades (never rejects): the robust loss can still
// fit the honest subset, and callers get the machine-readable flag.
func detectCloneAnomaly(obs []sim.BeaconObservation, cfg SanitizeConfig, h *Health) {
	flips, lastSign := 0, 0
	for i := 1; i < len(obs); i++ {
		dt := obs[i].T - obs[i-1].T
		dv := obs[i].RSSI - obs[i-1].RSSI
		if dt <= 0 || dt > cfg.CloneWindowS || math.Abs(dv) < cfg.CloneDeltaDB {
			flips, lastSign = 0, 0
			continue
		}
		sign := 1
		if dv < 0 {
			sign = -1
		}
		if lastSign != 0 && sign != lastSign {
			flips++
			if flips >= cfg.CloneMinFlips {
				h.degrade(ReasonBeaconAnomaly)
				return
			}
		}
		lastSign = sign
	}
}

// detectRSSRails flags a series where a large fraction of samples sits
// exactly on the min or max value — the signature of value clipping
// (fading makes honest extremes unique).
func detectRSSRails(obs []sim.BeaconObservation, cfg SanitizeConfig, h *Health) {
	if len(obs) < 20 {
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range obs {
		lo = math.Min(lo, o.RSSI)
		hi = math.Max(hi, o.RSSI)
	}
	if hi-lo < 1e-9 {
		h.degrade(ReasonClippedRSS) // fully stuck radio
		return
	}
	atLo, atHi := 0, 0
	for _, o := range obs {
		if math.Abs(o.RSSI-lo) < 1e-9 {
			atLo++
		}
		if math.Abs(o.RSSI-hi) < 1e-9 {
			atHi++
		}
	}
	if float64(atLo) >= cfg.RailFrac*float64(len(obs)) || float64(atHi) >= cfg.RailFrac*float64(len(obs)) {
		h.degrade(ReasonClippedRSS)
	}
}

// detectRSSGaps flags inter-report gaps above cfg.MaxGap.
func detectRSSGaps(obs []sim.BeaconObservation, cfg SanitizeConfig, h *Health) {
	for i := 1; i < len(obs); i++ {
		if obs[i].T-obs[i-1].T > cfg.MaxGap {
			h.degrade(ReasonRSSGaps)
			return
		}
	}
}

// checkIMUHealth inspects the inertial stream for delivery gaps and
// accelerometer saturation. It never rejects by itself — a damaged IMU
// stream degrades the fix; a missing one fails in motion alignment.
func checkIMUHealth(tr *imu.Trace, cfg SanitizeConfig, h *Health) {
	if tr == nil || len(tr.Samples) < 2 {
		return
	}
	s := tr.Samples
	for i := 1; i < len(s); i++ {
		if s[i].T-s[i-1].T > cfg.IMUMaxGap {
			h.degrade(ReasonIMUDropout)
			break
		}
	}
	// Saturation: a rail value is hit exactly, repeatedly. Honest noisy
	// extremes are unique to within float precision.
	if len(s) >= 50 {
		rail := 0.0
		for _, sm := range s {
			for a := 0; a < 3; a++ {
				rail = math.Max(rail, math.Abs(sm.Acc[a]))
			}
		}
		atRail := 0
		for _, sm := range s {
			for a := 0; a < 3; a++ {
				if math.Abs(math.Abs(sm.Acc[a])-rail) < 1e-9 {
					atRail++
					break
				}
			}
		}
		if float64(atRail) >= cfg.IMURailFrac*float64(len(s)) {
			h.degrade(ReasonIMUSaturation)
		}
	}
}

// bridgeGaps inserts linearly interpolated samples into gaps between
// 3× the nominal report period and cfg.BridgeGap, so the low-pass filter
// sees a quasi-uniform series instead of ringing across a dropout burst.
// It returns the (possibly expanded) series plus a keep mask selecting
// the original samples; a nil mask means nothing was inserted.
func bridgeGaps(times, rss []float64, cfg SanitizeConfig) (bt, brss []float64, keep []bool) {
	if len(times) < 2 {
		return times, rss, nil
	}
	diffs := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		if d := times[i] - times[i-1]; d > 0 {
			diffs = append(diffs, d)
		}
	}
	if len(diffs) == 0 {
		return times, rss, nil
	}
	sort.Float64s(diffs)
	nominal := diffs[len(diffs)/2]
	if nominal <= 0 {
		return times, rss, nil
	}
	threshold := 3 * nominal
	inserted := false
	bt = make([]float64, 0, len(times))
	brss = make([]float64, 0, len(rss))
	keep = make([]bool, 0, len(times))
	for i := range times {
		if i > 0 {
			gap := times[i] - times[i-1]
			if gap > threshold && gap <= cfg.BridgeGap {
				n := int(gap/nominal) - 1
				for k := 1; k <= n; k++ {
					frac := float64(k) / float64(n+1)
					bt = append(bt, times[i-1]+frac*gap)
					brss = append(brss, rss[i-1]+frac*(rss[i]-rss[i-1]))
					keep = append(keep, false)
					inserted = true
				}
			}
		}
		bt = append(bt, times[i])
		brss = append(brss, rss[i])
		keep = append(keep, true)
	}
	if !inserted {
		return times, rss, nil
	}
	return bt, brss, keep
}
