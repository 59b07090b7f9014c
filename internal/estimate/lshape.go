package estimate

import (
	"errors"
	"math"
)

// ErrNoOverlap is returned when the per-leg result sets share no
// consistent candidate.
var ErrNoOverlap = errors.New("estimate: leg result sets do not overlap")

// LShapeResult carries the disambiguated estimate plus the per-leg
// intermediate results for diagnostics.
type LShapeResult struct {
	// Final is the resolved estimate.
	Final *Estimate
	// LegA, LegB are the per-leg (ambiguous) estimates.
	LegA, LegB *Estimate
	// Overlap is the distance between the two matched candidates; small
	// values mean a clean disambiguation.
	Overlap float64
}

// RunLShape implements the paper's L-shaped measurement (Sec. 5.1): the
// observations are split at splitT (the time of the turn between the two
// legs); each straight leg is regressed separately, producing two mirror
// candidates each; the candidate pair with the smallest mutual distance
// identifies the true side; and a final regression over the full
// (2-D-spread) data refines the position, with the matched candidates
// selecting between mirror solutions if the full fit is itself ambiguous.
func (s *Solver) RunLShape(obs []Obs, splitT float64, cfg Config) (*LShapeResult, error) {
	metLShapeRuns.Inc()
	legA, legB := s.legA[:0], s.legB[:0]
	for _, o := range obs {
		if o.T < splitT {
			legA = append(legA, o)
		} else {
			legB = append(legB, o)
		}
	}
	s.legA, s.legB = legA, legB
	estA, errA := s.Run(legA, cfg)
	estB, errB := s.Run(legB, cfg)

	// Full-data fit: the combined movement spans two directions, so the
	// planar regression is usually well conditioned and unambiguous.
	full, errFull := s.Run(obs, cfg)

	res := &LShapeResult{LegA: estA, LegB: estB}

	switch {
	case errA == nil && errB == nil:
		metLShapeResolved.Inc()
		ca, cb, d := closestPair(estA.Candidates, estB.Candidates)
		res.Overlap = d
		resolved := Candidate{X: (ca.X + cb.X) / 2, H: (cb.H + ca.H) / 2}
		if errFull == nil {
			// Keep the full fit if it lands near the resolved candidate;
			// among mirror candidates of the full fit pick the closest.
			res.Final = full.Nearest(resolved)
			return res, nil
		}
		// Fall back to the intersection alone, confidence-weighted.
		wa, wb := math.Max(estA.Confidence, 1e-6), math.Max(estB.Confidence, 1e-6)
		fin := *estA
		fin.X = (ca.X*wa + cb.X*wb) / (wa + wb)
		fin.H = (ca.H*wa + cb.H*wb) / (wa + wb)
		fin.Ambiguous = false
		fin.Candidates = []Candidate{{X: fin.X, H: fin.H}}
		fin.Confidence = (estA.Confidence + estB.Confidence) / 2
		res.Final = &fin
		return res, nil

	case errFull == nil:
		// Legs too short individually; the combined fit still works.
		metLShapeFallback.Inc()
		res.Final = full
		return res, nil

	case errA == nil:
		metLShapeFallback.Inc()
		res.Final = estA
		return res, nil
	case errB == nil:
		metLShapeFallback.Inc()
		res.Final = estB
		return res, nil
	default:
		metLShapeFailed.Inc()
		return nil, errFull
	}
}

// closestPair finds the candidate pair (one from each set) with minimal
// distance.
func closestPair(as, bs []Candidate) (Candidate, Candidate, float64) {
	best := math.Inf(1)
	var ba, bb Candidate
	for _, a := range as {
		for _, b := range bs {
			if d := a.Dist(b); d < best {
				best, ba, bb = d, a, b
			}
		}
	}
	return ba, bb, best
}
