package estimate

import (
	"errors"
	"sync"
)

// Solver owns the estimator's reusable scratch: the log-distance and
// residual buffers behind the closed-form inner fit, the ρ buffer of the
// elliptical initializer, the IRLS buffers, and the per-seed states of
// the multi-start position search. A warmed Solver runs the whole
// search — objective and gradient evaluations and trust-region
// iterations — without allocating; only the returned *Estimate (and its
// Candidates) is fresh memory. A Solver is NOT safe for concurrent use:
// give each goroutine its own (the LocateAll worker pool does exactly
// that), or go through the package-level Run/RunSegmented/RunLShape/
// Run3D wrappers, which draw from an internal sync.Pool.
type Solver struct {
	// gs holds per-observation log-distances for the closed-form (n, Γ)
	// fit; valid only within one evaluation.
	gs []float64
	// resid holds per-observation fit residuals in finish.
	resid []float64
	// rho holds ρᵢ values for the elliptical-LS initializer.
	rho []float64
	// rr / w / madScratch are the IRLS residual, weight and MAD working
	// buffers of the robust inner fit.
	rr, w, madScratch []float64
	// obj is the objective the position search minimizes during a run.
	obj objective
	// starts holds one search state per seed of the multi-start; ringP
	// the ring seed positions.
	starts []trState
	ringP  [][2]float64
	// seg1 backs the single-segment list of an unsegmented run.
	seg1 [1][2]int
	// legA / legB are the per-leg observation splits of RunLShape.
	legA, legB []Obs
}

// scoredSeed is a ring seed with its screening score.
type scoredSeed struct {
	x, h, v float64
}

// NewSolver returns an empty Solver; buffers grow on first use and are
// retained across runs.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs the package-level entry points so casual callers get
// scratch reuse without managing Solver lifetimes.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// Run fits the model to the observations and returns the estimate with
// the ambiguity (if any) unresolved.
func Run(obs []Obs, cfg Config) (*Estimate, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.Run(obs, cfg)
}

// RunSegmented fits one target position across environment segments
// using pooled scratch; see Solver.RunSegmented.
func RunSegmented(obs []Obs, segStarts []int, cfg Config) (*Estimate, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.RunSegmented(obs, segStarts, cfg)
}

// RunLShape disambiguates a straight-line mirror solution with the
// L-shaped movement using pooled scratch; see Solver.RunLShape.
func RunLShape(obs []Obs, splitT float64, cfg Config) (*LShapeResult, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.RunLShape(obs, splitT, cfg)
}

// Run3D runs the 3-D extension using pooled scratch; see Solver.Run3D.
func Run3D(obs []Obs3D, cfg Config) (*Estimate3D, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.Run3D(obs, cfg)
}

// Run is RunSegmented with a single segment.
func (s *Solver) Run(obs []Obs, cfg Config) (*Estimate, error) {
	return s.RunSegmented(obs, nil, cfg)
}

// RunSegmented fits one target position across environment segments:
// the geometry (x, h) is shared by all observations, while each segment
// gets its own (Γⱼ, nⱼ) — the paper's "start a new regression when the
// environment changes" (Algorithm 1), strengthened so the segments still
// constrain a single position jointly instead of producing independent
// (and individually ambiguous) per-segment answers. segStarts lists the
// first observation index of each segment ([0] or nil for a single
// segment); segments too short to support their own channel parameters
// are merged into their predecessor.
func (s *Solver) RunSegmented(obs []Obs, segStarts []int, cfg Config) (*Estimate, error) {
	est, err := s.runSegmented(obs, segStarts, cfg)
	metRuns.Inc()
	switch {
	case errors.Is(err, ErrCanceled):
		metCanceled.Inc()
	case err != nil:
		metFailures.Inc()
	case est.Ambiguous:
		metAmbiguous.Inc()
	}
	if err == nil {
		metResidualDB.Observe(est.ResidualDB)
	}
	if cfg.Loss != LossSquared {
		metIRLSRuns.Inc()
		if err == nil && est.Downweighted > 0 {
			metIRLSDownweighted.Add(int64(est.Downweighted))
		}
	}
	return est, err
}

// growFloats returns buf resized to n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
