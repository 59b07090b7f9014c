package estimate

import (
	"fmt"
	"math"

	"locble/internal/robust"
)

// Loss selects the regression loss of the dB-domain position search.
// The zero value is the classic squared loss, which keeps the default
// pipeline bit-identical to its historical behaviour; the robust losses
// wrap the same closed-form inner fit in IRLS (iteratively reweighted
// least squares) so a handful of hostile samples — impulse bursts,
// spoofed readings, coordinated outlier runs — cannot drag the fix the
// way a −30 dB outlier drags a squared fit.
type Loss int

const (
	// LossSquared is ordinary least squares (the paper's loss).
	LossSquared Loss = iota
	// LossHuber is the Huber M-estimator: quadratic near zero, linear in
	// the tails. With a huge delta it reproduces least squares
	// bit-exactly (the quadratic zone covers every residual).
	LossHuber
	// LossTukey is the Tukey bisquare M-estimator: redescending — gross
	// outliers get weight zero and a bounded loss contribution.
	LossTukey
)

func (l Loss) String() string {
	switch l {
	case LossSquared:
		return "squared"
	case LossHuber:
		return "huber"
	case LossTukey:
		return "tukey"
	}
	return fmt.Sprintf("Loss(%d)", int(l))
}

// ParseLoss resolves a loss name ("squared"/"ls", "huber", "tukey").
func ParseLoss(s string) (Loss, error) {
	switch s {
	case "squared", "ls", "l2", "":
		return LossSquared, nil
	case "huber":
		return LossHuber, nil
	case "tukey", "bisquare":
		return LossTukey, nil
	}
	return 0, fmt.Errorf("estimate: unknown loss %q (squared|huber|tukey)", s)
}

// Robust-loss defaults: the standard 95%-Gaussian-efficiency tuning
// constants, an IRLS depth that converges for RSS-sized samples, the
// minimum residual scale (real BLE RSS noise never drops below a
// fraction of a dB), and the weight below which an observation counts
// as "down-weighted" in diagnostics.
const (
	defaultHuberDelta    = 1.345
	defaultTukeyC        = 4.685
	defaultIRLSIters     = 3
	irlsScaleFloorDB     = 0.5
	downweightedBelowW   = 0.5
	irlsMinUsableWeightS = 1e-9
)

// weight is the loss's IRLS weight of residual r at scale σ.
func (l Loss) weight(r, sigma, delta, c float64) float64 {
	if l == LossTukey {
		return robust.TukeyWeight(r, sigma, c)
	}
	return robust.HuberWeight(r, sigma, delta)
}

// residualScale is the robust residual scale of a fit: σ from the MAD
// of the residuals of (n, Γ) over the log-distances in s.gs (left in
// s.rr), floored at irlsScaleFloorDB.
func (s *Solver) residualScale(obs []Obs, n, gamma float64) float64 {
	rr, gs := s.rr, s.gs
	for i, o := range obs {
		rr[i] = o.RSS - (gamma - 10*n*gs[i])
	}
	var mad float64
	_, mad, s.madScratch = robust.MADInto(rr, s.madScratch)
	return robust.Scale(mad, irlsScaleFloorDB)
}

// irls is the robust counterpart of the closed-form fit. s.gs holds the
// log-distances and (n, gamma, free) their unweighted closed form — the
// fit under weights all 1. Each reweighting pass re-scales the residuals
// by their MAD-derived σ, converts them into Huber/Tukey weights, and
// re-solves the weighted normal equations — all inside the solver's
// arenas, so the search stays allocation-free once warm; it stops early
// once the weights no longer change (the previous solve already used
// them). The final pass scores Σρ of the residuals at their own σ — the
// position-search objective — counts the observations below the
// down-weight threshold, and leaves the residuals in s.rr and their
// weights in s.w for the gradient. unit reports that no weight ever left
// 1; sigma is the final scale.
//
// Bit-exactness contract: with LossHuber and a delta large enough that
// every residual stays in the quadratic zone, every weight is exactly 1,
// nothing is re-solved, ρ(r) = r² and unit holds, so the caller takes the
// squared-loss gradient — (n, Γ), the score and the gradient, and
// therefore the entire position search, reproduce the squared-loss
// results bit-for-bit.
func (s *Solver) irls(obs []Obs, cfg *Config, n, gamma float64, free bool) (_, _ float64, _ bool, score float64, down int, unit bool, sigma float64) {
	m := len(obs)
	s.rr = growFloats(s.rr, m)
	s.w = growFloats(s.w, m)
	rr, w, gs := s.rr, s.w, s.gs
	iters, delta, c := cfg.robustTuning()

	for i := range w {
		w[i] = 1
	}
	unit = true
	for it := 0; it < iters; it++ {
		sigma = s.residualScale(obs, n, gamma)
		changed := false
		for i := range rr {
			if wi := cfg.Loss.weight(rr[i], sigma, delta, c); wi != w[i] {
				w[i], changed = wi, true
			}
		}
		if !changed {
			break
		}
		unit = false
		var sw, swg, swr, swgg, swgr float64
		for i, o := range obs {
			wi, g := w[i], gs[i]
			wg := wi * g
			sw += wi
			swg += wg
			swr += wi * o.RSS
			swgg += wg * g
			swgr += wg * o.RSS
		}
		if sw < irlsMinUsableWeightS {
			// Every observation rejected (pathological scale collapse):
			// keep the previous iteration's fit rather than divide by ~0.
			break
		}
		ws := fitSums{sw: sw, sg: swg, sr: swr, sgg: swgg, sgr: swgr}
		n, gamma, free = ws.solve(cfg.NMin, cfg.NMax)
	}

	// Final robust score and down-weight census at the reweighted (n, Γ).
	sigma = s.residualScale(obs, n, gamma)
	for i := range rr {
		if cfg.Loss == LossTukey {
			score += robust.TukeyRho(rr[i], sigma, c)
		} else {
			score += robust.HuberRho(rr[i], sigma, delta)
		}
		wi := cfg.Loss.weight(rr[i], sigma, delta, c)
		w[i] = wi
		if wi < downweightedBelowW {
			down++
		}
		unit = unit && wi == 1
	}
	return n, gamma, free, score, down, unit, sigma
}

// robustTuning resolves the configured IRLS depth and tuning constants.
func (c *Config) robustTuning() (iters int, delta, tukeyC float64) {
	iters, delta, tukeyC = c.IRLSIterations, c.HuberDelta, c.TukeyC
	if iters <= 0 {
		iters = defaultIRLSIters
	}
	if delta <= 0 {
		delta = defaultHuberDelta
	}
	if tukeyC <= 0 {
		tukeyC = defaultTukeyC
	}
	return iters, delta, tukeyC
}

// curvature is ψ'(r)/2 for the loss at scale σ — how strongly residual r
// pins the fitted (n, Γ): 1 in Huber's quadratic zone and 0 beyond it;
// (1 − u²)(1 − 5u²) with u = r/(c·σ) inside Tukey's support.
func (l Loss) curvature(r, sigma, delta, c float64) float64 {
	if l == LossTukey {
		k := c * sigma
		if k <= 0 {
			return 0
		}
		u2 := (r / k) * (r / k)
		if u2 >= 1 {
			return 0
		}
		return (1 - u2) * (1 - 5*u2)
	}
	if math.Abs(r) <= delta*sigma {
		return 1
	}
	return 0
}

// robustGrad fills fg for the robust fit irls just left in s.rr / s.w at
// (x, h): the data term Σwᵢrᵢ·∂gᵢ — the gradient of Σρ at fixed (n, Γ,
// σ), since ψ(r) = 2·w·r — and the curvature-weighted sensitivity sums.
func (s *Solver) robustGrad(obs []Obs, cfg *Config, x, h, sigma float64, fg *fitGrad) {
	_, delta, c := cfg.robustTuning()
	var v, vg, vgg, vax, vay, vbx, vby, dx, dy float64
	rr, w, gs := s.rr, s.w, s.gs
	for i, o := range obs {
		dp, dq := x+o.P, h+o.Q
		l2 := dp*dp + dq*dq
		var gx, gy float64
		if l2 >= 0.0025 {
			inv := math.Log10E / l2
			gx, gy = dp*inv, dq*inv
		}
		g := gs[i]
		vi := cfg.Loss.curvature(rr[i], sigma, delta, c)
		wr := w[i] * rr[i]
		v += vi
		vg += vi * g
		vgg += vi * g * g
		vax += vi * gx
		vay += vi * gy
		vbx += vi * g * gx
		vby += vi * g * gy
		dx += wr * gx
		dy += wr * gy
	}
	*fg = fitGrad{v: v, vg: vg, vgg: vgg, va: vec{vax, vay}, vb: vec{vbx, vby}, d: vec{dx, dy}}
}

// scaleSlope is ∂ρ/∂σ of the loss at residual r: the robust score moves
// with its scale wherever a residual leaves Huber's quadratic zone, and
// everywhere inside Tukey's support.
func (l Loss) scaleSlope(r, sigma, delta, c float64) float64 {
	if l == LossTukey {
		k := c * sigma
		if k <= 0 {
			return 0
		}
		u2 := (r / k) * (r / k)
		if u2 >= 1 {
			return 2 * k * c / 3
		}
		v := 1 - u2
		return c * (2*k/3*(1-v*v*v) - 2*k*u2*v*v)
	}
	a, k := math.Abs(r), delta*sigma
	if a <= k {
		return 0
	}
	return 2 * delta * (a - k)
}

// addScaleGrad adds the scale's share of the robust score's gradient:
// σ is the MAD scale of the final residuals (left in s.rr), so it moves
// with position through the residuals at the median and at the median
// absolute deviation, ∂rᵢ/∂x = −∂Γ + 10·(∂n·gᵢ + n·∂gᵢ):
// ∂F/∂x += ∂F/∂σ · 1.4826 · ∂MAD/∂x. A floored σ does not move.
func (s *Solver) addScaleGrad(obs []Obs, cfg *Config, x, h, n, sigma float64, dn, dgamma *vec, grad *vec) {
	_, delta, c := cfg.robustTuning()
	rr, gs := s.rr, s.gs
	dF := 0.0
	for _, r := range rr {
		dF += cfg.Loss.scaleSlope(r, sigma, delta, c)
	}
	if dF == 0 {
		return
	}
	var med, mad float64
	med, mad, s.madScratch = robust.MADInto(rr, s.madScratch)
	if !(robust.MADScaleFactor*mad >= irlsScaleFloorDB) {
		return
	}
	a1, a2 := centralIdx(len(rr), func(i int) float64 { return rr[i] }, med)
	b1, b2 := centralIdx(len(rr), func(i int) float64 { return math.Abs(rr[i] - med) }, mad)
	dr := func(i int) vec {
		o := obs[i]
		dp, dq := x+o.P, h+o.Q
		l2 := dp*dp + dq*dq
		var gx, gy float64
		if l2 >= 0.0025 {
			inv := math.Log10E / l2
			gx, gy = dp*inv, dq*inv
		}
		return vec{
			-dgamma[0] + 10*(dn[0]*gs[i]+n*gx),
			-dgamma[1] + 10*(dn[1]*gs[i]+n*gy),
		}
	}
	da1, da2, db1, db2 := dr(a1), dr(a2), dr(b1), dr(b2)
	s1, s2 := math.Copysign(1, rr[b1]-med), math.Copysign(1, rr[b2]-med)
	for k := 0; k < 2; k++ {
		dmed := 0.5 * (da1[k] + da2[k])
		dmad := 0.5 * (s1*(db1[k]-dmed) + s2*(db2[k]-dmed))
		grad[k] += dF * robust.MADScaleFactor * dmad
	}
}

// centralIdx returns the indices of the central order statistics of the
// m values at(i) whose median is med: the middle element twice for an
// odd count, the two elements straddling med for an even one.
func centralIdx(m int, at func(i int) float64, med float64) (lo, hi int) {
	if m%2 == 1 {
		for i := 0; i < m; i++ {
			if at(i) == med {
				return i, i
			}
		}
	}
	lo, hi = -1, -1
	for i := 0; i < m; i++ {
		v := at(i)
		if v <= med && (lo < 0 || v > at(lo)) {
			lo = i
		}
		if v >= med && (hi < 0 || v < at(hi)) {
			hi = i
		}
	}
	if lo < 0 {
		lo = hi
	}
	if hi < 0 {
		hi = lo
	}
	return lo, hi
}

// fitAt is the inner fit at (x, h) alone: the closed form under
// LossSquared, IRLS under the robust losses. down is 0 for the squared loss (nothing is
// weighted).
func (s *Solver) fitAt(obs []Obs, cfg *Config, x, h float64) (n, gamma, score float64, down int) {
	var f fitSums
	s.sums2D(obs, x, h, &f)
	n, gamma, free := f.solve(cfg.NMin, cfg.NMax)
	if cfg.Loss == LossSquared {
		return n, gamma, s.sqResid(obs, n, gamma), 0
	}
	n, gamma, _, score, down, _, _ = s.irls(obs, cfg, n, gamma, free)
	return n, gamma, score, down
}

// FitProbe runs one local position search — the estimator's planar
// objective under cfg's loss, closed-form inner fit for LossSquared,
// IRLS for the robust losses — from the given start position, entirely
// inside the Solver's arenas, and returns the converged objective. It is
// the allocation-probe entry point for the pipeline benchmark gate:
// after one warming call has sized the scratch buffers, repeated
// FitProbe calls must perform zero heap allocations.
func (s *Solver) FitProbe(obs []Obs, cfg Config, x, h float64) float64 {
	cfg.softDefaults()
	if cfg.MaxRange <= 0 {
		cfg.MaxRange = 25
	}
	s.seg1[0] = [2]int{0, len(obs)}
	s.obj = objective{kind: searchPlanar, dim: 2, obs: obs, segs: s.seg1[:], cfg: cfg}
	defer s.clearObjective()
	st := trState{x: vec{x, h}}
	var g vec
	s.start(&st, &g)
	s.search(&st, &g, polishIters)
	return st.f
}
